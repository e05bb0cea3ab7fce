"""Bitmask helpers for subsets of a fixed finite carrier.

A subset of a carrier with canonical element order e_0, ..., e_{n-1} is an
int whose bit i says whether e_i is in the subset.
"""

import sys
from typing import Dict, Iterable, Iterator, Sequence, Tuple

from .errors import InvariantViolated
from .memo import itself, keyed


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def union_of(sets: Sequence[int], mask: int) -> int:
    """The union of sets[i] over the members i of mask."""
    out = 0
    for i in bits(mask):
        out |= sets[i]
    return out


def format_subset(names: Sequence[str], mask: int) -> str:
    """Render a subset as `{a,b}` in carrier order; empty set is `{}`.
    The name is interned: equal names are one string."""
    return sys.intern("{" + ",".join(names[i] for i in bits(mask)) + "}")


@keyed(itself)
def positions(masks: Tuple[int, ...]) -> Dict[int, int]:
    """The position of each of the distinct masks, keyed by the mask; one
    table per family, shared by every view of it."""
    return {m: i for i, m in enumerate(masks)}


def indices_in(
    table: Dict[int, int], masks: Iterable[int], what: str, names=None
) -> Tuple[int, ...]:
    """table[mask] for each of the masks, in order, which a construction
    relies on finding; InvariantViolated names the first one missing, by
    its members' `names` when given, and what it should have been."""
    found = []
    for mask in masks:
        index = table.get(mask)
        if index is None:
            shown = f"mask {mask:#b}" if names is None else format_subset(names, mask)
            raise InvariantViolated(f"{shown} is not {what}")
        found.append(index)
    return tuple(found)
