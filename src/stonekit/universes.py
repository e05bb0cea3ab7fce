"""Exhaustive enumeration of small labeled posets, topologies, lattices.

These drive the law-checking suites: every claim quantified over "all
posets on <= 4 elements" or "all topologies on <= 3 points" runs over the
tuples produced here. Enumeration is by labeled structure, so the counts
match the standard sequences (posets 1, 1, 3, 19, 219, 4231; topologies 1,
1, 4, 29, 355, 6942) and the tests assert them.

Each reflexive transitive relation on points 0..k extends one on 0..k-1
by the strict down-set D and strict up-set U of the new point k: D is
down-closed, U up-closed, every point of D lies below every point of U,
and for posets D and U are disjoint. The relations come out in ascending
pick code (bit b set when the b-th off-diagonal pair (i, j), i major, is
related), so a structure's position in a pool, its instance id, is fixed.
"""

from typing import Tuple

from .bitsets import bits
from .dlat import DistLattice, downset_lattice
from .errors import BudgetExceeded
from .memo import itself, keyed
from .order import FinPoset, make_poset, monotone_maps, transpose, up_sets
from .spaces import ContinuousMap, FinSpace

POSET_NAMES = "abcde"
POINT_NAMES = "vwxyz"

MAX_POSET = 5
MAX_POINTS = 5


def _relation_candidates(n: int, antisymmetric: bool):
    """Reflexive transitive up-masks over n elements, optionally
    antisymmetric, by one-point extension, in ascending pick code: each row
    holds its own bit, so comparing rows from the last gives that order."""
    rels = [()]
    for k in range(n):
        top = 1 << k
        grown = []
        for up in rels:
            above = up_sets(up)
            for down in up_sets(transpose(up)):
                allowed = top - 1
                for d in bits(down):
                    allowed &= up[d]
                if antisymmetric:
                    allowed &= ~down
                lower = tuple(m | top if down >> i & 1 else m for i, m in enumerate(up))
                grown += [lower + (u | top,) for u in above if not u & ~allowed]
        rels = grown
    return sorted(rels, key=lambda up: up[::-1])


def _guard(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise BudgetExceeded(f"{what} on {n} elements exceeds the cap {cap}")


@keyed(itself)
def all_posets(n: int) -> Tuple[FinPoset, ...]:
    """All labeled posets on n elements (1, 1, 3, 19, 219, 4231), elements
    named a, b, c, ..., by one-point extension in ascending pick code."""
    _guard(n, MAX_POSET, "poset enumeration")
    names = list(POSET_NAMES[:n])
    out = []
    for up in _relation_candidates(n, antisymmetric=True):
        out.append(make_poset(names, transpose(up)))
    return tuple(out)


def all_posets_upto(n: int) -> Tuple[FinPoset, ...]:
    out: list[FinPoset] = []
    for k in range(n + 1):
        out.extend(all_posets(k))
    return tuple(out)


@keyed(itself)
def all_spaces(n: int) -> Tuple[FinSpace, ...]:
    """All labeled topologies on n points (1, 1, 4, 29, 355, 6942), via
    their specialization preorders, by one-point extension in ascending
    pick code.

    Finite topologies are exactly the up-set families of preorders, so
    enumerating preorders gives each topology once.
    """
    _guard(n, MAX_POINTS, "topology enumeration")
    names = tuple(POINT_NAMES[:n])
    return tuple(
        FinSpace(names, up) for up in _relation_candidates(n, antisymmetric=False)
    )


def all_spaces_upto(n: int) -> Tuple[FinSpace, ...]:
    out: list[FinSpace] = []
    for k in range(n + 1):
        out.extend(all_spaces(k))
    return tuple(out)


def all_topology_families_bruteforce(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Independent oracle: filter every family of subsets by the axioms."""
    if n > 4:
        raise BudgetExceeded("brute-force topology oracle is capped at 4 points")
    full = (1 << n) - 1
    inner = [m for m in range(1 << n) if m not in (0, full)]
    out = []
    for pick in range(1 << len(inner)):
        fam = {0, full} | {inner[b] for b in bits(pick)}
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            out.append(tuple(sorted(fam)))
    return tuple(sorted(set(out)))


@keyed(itself)
def lattice_universe(max_poset: int) -> Tuple[DistLattice, ...]:
    """Downset lattices of all posets on <= max_poset elements (243 at 4)."""
    return tuple(downset_lattice(p) for p in all_posets_upto(max_poset))


def all_continuous_maps(x: FinSpace, y: FinSpace):
    """Every continuous map x -> y: the monotone maps of the specialization
    preorders; raises BudgetExceeded as order.monotone_maps does."""
    return (ContinuousMap(x, y, f) for f in monotone_maps(x.up, y.up))
