"""Finite topological spaces as explicit families of open point-sets.

Opens are bitmasks over the point tuple, stored sorted ascending, and the
constructor enforces the closure axioms, so two equal-looking spaces are
equal as values. All finite topologies are Alexandrov: arbitrary meets of
opens are again open, which the rest of the package leans on freely. The
opens are the up-sets of the specialization preorder, whose up-masks are
the minimal neighbourhoods (FinSpace.min_nbhds, built once), so the
closure check reads them and a homeomorphism is an isomorphism of the two
preorders (order.isomorphism).

The closure check of a family of opens and the continuity check of a map
run once per distinct (opens, assignment) value, whatever the point names
(memo.name_free); only passing verdicts are stored.
"""

from functools import cached_property, reduce
from operator import and_
from typing import Iterable, Optional, Sequence, Tuple

from .bitsets import bits, format_subset, mask_of
from .dlat import DistLattice, LatticeHom, SetLatticeView, inclusion_view
from .errors import InvalidValue, InvariantViolated, NotATopology, UniverseMismatch
from .memo import cached, name_free
from .order import (
    Value,
    _unvalidated,
    cycle_pair,
    isomorphism,
    up_sets,
)


class FinSpace(Value):
    points: Tuple[str, ...]
    opens: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.points)
        if len(set(self.points)) != n:
            raise InvalidValue("duplicate point names")
        full = (1 << n) - 1
        if list(self.opens) != sorted(set(self.opens)):
            raise NotATopology("opens must be distinct and sorted ascending")
        if self.opens and (self.opens[0] != 0 or self.opens[-1] != full):
            raise NotATopology("missing empty set or whole space", witness=(0, full))
        if not self.opens:
            raise NotATopology("no opens given")
        _check_closed(self)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def index(self, name: str) -> int:
        return self.points.index(name)

    def set_name(self, mask: int) -> str:
        return format_subset(self.points, mask)

    @cached_property
    def min_nbhds(self) -> Tuple[int, ...]:
        """U_i, the smallest open around each point i, built once: the
        up-masks of the specialization preorder."""
        return _meets_around(self.n, self.opens)

    def min_nbhd(self, i: int) -> int:
        return self.min_nbhds[i]


@name_free(lambda x: tuple(x.opens))
def _check_closed(x: FinSpace) -> None:
    """NotATopology unless the opens are closed under union and intersection.

    Holding the empty set and the whole space, they are exactly when they
    are up_sets(x.min_nbhds), that is, when adding any U_i to any open
    gives an open: n * |opens| lookups. Only a refused family runs the
    pairwise loop, which names the first pair that is not closed."""
    have = set(x.opens)
    if all(o | u in have for o in x.opens for u in x.min_nbhds):
        return
    for a in x.opens:
        for b in x.opens:
            if a | b not in have:
                raise NotATopology(
                    f"union of {x.set_name(a)} and {x.set_name(b)} not open",
                    witness=(a, b),
                )
            if a & b not in have:
                raise NotATopology(
                    f"intersection of {x.set_name(a)} and {x.set_name(b)} not open",
                    witness=(a, b),
                )
    raise InvariantViolated("the neighbourhood test failed, but every pair is closed")


def _meets_around(n: int, masks: Sequence[int]) -> Tuple[int, ...]:
    """For each of n points, the meet of the masks that hold it (all n
    points when none does)."""
    full = (1 << n) - 1
    return tuple(reduce(and_, (m for m in masks if m >> i & 1), full) for i in range(n))


def discrete_space(names: Iterable[str]) -> FinSpace:
    names = tuple(names)
    return FinSpace(names, tuple(range(1 << len(names))))


def indiscrete_space(names: Iterable[str]) -> FinSpace:
    names = tuple(names)
    full = (1 << len(names)) - 1
    return FinSpace(names, (0, full) if full else (0,))


def sierpinski() -> FinSpace:
    """Two points 0 < 1 with {1} the only nontrivial open."""
    return FinSpace(("0", "1"), (0b00, 0b10, 0b11))


def space_from_basis(names: Iterable[str], basis: Iterable[int]) -> FinSpace:
    """Close a family of point-masks under union and intersection.

    The closure is the family of unions of the minimal neighbourhoods U_x,
    the meet of the given sets that hold x: each U_x is such a meet, each
    given set is the union of the U_x of its points, and U_x & U_y is the
    union of the U_z inside it."""
    names = tuple(names)
    basis = list(basis)
    for m in basis:
        if m >> len(names):
            raise NotATopology(f"set mask {m} reaches past the {len(names)} points")
    return FinSpace(names, up_sets(set(_meets_around(len(names), basis))))


def disjoint_union(x: FinSpace, y: FinSpace) -> FinSpace:
    """Coproduct; point names must not clash."""
    names = x.points + y.points
    opens = tuple(
        sorted(a | (b << x.n) for a in x.opens for b in y.opens)
    )
    return FinSpace(names, opens)


def subspace(x: FinSpace, mask: int) -> "Tuple[FinSpace, ContinuousMap]":
    """Induced topology on a subset, with the inclusion map."""
    keep = list(bits(mask))
    names = tuple(x.points[i] for i in keep)
    pos = {old: new for new, old in enumerate(keep)}
    opens = sorted({mask_of(pos[i] for i in bits(o & mask)) for o in x.opens})
    sub = FinSpace(names, tuple(opens))
    incl = ContinuousMap(sub, x, tuple(keep))
    return sub, incl


class ContinuousMap(Value):
    """Point assignment whose preimages of opens are open."""

    source: FinSpace
    target: FinSpace
    assignment: Tuple[int, ...]

    def __post_init__(self):
        _check_continuous(self.source, self.target, tuple(self.assignment))

    def apply(self, name: str) -> str:
        return self.target.points[self.assignment[self.source.index(name)]]

    def image_mask(self, mask: int) -> int:
        return mask_of(self.assignment[i] for i in bits(mask))


def continuity_violation(
    x: FinSpace, y: FinSpace, assignment: Tuple[int, ...]
) -> Optional[str]:
    """Why assignment is not a continuous map x -> y, or None if it is."""
    if len(assignment) != x.n:
        return "assignment length mismatch"
    for v in assignment:
        if not 0 <= v < y.n:
            return "assignment value out of range"
    # fibres[v] is the point-set sent to target point v, and the
    # preimage of an open the union of the fibres of its points
    fibres = [0] * y.n
    for i, v in enumerate(assignment):
        fibres[v] |= 1 << i
    src_opens = set(x.opens)
    for o in y.opens:
        pre = 0
        for v in bits(o):
            pre |= fibres[v]
        if pre not in src_opens:
            return f"preimage of {y.set_name(o)} is not open"
    return None


@name_free(lambda x, y, assignment: (tuple(x.opens), tuple(y.opens), assignment))
def _check_continuous(x: FinSpace, y: FinSpace, assignment: Tuple[int, ...]) -> None:
    bad = continuity_violation(x, y, assignment)
    if bad is not None:
        raise InvalidValue(bad)


def preimage_mask(assignment: Tuple[int, ...], target_mask: int) -> int:
    return mask_of(
        i for i, v in enumerate(assignment) if (target_mask >> v) & 1
    )


def identity_map(x: FinSpace) -> ContinuousMap:
    return ContinuousMap(x, x, tuple(range(x.n)))


def compose_maps(g: ContinuousMap, f: ContinuousMap) -> ContinuousMap:
    if f.target != g.source:
        raise UniverseMismatch("map composite endpoints do not match")
    return _unvalidated(
        ContinuousMap, f.source, g.target, tuple(g.assignment[v] for v in f.assignment)
    )


# ---------------------------------------------------------------------------
# specialization, separation, closure


def specialization_preorder(x: FinSpace) -> Tuple[int, ...]:
    """up[i] = mask of points y with i below y: every open at i contains y."""
    return x.min_nbhds


def is_t0(x: FinSpace) -> bool:
    return cycle_pair(specialization_preorder(x)) is None


def closure_of(x: FinSpace, mask: int) -> int:
    """Smallest closed set containing mask."""
    out = x.full
    for o in x.opens:
        if o & mask == 0:
            out &= ~o
    return out & x.full


def interior_of(x: FinSpace, mask: int) -> int:
    out = 0
    for o in x.opens:
        if o & ~mask == 0:
            out |= o
    return out


def clopen_masks(x: FinSpace) -> Tuple[int, ...]:
    have = set(x.opens)
    return tuple(o for o in x.opens if (x.full & ~o) in have)


def closure_initiality_witness(f: ContinuousMap) -> Optional[int]:
    """A set whose closure is not pulled back from the codomain, if any.

    A map is closure-initial when closing upstream agrees with closing the
    image downstream and pulling back.
    """
    for a in range(1 << f.source.n):
        induced = preimage_mask(
            f.assignment, closure_of(f.target, f.image_mask(a))
        )
        if closure_of(f.source, a) != induced:
            return a
    return None


def is_closure_initial(f: ContinuousMap) -> bool:
    return closure_initiality_witness(f) is None


# ---------------------------------------------------------------------------
# the open-set frame


@cached
def open_frame_view(x: FinSpace) -> SetLatticeView:
    """Open-set lattice of a space; masks[i] is the point-set of element i."""
    return inclusion_view(x.points, x.opens)


def open_set_frame(x: FinSpace) -> DistLattice:
    """Lattice of open sets under inclusion (a frame, at this scale)."""
    return open_frame_view(x).lattice


def open_preimage_hom(f: ContinuousMap) -> LatticeHom:
    """Frame hom from target opens to source opens taking preimages."""
    src_view = open_frame_view(f.target)
    tgt_view = open_frame_view(f.source)
    return LatticeHom(
        src_view.lattice,
        tgt_view.lattice,
        tuple(
            tgt_view.index_of(preimage_mask(f.assignment, m))
            for m in src_view.masks
        ),
    )


# ---------------------------------------------------------------------------
# homeomorphism


def is_homeomorphism(f: ContinuousMap) -> bool:
    """Bijective and carries the open-set family exactly onto the target's."""
    if sorted(f.assignment) != list(range(f.target.n)):
        return False
    return sorted(f.image_mask(o) for o in f.source.opens) == list(f.target.opens)


def homeomorphism(x: FinSpace, y: FinSpace) -> Optional[ContinuousMap]:
    """A homeomorphism x -> y, or None. The opens are the up-sets of the
    specialization preorder, so a bijection is a homeomorphism exactly when
    it is an isomorphism of the two preorders."""
    assign = isomorphism(specialization_preorder(x), specialization_preorder(y))
    return None if assign is None else ContinuousMap(x, y, assign)


def homeomorphic(x: FinSpace, y: FinSpace) -> bool:
    return homeomorphism(x, y) is not None
