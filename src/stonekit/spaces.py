"""Finite topological spaces as specialization preorders.

A finite topology is exactly the set of up-sets of its specialization
preorder (Alexandroff), so a FinSpace holds its points and the up-masks
of that preorder: up[i] is U_i, the smallest open around point i. The
constructor checks that `up` is reflexive and transitive with masks in
range, and the same memo derives the opens once per preorder, ascending
(order.up_sets), where FinSpace.opens reads them. Two spaces are equal
exactly when their topologies are. A map is continuous exactly when it
is monotone for the two preorders, and a bijection is a homeomorphism
exactly when it is an isomorphism of them (order.isomorphism).
space_from_basis is the one route from a family of sets to a space.

The preorder check of a space, which derives its opens, and the
continuity check of a map run once per distinct (up, assignment) value,
whatever the point names (memo.keyed); only passing verdicts are
stored, and the spaces of one preorder share one tuple of opens.
"""

from functools import reduce
from operator import and_
from typing import Iterable, Optional, Sequence, Tuple

from .bitsets import bits, format_subset, mask_of
from .dlat import DistLattice, LatticeHom, SetLatticeView, inclusion_view
from .errors import InvalidValue, NotATopology, UniverseMismatch
from .memo import itself, keyed, shared
from .order import (
    Value,
    _unvalidated,
    cycle_pair,
    is_transitive,
    isomorphism,
    up_sets,
)


class FinSpace(Value):
    """Points and the up-masks of their specialization preorder: bit j of
    up[i] means every open around point i holds point j."""

    points: Tuple[str, ...]
    up: Tuple[int, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise InvalidValue("duplicate point names")
        if len(self.up) != len(self.points):
            raise NotATopology("one up-mask per point required")
        _preorder_opens(self)

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

    @property
    def opens(self) -> Tuple[int, ...]:
        """Every up-set of the preorder, ascending: the tuple the check of
        the preorder stored, shared by the spaces of one preorder."""
        return _preorder_opens(self)


@keyed(lambda x: x.up)
def _preorder_opens(x: FinSpace) -> Tuple[int, ...]:
    """NotATopology unless x.up is a reflexive, transitive relation on the
    points: each U_i holds i, lies inside the points and holds U_j for
    every j in it. Otherwise its up-sets, the opens."""
    for i, u in enumerate(x.up):
        if u >> x.n:
            raise NotATopology(f"up-mask of {x.points[i]!r} reaches past the points")
        if not u >> i & 1:
            raise NotATopology(f"relation not reflexive at {x.points[i]!r}")
    if not is_transitive(x.up):
        raise NotATopology("relation not transitive")
    return up_sets(x.up)


def _meets_around(n: int, masks: Sequence[int]) -> Tuple[int, ...]:
    """For each of n points, the meet of the masks that hold it (all n
    points when none does)."""
    full = (1 << n) - 1
    return tuple(reduce(and_, (m for m in masks if m >> i & 1), full) for i in range(n))


def discrete_space(names: Iterable[str]) -> FinSpace:
    names = tuple(names)
    return FinSpace(names, tuple(1 << i for i in range(len(names))))


def indiscrete_space(names: Iterable[str]) -> FinSpace:
    names = tuple(names)
    return FinSpace(names, ((1 << len(names)) - 1,) * len(names))


def sierpinski() -> FinSpace:
    """Two points 0 < 1 with {1} the only nontrivial open."""
    return FinSpace(("0", "1"), (0b11, 0b10))


def space_from_basis(names: Iterable[str], basis: Iterable[int]) -> FinSpace:
    """The topology a family of point-masks generates under union and
    intersection: U_x is the meet of the given sets that hold x, and the
    opens are the unions of the U_x."""
    names = tuple(names)
    basis = list(basis)
    for m in basis:
        if m >> len(names):
            raise NotATopology(f"set mask {m} reaches past the {len(names)} points")
    return FinSpace(names, _meets_around(len(names), basis))


def disjoint_union(x: FinSpace, y: FinSpace) -> FinSpace:
    """Coproduct; point names must not clash."""
    return FinSpace(x.points + y.points, x.up + tuple(u << x.n for u in y.up))


def subspace(x: FinSpace, mask: int) -> "Tuple[FinSpace, ContinuousMap]":
    """Induced topology on a subset, with the inclusion map: U_i of the
    subspace is U_i & mask."""
    if mask >> x.n:
        raise NotATopology(f"set mask {mask} reaches past the {x.n} points")
    keep = list(bits(mask))
    names = tuple(x.points[i] for i in keep)
    pos = {old: new for new, old in enumerate(keep)}
    up = tuple(mask_of(pos[j] for j in bits(x.up[i] & mask)) for i in keep)
    sub = FinSpace(names, up)
    incl = ContinuousMap(sub, x, tuple(keep))
    return sub, incl


class ContinuousMap(Value):
    """Point assignment whose preimages of opens are open."""

    source: FinSpace
    target: FinSpace
    assignment: Tuple[int, ...]

    def __post_init__(self):
        assignment = shared(tuple(self.assignment))
        object.__setattr__(self, "assignment", assignment)
        _check_continuous(self.source, self.target, assignment)

    def apply(self, name: str) -> str:
        return self.target.points[self.assignment[self.source.index(name)]]

    def image_mask(self, mask: int) -> int:
        return mask_of(self.assignment[i] for i in bits(mask))


def continuity_violation(
    x: FinSpace, y: FinSpace, assignment: Tuple[int, ...]
) -> Optional[str]:
    """Why assignment is not a continuous map x -> y, or None if it is.

    A map is continuous exactly when it is monotone: the image of U_i lies
    in U_f(i). Where it does not, U_f(i) is an open whose preimage holds i
    but not all of U_i, so is not open."""
    if len(assignment) != x.n:
        return "assignment length mismatch"
    for v in assignment:
        if not 0 <= v < y.n:
            return "assignment value out of range"
    for u, v in zip(x.up, assignment):
        if any(not y.up[v] >> assignment[j] & 1 for j in bits(u)):
            return f"preimage of {y.set_name(y.up[v])} is not open"
    return None


@keyed(lambda x, y, assignment: (x.up, y.up, assignment))
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
        ContinuousMap,
        f.source,
        g.target,
        shared(tuple(g.assignment[v] for v in f.assignment)),
    )


# ---------------------------------------------------------------------------
# specialization, separation, closure


def is_t0(x: FinSpace) -> bool:
    return cycle_pair(x.up) is None


def closure_of(x: FinSpace, mask: int) -> int:
    """Smallest closed set containing mask: the points whose U_i meets it."""
    return mask_of(i for i, u in enumerate(x.up) if u & mask)


def interior_of(x: FinSpace, mask: int) -> int:
    """Largest open inside mask: the points whose U_i lies in it."""
    return mask_of(i for i, u in enumerate(x.up) if not u & ~mask)


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


@keyed(itself)
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
    preimages = (preimage_mask(f.assignment, m) for m in src_view.masks)
    assignment = tgt_view.indices_of(preimages)
    return LatticeHom(src_view.lattice, tgt_view.lattice, assignment)


# ---------------------------------------------------------------------------
# homeomorphism


def is_homeomorphism(f: ContinuousMap) -> bool:
    """Bijective and carries each U_i exactly onto U_f(i): an isomorphism
    of the two specialization preorders."""
    if sorted(f.assignment) != list(range(f.target.n)):
        return False
    return all(
        f.image_mask(u) == f.target.up[v] for u, v in zip(f.source.up, f.assignment)
    )


def homeomorphism(x: FinSpace, y: FinSpace) -> Optional[ContinuousMap]:
    """A homeomorphism x -> y, or None: an isomorphism of the two
    specialization preorders."""
    assign = isomorphism(x.up, y.up)
    return None if assign is None else ContinuousMap(x, y, assign)


def homeomorphic(x: FinSpace, y: FinSpace) -> bool:
    return homeomorphism(x, y) is not None
