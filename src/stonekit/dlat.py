"""Finite bounded distributive lattices, ideals, prime filters, Birkhoff duality.

Conventions:
  - carrier elements sit in the canonical order of the underlying FinPoset,
    so subsets of a lattice are int bitmasks;
  - an ideal is a nonempty, down-closed, join-closed subset;
  - a filter here is always proper (it never contains bottom).

Fast routes exploit finiteness and the canonical element order; each has a
definitional twin that the tests use as its oracle:
  - a lattice is the down-sets of its join-irreducibles J (Birkhoff), so
    meets and joins are intersections and unions of the masks of the J
    below; twins: a search over all common bounds, and the lookup tables
    of the down-sets and up-sets, in the tests;
  - J is the elements with one lower cover; twin: a count of covers;
  - _order_shape decides distributivity by Birkhoff's representation;
    twins: distributivity_witness_bruteforce, and the join-primeness pair
    loop, in the tests;
  - ideal_view lists the principal ideals (principal_masks); twin:
    ideals_bruteforce, over every subset;
  - is_prime_filter_mask tests closure under meets and primeness by one
    aggregate meet and one aggregate join; twin: the characters of
    homs_to_2_bruteforce;
  - prime_filters takes the up-sets of join-irreducibles; twins:
    prime_filters_bruteforce and homs_to_2_bruteforce;
  - all_lattice_homs reads the homs L -> M off the monotone maps
    J(M) -> J(L) (order.monotone_maps); twin: every assignment that
    hom_violation accepts, in the tests.
The twins that visit every subset (ideals_bruteforce,
prime_filters_bruteforce and frame.way_below_bruteforce) share one guard,
check_subset_budget: past SUBSET_ORACLE_MAX_ELEMENTS elements they raise
BudgetExceeded before visiting any subset.

A lattice is its order. DistLattice(p) is the unchecked lattice: it
takes the Shape of p, or raises NotALattice, and checks nothing about
distributivity. lattice_from_poset(p) is the checked one. The Shape holds
what the order fixes whatever the names, and no table of meets or joins.
It is derived, never given, and once per order: _order_shape stores it
under the down-sets, so every lattice with the same order holds one Shape.
inclusion_view is the one builder of derived lattices (lattices of sets,
ideal lattices, open frames).

Memo contract (see memo.keyed): the shape of an order, the hom and
distributivity checks, the prime filters, the assignments of
ideal_functor_hom and the orders of inclusion_view run once per distinct
name-free value. The results are stored under keys built from down-sets,
shapes and masks, and the names are attached per call. A Shape keys by
identity, so a lattice built with a shape of its own, not its order's,
shares no stored verdict with the lattices of that order.
inclusion_view's key is (masks, the argsort of the names): the names only
break ties in make_poset, so their ranking fixes the element order, and a
hit shares the stored down-sets under the caller's names (the
duplicate-name check runs on every call). Only passing verdicts are
stored, so a failure is checked again each time and its message names the
caller's own elements.

Ideals and prime filters are masks, never records: ideal_view holds the
principal masks and prime_filters the up-sets it checked, so no mask is
checked twice.
"""

import sys
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .bitsets import bits, format_subset, indices_in, mask_of, positions, union_of
from .errors import (
    BudgetExceeded,
    InvalidValue,
    NotALattice,
    NotDistributive,
    UniverseMismatch,
)
from .memo import itself, keyed, shared
from .order import (
    FinPoset,
    Value,
    _unvalidated,
    covers,
    isomorphism,
    make_poset,
    monotone_maps,
    transpose,
    up_sets,
)


class Shape:
    """What an order fixes whatever its element names: the up-masks, the
    join-irreducibles J by position, and the mask of the J below each
    element (`jdown`) with the element of each mask (`element_of`), which
    also holds each join of a lattice that is not distributive under the
    union of the pair's masks. One Shape per order; it compares and
    hashes by identity."""

    __slots__ = ("up", "irreducibles", "jdown", "element_of", "distributive")

    def __init__(self, up, irreducibles, jdown):
        self.up, self.irreducibles, self.jdown = up, irreducibles, jdown
        self.element_of = {m: k for k, m in enumerate(jdown)}
        self.distributive = True


class DistLattice(Value):
    """Bounded lattice on its FinPoset carrier, the only field; __post_init__
    takes its shape from _order_shape."""

    poset: FinPoset
    # not a field: the order fixes it
    __slots__ = ("shape",)

    # the canonical linear extension puts bottom first and top last
    bot = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", _order_shape(self.poset))

    @property
    def elements(self) -> Tuple[str, ...]:
        return self.poset.elements

    @property
    def n(self) -> int:
        return len(self.poset.elements)

    @property
    def top(self) -> int:
        return len(self.poset.elements) - 1

    @property
    def join_irreducible_mask(self) -> int:
        """Bitmask of the elements that are not bottom and not the join of
        the elements strictly below them (exactly one lower cover)."""
        return mask_of(self.shape.irreducibles)

    def index(self, name: str) -> int:
        return self.poset.index(name)

    def leq_index(self, i: int, j: int) -> bool:
        return self.poset.leq_index(i, j)

    def meet(self, a: int, b: int) -> int:
        shape = self.shape
        return shape.element_of[shape.jdown[a] & shape.jdown[b]]

    def join(self, a: int, b: int) -> int:
        shape = self.shape
        return shape.element_of[shape.jdown[a] | shape.jdown[b]]

    def join_mask(self, mask: int) -> int:
        """Join of a subset given as a bitmask; empty mask yields bottom."""
        jdown, element_of = self.shape.jdown, self.shape.element_of
        out = 0
        for i in bits(mask):
            out = jdown[element_of[out | jdown[i]]]
        return element_of[out]

    def meet_mask(self, mask: int) -> int:
        jdown = self.shape.jdown
        out = jdown[self.top]
        for i in bits(mask):
            out &= jdown[i]
        return self.shape.element_of[out]

    def cover_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """The covering pairs by name, read off the shape's up-masks."""
        e = self.elements
        return tuple((e[i], e[j]) for i, j in covers(self.poset.down, self.shape.up))

    def subset_name(self, mask: int) -> str:
        return format_subset(self.elements, mask)


def lattice_from_poset(p: FinPoset) -> DistLattice:
    """The poset as a checked distributive lattice: NotALattice when some
    pair lacks a meet or join, NotDistributive with a witness triple."""
    return _checked(DistLattice(p))


@keyed(lambda p: p.down)
def _order_shape(p: FinPoset) -> Shape:
    """The shape of p, or NotALattice. Below each element, in the linear
    extension, the highest index left is a lower cover, and dropping its
    down-set leaves the others; J is the elements with one, and the J
    below an element are those below its lower covers, and itself if in J."""
    down = p.down
    if not down:
        raise InvalidValue("the lattice has no elements")
    jdown, irreducibles, lower = [], [], []
    for a, d in enumerate(down):
        rest, mask, count = d ^ 1 << a, 0, 0
        while rest:
            c = rest.bit_length() - 1
            count, mask, rest = count + 1, mask | jdown[c], rest & ~down[c]
        if count == 1:
            mask |= 1 << len(irreducibles)
            irreducibles.append(a)
            lower.append(c)
        jdown.append(mask)
    shape = Shape(transpose(down), tuple(irreducibles), tuple(jdown))
    up, element_of = shape.up, shape.element_of
    # Birkhoff: p is a distributive lattice exactly when the masks are
    # distinct and, for each j in J and each a above j's lower cover but not
    # above j, jdown[a] with j added is the mask of an element above a (a
    # missing one reads as n, above nothing): these steps reach every
    # down-set of J from the empty one, and the inverse keeps the order
    if len(element_of) == len(down) and all(
        (up[a] >> element_of.get(jdown[a] | 1 << k, len(down))) & 1
        for k, (j, c) in enumerate(zip(irreducibles, lower))
        for a in bits(up[c] & ~up[j])
    ):
        return shape
    # otherwise the pair loop names the first pair without a meet or join,
    # or stores each join of a lattice that is not distributive
    shape.distributive = False
    below = {d: k for k, d in enumerate(down)}
    above = {u: k for k, u in enumerate(up)}
    for i in range(p.n):
        for j in range(i, p.n):
            if down[i] & down[j] not in below:
                raise NotALattice("meet", (p.elements[i], p.elements[j]))
            if up[i] & up[j] not in above:
                raise NotALattice("join", (p.elements[i], p.elements[j]))
            element_of.setdefault(jdown[i] | jdown[j], above[up[i] & up[j]])
    return shape


def _checked(lat: DistLattice) -> DistLattice:
    """lat itself, or NotDistributive with the witness triple."""
    _check_distributive(lat)
    return lat


@keyed(lambda lat: lat.shape)
def _check_distributive(lat: DistLattice) -> None:
    witness = distributivity_witness(lat)
    if witness is not None:
        raise NotDistributive(witness)


def distributivity_witness(lat: DistLattice) -> Optional[Tuple[str, str, str]]:
    """A triple (a, b, c) with a^(bvc) != (a^b)v(a^c), or None: the
    shape's verdict, and distributivity_witness_bruteforce's witness."""
    return None if lat.shape.distributive else distributivity_witness_bruteforce(lat)


def distributivity_witness_bruteforce(
    lat: DistLattice,
) -> Optional[Tuple[str, str, str]]:
    """The first triple failing the distributive law, by checking them all."""
    meet, join = lat.meet, lat.join
    for a in range(lat.n):
        for b in range(lat.n):
            for c in range(b, lat.n):
                if meet(a, join(b, c)) != join(meet(a, b), meet(a, c)):
                    e = lat.elements
                    return (e[a], e[b], e[c])
    return None


def is_distributive(lat: DistLattice) -> bool:
    return distributivity_witness(lat) is None


class LatticeHom(Value):
    """Bounded-lattice homomorphism; assignment maps source to target indices."""

    source: DistLattice
    target: DistLattice
    assignment: Tuple[int, ...]

    def __post_init__(self):
        assignment = shared(tuple(self.assignment))
        object.__setattr__(self, "assignment", assignment)
        _check_hom(self.source, self.target, assignment)

    def apply(self, name: str) -> str:
        return self.target.elements[self.assignment[self.source.index(name)]]


def hom_violation(
    src: DistLattice, tgt: DistLattice, assignment: Tuple[int, ...]
) -> Optional[str]:
    """First violated homomorphism equation, or None if assignment is a hom."""
    if len(assignment) != src.n:
        return "arity"
    f = assignment
    if f[src.bot] != tgt.bot:
        return f"bottom ({src.elements[src.bot]!r})"
    if f[src.top] != tgt.top:
        return f"top ({src.elements[src.top]!r})"
    meet, join, image_meet, image_join = src.meet, src.join, tgt.meet, tgt.join
    for a in range(src.n - 1):
        fa = f[a]
        for b in range(a + 1, src.n):
            if f[meet(a, b)] != image_meet(fa, f[b]):
                return f"meet at ({src.elements[a]!r}, {src.elements[b]!r})"
            if f[join(a, b)] != image_join(fa, f[b]):
                return f"join at ({src.elements[a]!r}, {src.elements[b]!r})"
    return None


@keyed(lambda src, tgt, assignment: (src.shape, tgt.shape, assignment))
def _check_hom(src: DistLattice, tgt: DistLattice, assignment: Tuple[int, ...]) -> None:
    bad = hom_violation(src, tgt, assignment)
    if bad is not None:
        raise InvalidValue(f"not a lattice homomorphism: fails {bad}")


def identity_hom(lat: DistLattice) -> LatticeHom:
    return LatticeHom(lat, lat, tuple(range(lat.n)))


def compose_homs(g: LatticeHom, f: LatticeHom) -> LatticeHom:
    if f.target != g.source:
        raise UniverseMismatch("hom composite endpoints do not match")
    return _unvalidated(
        LatticeHom,
        f.source,
        g.target,
        shared(tuple(g.assignment[a] for a in f.assignment)),
    )


def lattice_isomorphism(a: DistLattice, b: DistLattice) -> Optional[LatticeHom]:
    """A lattice isomorphism a -> b, or None.

    An order isomorphism of the carriers suffices: meets and joins are
    order-determined.
    """
    assign = isomorphism(a.poset.down, b.poset.down)
    return None if assign is None else LatticeHom(a, b, assign)


def lattice_isomorphic(a: DistLattice, b: DistLattice) -> bool:
    return lattice_isomorphism(a, b) is not None


# the two-element lattice 0 < 1
TWO = lattice_from_poset(make_poset(["0", "1"], [0b01, 0b11]))


# ---------------------------------------------------------------------------
# lattices of sets: downsets, ideals and (in spaces) opens


class SetLatticeView(Value):
    """Lattice of a family of subsets under inclusion; masks[i] is the
    subset that element i denotes."""

    lattice: DistLattice
    masks: Tuple[int, ...]

    @property
    def element_of(self) -> Dict[int, int]:
        """The element that denotes each subset, keyed by its mask."""
        return positions(self.masks)

    def indices_of(self, masks: Iterable[int]) -> Tuple[int, ...]:
        """The element that denotes each of the subsets, in order."""
        return indices_in(self.element_of, masks, "a subset of the lattice")


def inclusion_view(
    carrier: Sequence[str], masks: Sequence[int], names: Optional[Sequence[str]] = None
) -> SetLatticeView:
    """The subsets `masks` of `carrier`, ordered by inclusion, as a checked
    distributive lattice. Element k is named names[k], which must be
    distinct; by default, the subset's members by format_subset. The order
    is built and checked once per name-free family (_inclusion_lattice) and
    named per call."""
    if names is None:
        names = [format_subset(carrier, m) for m in masks]
    names = tuple(names)
    order, sets, down = _inclusion_lattice(tuple(masks), names)
    if len(set(names)) != len(names):
        raise InvalidValue("duplicate element names")
    # the stored order was checked when it was built
    poset = _unvalidated(FinPoset, tuple(names[i] for i in order), down)
    return SetLatticeView(DistLattice(poset), sets)


def _name_rank(names: Tuple[str, ...]) -> Tuple[int, ...]:
    """The positions of names in ascending name order (an argsort)."""
    return tuple(sorted(range(len(names)), key=names.__getitem__))


# make_poset reads the names only to break ties by comparing them, so the
# masks and the ranking of the names fix the element order and the down-sets
@keyed(lambda masks, names: (masks, _name_rank(names)))
def _inclusion_lattice(
    masks: Tuple[int, ...], names: Tuple[str, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """The family ordered by inclusion, once lattice_from_poset has passed
    it: the position in masks of each element, the mask of each, and the
    down-sets: all but the sets holding a point outside the mask."""
    holders = [0] * max(masks, default=0).bit_length()
    for j, m in enumerate(masks):
        for x in bits(m):
            holders[x] |= 1 << j
    outside, family = (1 << len(holders)) - 1, (1 << len(masks)) - 1
    down = [family & ~union_of(holders, outside & ~m) for m in masks]
    poset = lattice_from_poset(make_poset(names, down)).poset
    position = {name: i for i, name in enumerate(names)}
    order = tuple(position[e] for e in poset.elements)
    return order, tuple(masks[i] for i in order), poset.down


def downset_view(p: FinPoset) -> SetLatticeView:
    return inclusion_view(p.elements, up_sets(p.down))


def downset_lattice(p: FinPoset) -> DistLattice:
    """Lattice of down-closed subsets of p, ordered by inclusion."""
    return downset_view(p).lattice


def join_irreducibles(lat: DistLattice) -> FinPoset:
    """Subposet of join-irreducible elements; requires distributivity."""
    return _checked(lat).poset.restrict(lat.join_irreducible_mask)


# ---------------------------------------------------------------------------
# ideals


# the twins that visit all 2^n subsets grow about 4x per two more elements:
# way_below_bruteforce takes 0.24 s at 16 and 4.2 s at 20, and its subset
# join table holds 2^n entries, past 2 GB from 28 elements on
SUBSET_ORACLE_MAX_ELEMENTS = 22


def check_subset_budget(n: int, what: str) -> None:
    """Refuse a subset enumeration on more than SUBSET_ORACLE_MAX_ELEMENTS
    elements, n; `what` names the enumerated relation in the message."""
    if n > SUBSET_ORACLE_MAX_ELEMENTS:
        raise BudgetExceeded(
            f"{what} over all 2^{n} subsets exceeds the cap of "
            f"{SUBSET_ORACLE_MAX_ELEMENTS} elements"
        )


def ideals_bruteforce(lat: DistLattice) -> Tuple[int, ...]:
    """All ideal masks by definitional check over every subset, ascending."""
    check_subset_budget(lat.n, "ideals")
    down = lat.poset.down
    join = lat.join
    out = []
    for m in range(1, 1 << lat.n):
        ok = True
        for i in bits(m):
            if down[i] & ~m:
                ok = False
                break
        if not ok:
            continue
        members = list(bits(m))
        for x in range(len(members)):
            for y in range(x, len(members)):
                if not (m >> join(members[x], members[y])) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(m)
    return tuple(out)


def principal_masks(lat: DistLattice) -> Tuple[int, ...]:
    """Masks of the principal ideals, ascending; the fast ideal route."""
    return tuple(sorted(lat.poset.down))


@keyed(itself)
def ideal_view(lat: DistLattice) -> SetLatticeView:
    """Every ideal of a finite lattice is principal, so the ideals are the
    down-sets of the elements (ideals_bruteforce is the test oracle),
    ordered by inclusion. Ideal m is named down(a) after its generator a,
    the top bit of m."""
    masks = principal_masks(lat)
    names = [sys.intern(f"down({lat.elements[m.bit_length() - 1]})") for m in masks]
    return inclusion_view(lat.elements, masks, names)


def ideal_lattice(lat: DistLattice) -> DistLattice:
    """Lattice of all ideals ordered by inclusion."""
    return ideal_view(lat).lattice


def principal_embedding(lat: DistLattice) -> LatticeHom:
    """Monad unit as a hom: an element goes to its principal ideal."""
    view = ideal_view(lat)
    return LatticeHom(lat, view.lattice, view.indices_of(lat.poset.down))


def union_hom(lat: DistLattice) -> LatticeHom:
    """Monad multiplication as a hom from the double ideal lattice."""
    view = ideal_view(lat)
    double = ideal_view(view.lattice)
    unions = (union_of(view.masks, m) for m in double.masks)
    return LatticeHom(double.lattice, view.lattice, view.indices_of(unions))


def ideal_functor_hom(f: LatticeHom) -> LatticeHom:
    """Hom between ideal lattices: an ideal goes to everything below the
    image of one of its members."""
    src = ideal_view(f.source)
    tgt = ideal_view(f.target)
    assignment = _ideal_image_assignment(
        src.masks, f.target.poset.down, tuple(f.assignment), tgt.masks
    )
    return LatticeHom(src.lattice, tgt.lattice, assignment)


# keyed by the masks of both views, not by shapes: ideal_view orders the
# ideals by their names
@keyed(lambda *args: args)
def _ideal_image_assignment(
    src_masks: Tuple[int, ...],
    down: Tuple[int, ...],
    assignment: Tuple[int, ...],
    tgt_masks: Tuple[int, ...],
) -> Tuple[int, ...]:
    # the image of an ideal is the union of the down-sets of its members' images
    downs = [down[v] for v in assignment]
    images = (union_of(downs, m) for m in src_masks)
    return indices_in(positions(tgt_masks), images, "a subset of the lattice")


# ---------------------------------------------------------------------------
# prime filters and characters


def _prime_filter_violation(lat: DistLattice, mask: int) -> Optional[str]:
    if mask == 0:
        return "empty"
    if mask >> lat.n:
        return "members out of range"
    if (mask >> lat.bot) & 1:
        return "contains bottom"
    ups = lat.shape.up
    for i in bits(mask):
        if ups[i] & ~mask:
            return f"not up-closed at {lat.elements[i]!r}"
    # an up-set is meet-closed iff it holds the meet of all of it, and prime
    # iff its complement (a down-set holding bottom) holds its own join; the
    # pairwise searches only name the first failing pair
    if not (mask >> lat.meet_mask(mask)) & 1:
        for i in bits(mask):
            for j in bits(mask >> i << i):
                if not (mask >> lat.meet(i, j)) & 1:
                    return f"not meet-closed at ({lat.elements[i]!r}, {lat.elements[j]!r})"
    rest = ((1 << lat.n) - 1) & ~mask
    if (mask >> lat.join_mask(rest)) & 1:
        for a in range(lat.n):
            for b in range(a, lat.n):
                if (mask >> lat.join(a, b)) & 1 and not (
                    (mask >> a) & 1 or (mask >> b) & 1
                ):
                    return f"join ({lat.elements[a]!r}, {lat.elements[b]!r}) not prime"
    return None


def is_prime_filter_mask(lat: DistLattice, mask: int) -> bool:
    return _prime_filter_violation(lat, mask) is None


def prime_filters_bruteforce(lat: DistLattice) -> Tuple[int, ...]:
    """All prime filter masks by definitional check, ascending."""
    check_subset_budget(lat.n, "prime filters")
    return tuple(
        m for m in range(1 << lat.n) if is_prime_filter_mask(lat, m)
    )


@keyed(lambda lat: lat.shape)
def prime_filters(lat: DistLattice) -> Tuple[int, ...]:
    """The prime filter masks, ascending, via join-irreducibles.

    In a finite distributive lattice the prime filters are exactly the
    up-sets of join-irreducible elements; candidates are still checked
    against the definition, once per shape, rather than trusted.
    """
    ups = lat.shape.up
    candidates = sorted(ups[j] for j in bits(lat.join_irreducible_mask))
    for m in candidates:
        reason = _prime_filter_violation(lat, m)
        if reason is not None:
            raise NotDistributive((lat.subset_name(m), "irreducible up-set", reason))
    return tuple(candidates)


def homs_to_2(lat: DistLattice) -> Tuple[LatticeHom, ...]:
    """All homs into the two-element lattice, by ascending filter mask: the
    character of each prime filter."""
    return tuple(
        LatticeHom(lat, TWO, tuple((m >> i) & 1 for i in range(lat.n)))
        for m in prime_filters(lat)
    )


def homs_to_2_bruteforce(lat: DistLattice) -> Tuple[LatticeHom, ...]:
    """Characters by checking every 0/1 assignment against the hom equations."""
    out = []
    for m in range(1 << lat.n):
        assignment = tuple((m >> i) & 1 for i in range(lat.n))
        if hom_violation(lat, TWO, assignment) is None:
            out.append(LatticeHom(lat, TWO, assignment))
    return tuple(out)


def all_lattice_homs(src: DistLattice, tgt: DistLattice) -> Tuple[LatticeHom, ...]:
    """Every hom src -> tgt, by ascending assignment, through the Birkhoff
    dual: the homs are the monotone maps g: J(tgt) -> J(src), with h(a) the
    join of the q in J(tgt) with g(q) <= a. Requires both lattices
    distributive; raises BudgetExceeded as order.monotone_maps does."""
    js, jt = _checked(src).shape, _checked(tgt).shape
    homs = []
    duals = ([s.jdown[j] for j in s.irreducibles] for s in (jt, js))
    for g in monotone_maps(*duals):
        below = (mask_of(q for q, p in enumerate(g) if m >> p & 1) for m in js.jdown)
        homs.append(tuple(jt.element_of[m] for m in below))
    return tuple(LatticeHom(src, tgt, a) for a in sorted(homs))
