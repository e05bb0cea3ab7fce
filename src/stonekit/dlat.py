"""Finite bounded distributive lattices, ideals, prime filters, Birkhoff duality.

Conventions:
  - carrier elements sit in the canonical order of the underlying FinPoset,
    so subsets of a lattice are int bitmasks;
  - an ideal is a nonempty, down-closed, join-closed subset;
  - a filter here is always proper (it never contains bottom).

Fast routes exploit finiteness and the canonical element order; each has a
definitional twin that the tests use as its oracle:
  - DistLattice looks each meet and join up among the down-sets and
    up-sets of its order (down(a ^ b) = down(a) & down(b), up(a v b) =
    up(a) & up(b)); twin: a search over all common bounds, in the tests;
  - distributivity_witness tests Birkhoff's criterion (every
    join-irreducible is join-prime); twin: distributivity_witness_bruteforce;
  - ideal_view lists the principal ideals (principal_masks); twin:
    ideals_bruteforce, over every subset;
  - is_ideal_mask and is_prime_filter_mask test closure under joins and
    meets by one aggregate join or meet; twin: ideals_bruteforce and the
    characters of homs_to_2_bruteforce;
  - prime_filters takes the up-sets of join-irreducibles; twins:
    prime_filters_bruteforce and homs_to_2_bruteforce.
The twins that visit every subset (ideals_bruteforce,
prime_filters_bruteforce and frame.way_below_bruteforce) share one guard,
check_subset_budget: past SUBSET_ORACLE_MAX_ELEMENTS elements they raise
BudgetExceeded before visiting any subset.

A lattice is its order. DistLattice(p) is the unchecked lattice: it
derives the meet and join tables of p, or raises NotALattice, and checks
nothing about distributivity. lattice_from_poset(p) is the checked one.
The tables are derived, never given, and once per order: _order_tables
stores them under the down-sets, so every lattice with the same order
shares one pair of tables. inclusion_view is the one builder of derived
lattices (lattices of sets, ideal lattices, open frames).

Memo contract (see memo.name_free): the tables of an order, the hom,
ideal and distributivity checks, the prime-filter masks, the assignments
of ideal_functor_hom and the orders of inclusion_view run once per
distinct name-free value. A lattice's `shape` is an int shared by exactly
the lattices with equal down-sets, whatever their names: the down-sets fix
the tables, bottom and top. The results are stored under keys built from
down-sets, shapes and masks, and the names are attached per call.
inclusion_view's key is (masks, the argsort of the names): the names only
break ties in make_poset, so their ranking fixes the element order, and a
hit shares the stored down-sets under the caller's names (the
duplicate-name check runs on every call). Only passing verdicts are
stored, so a failure is checked again each time and its message names the
caller's own elements. The PrimeFilter check is not memoised:
prime_filters builds its filters from checked masks, so only
character_filter runs it.
"""

from functools import cached_property
from itertools import count, product
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .bitsets import bits, format_subset, index_in, mask_of
from .errors import (
    BudgetExceeded,
    ForeignIdeal,
    InvalidValue,
    NotALattice,
    NotDistributive,
    UniverseMismatch,
)
from .memo import cached, name_free
from .order import FinPoset, Value, _unvalidated, make_poset, poset_isomorphism


class DistLattice(Value):
    """Bounded lattice on its FinPoset carrier, the only field; the meet and
    join tables and the shape are attributes that __post_init__ reads off
    _order_tables."""

    poset: FinPoset

    # the canonical linear extension puts bottom first and top last
    bot = 0

    def __post_init__(self):
        meet, join, shape = _order_tables(self.poset)
        self.__dict__.update(meet=meet, join=join, shape=shape)

    @property
    def elements(self) -> Tuple[str, ...]:
        return self.poset.elements

    @cached_property
    def n(self) -> int:
        return self.poset.n

    @cached_property
    def top(self) -> int:
        return self.n - 1

    def index(self, name: str) -> int:
        return self.poset.index(name)

    def leq_index(self, i: int, j: int) -> bool:
        return self.poset.leq_index(i, j)

    def join_mask(self, mask: int) -> int:
        """Join of a subset given as a bitmask; empty mask yields bottom."""
        out = self.bot
        for i in bits(mask):
            out = self.join[out][i]
        return out

    def meet_mask(self, mask: int) -> int:
        out = self.top
        for i in bits(mask):
            out = self.meet[out][i]
        return out

    def subset_name(self, mask: int) -> str:
        return format_subset(self.elements, mask)

    @cached_property
    def join_irreducible_mask(self) -> int:
        """Bitmask of the elements that are not bottom and not the join of
        the elements strictly below them (exactly one lower cover); built once."""
        return mask_of(
            j
            for j in range(self.n)
            if j != self.bot and self.join_mask(self.poset.down[j] ^ (1 << j)) != j
        )


def lattice_from_poset(p: FinPoset) -> DistLattice:
    """The poset as a checked distributive lattice: NotALattice when some
    pair lacks a meet or join, NotDistributive with a witness triple."""
    return _checked(DistLattice(p))


# shape ids are never reused, so a lattice that outlives clear_caches
# cannot share an id with a different one built afterwards
_SHAPE_IDS = count()


@name_free(lambda p: p.down)
def _order_tables(p: FinPoset):
    """The meet and join tables of p and its shape id, or NotALattice.

    In a lattice, down(a ^ b) = down(a) & down(b) and up(a v b) = up(a) &
    up(b), so each meet and join is one lookup of a mask among the
    down-sets or up-sets; a pair whose mask is missing has no meet or join.
    The pair loop runs only then, to name the first failing pair."""
    down, up = p.down, p.up_masks
    if not down:
        raise InvalidValue("the lattice has no elements")
    below = {d: k for k, d in enumerate(down)}
    above = {u: k for k, u in enumerate(up)}
    try:
        meet = tuple(tuple(below[a & b] for b in down) for a in down)
        join = tuple(tuple(above[a & b] for b in up) for a in up)
    except KeyError:
        for i in range(p.n):
            for j in range(i, p.n):
                if down[i] & down[j] not in below:
                    raise NotALattice("meet", (p.elements[i], p.elements[j]))
                if up[i] & up[j] not in above:
                    raise NotALattice("join", (p.elements[i], p.elements[j]))
        raise
    return meet, join, next(_SHAPE_IDS)


def _checked(lat: DistLattice) -> DistLattice:
    """lat itself, or NotDistributive with the witness triple."""
    _check_distributive(lat)
    return lat


@name_free(lambda lat: lat.shape)
def _check_distributive(lat: DistLattice) -> None:
    witness = distributivity_witness(lat)
    if witness is not None:
        raise NotDistributive(witness)


def distributivity_witness(lat: DistLattice) -> Optional[Tuple[str, str, str]]:
    """A triple (a, b, c) with a^(bvc) != (a^b)v(a^c), or None.

    Birkhoff: a finite lattice is distributive iff every join-irreducible
    is join-prime, i.e. no join-irreducible lies below a v b without lying
    below a or b. The triple loop runs only when that test fails, so the
    witness is the one distributivity_witness_bruteforce finds.
    """
    down, join = lat.poset.down, lat.join
    irr = lat.join_irreducible_mask
    for a in range(lat.n):
        join_a, down_a = join[a], down[a]
        for b in range(a + 1, lat.n):
            if down[join_a[b]] & irr & ~(down_a | down[b]):
                return distributivity_witness_bruteforce(lat)
    return None


def distributivity_witness_bruteforce(
    lat: DistLattice,
) -> Optional[Tuple[str, str, str]]:
    """The first triple failing the distributive law, by checking them all."""
    meet, join = lat.meet, lat.join
    for a in range(lat.n):
        for b in range(lat.n):
            for c in range(b, lat.n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
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
        _check_hom(self.source, self.target, tuple(self.assignment))

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
    n, tgt_meet, tgt_join = src.n, tgt.meet, tgt.join
    for a in range(n - 1):
        meet_a, join_a = src.meet[a], src.join[a]
        image_meet, image_join = tgt_meet[f[a]], tgt_join[f[a]]
        for b in range(a + 1, n):
            if f[meet_a[b]] != image_meet[f[b]]:
                return f"meet at ({src.elements[a]!r}, {src.elements[b]!r})"
            if f[join_a[b]] != image_join[f[b]]:
                return f"join at ({src.elements[a]!r}, {src.elements[b]!r})"
    return None


@name_free(lambda src, tgt, assignment: (src.shape, tgt.shape, assignment))
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
        LatticeHom, f.source, g.target, tuple(g.assignment[a] for a in f.assignment)
    )


def lattice_isomorphism(a: DistLattice, b: DistLattice) -> Optional[LatticeHom]:
    """A lattice isomorphism a -> b, or None.

    An order isomorphism of the carriers suffices: meets and joins are
    order-determined.
    """
    assign = poset_isomorphism(a.poset, b.poset)
    return None if assign is None else LatticeHom(a, b, assign)


def lattice_isomorphic(a: DistLattice, b: DistLattice) -> bool:
    return lattice_isomorphism(a, b) is not None


@cached
def two_lattice() -> DistLattice:
    """The two-element lattice 0 < 1."""
    return lattice_from_poset(make_poset(["0", "1"], [0b01, 0b11]))


# ---------------------------------------------------------------------------
# lattices of sets: downsets, ideals and (in spaces) opens


class SetLatticeView(Value):
    """Lattice of a family of subsets under inclusion; masks[i] is the
    subset that element i denotes."""

    lattice: DistLattice
    masks: Tuple[int, ...]

    @cached_property
    def element_of(self) -> Dict[int, int]:
        """The element that denotes each subset, keyed by its mask."""
        return {m: i for i, m in enumerate(self.masks)}

    def index_of(self, mask: int) -> int:
        return index_in(self.element_of, mask, "a subset of the lattice")


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
@name_free(lambda masks, names: (masks, _name_rank(names)))
def _inclusion_lattice(
    masks: Tuple[int, ...], names: Tuple[str, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """The family ordered by inclusion, once lattice_from_poset has passed
    it: the position in masks of each element, the mask of each, and the
    down-sets."""
    down = [mask_of(j for j, mj in enumerate(masks) if mj & ~mi == 0) for mi in masks]
    poset = lattice_from_poset(make_poset(names, down)).poset
    position = {name: i for i, name in enumerate(names)}
    order = tuple(position[e] for e in poset.elements)
    return order, tuple(masks[i] for i in order), poset.down


def _downclosed_masks(down: Tuple[int, ...]) -> list:
    n = len(down)
    out = []
    for m in range(1 << n):
        if all(down[i] & ~m == 0 for i in bits(m)):
            out.append(m)
    return out


@cached
def downset_view(p: FinPoset) -> SetLatticeView:
    return inclusion_view(p.elements, _downclosed_masks(p.down))


def downset_lattice(p: FinPoset) -> DistLattice:
    """Lattice of down-closed subsets of p, ordered by inclusion."""
    return downset_view(p).lattice


def join_irreducibles(lat: DistLattice) -> FinPoset:
    """Subposet of join-irreducible elements; requires distributivity."""
    return _checked(lat).poset.restrict(lat.join_irreducible_mask)


# ---------------------------------------------------------------------------
# ideals


class Ideal(Value):
    """Nonempty down-closed join-closed subset of its home lattice."""

    home: DistLattice
    members: int

    def __post_init__(self):
        _check_ideal(self.home, self.members)

    @property
    def name(self) -> str:
        return self.home.subset_name(self.members)


@name_free(lambda lat, mask: (lat.shape, mask))
def _check_ideal(lat: DistLattice, mask: int) -> None:
    reason = _ideal_violation(lat, mask)
    if reason is not None:
        raise InvalidValue(f"not an ideal: {reason}")


def _ideal_violation(lat: DistLattice, mask: int) -> Optional[str]:
    if mask == 0:
        return "empty"
    if mask >> lat.n:
        return "members out of range"
    for i in bits(mask):
        if lat.poset.down[i] & ~mask:
            return f"not down-closed at {lat.elements[i]!r}"
    # a nonempty down-set is join-closed iff it holds the join of all of it;
    # the pairwise search only names the first failing pair
    if not (mask >> lat.join_mask(mask)) & 1:
        for i in bits(mask):
            for j in bits(mask >> i << i):
                if not (mask >> lat.join[i][j]) & 1:
                    return (
                        f"not join-closed at ({lat.elements[i]!r}, {lat.elements[j]!r})"
                    )
    return None


def is_ideal_mask(lat: DistLattice, mask: int) -> bool:
    return _ideal_violation(lat, mask) is None


# the twins that visit all 2^n subsets grow about 4x per two more elements:
# way_below_bruteforce takes 0.24 s at 16 and 4.2 s at 20, and its subset
# join table holds 2^n entries, past 2 GB from 28 elements on
SUBSET_ORACLE_MAX_ELEMENTS = 22


def check_subset_budget(lat: DistLattice, what: str) -> None:
    """Refuse a subset enumeration on more than SUBSET_ORACLE_MAX_ELEMENTS
    elements; `what` names the enumerated relation in the message."""
    if lat.n > SUBSET_ORACLE_MAX_ELEMENTS:
        raise BudgetExceeded(
            f"{what} over all 2^{lat.n} subsets exceeds the cap of "
            f"{SUBSET_ORACLE_MAX_ELEMENTS} elements"
        )


def ideals_bruteforce(lat: DistLattice) -> Tuple[int, ...]:
    """All ideal masks by definitional check over every subset, ascending."""
    check_subset_budget(lat, "ideals")
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
                if not (m >> join[members[x]][members[y]]) & 1:
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


def principal_ideal(lat: DistLattice, name: str) -> Ideal:
    """The ideal of everything below the named element (the monad unit)."""
    return Ideal(lat, lat.poset.down[lat.index(name)])


def _check_home(lat: DistLattice, ideal: Ideal) -> None:
    if ideal.home != lat:
        raise ForeignIdeal(
            f"ideal {ideal.name} lives in a different lattice"
        )


def _join_closure(lat: DistLattice, mask: int) -> int:
    grown = True
    while grown:
        grown = False
        members = list(bits(mask))
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                j = lat.join[members[x]][members[y]]
                if not (mask >> j) & 1:
                    mask |= 1 << j
                    grown = True
    return mask


def ideal_join(lat: DistLattice, family: Iterable[Ideal]) -> Ideal:
    """Join of a nonempty family of ideals: union closed under finite joins."""
    masks = []
    for ideal in family:
        _check_home(lat, ideal)
        masks.append(ideal.members)
    if not masks:
        raise ValueError("ideal join of an empty family is undefined")
    union = 0
    for m in masks:
        union |= m
    return Ideal(lat, _join_closure(lat, union))


def ideal_image(f: LatticeHom, ideal: Ideal) -> Ideal:
    """Functor action on ideals: everything under the image of a member."""
    _check_home(f.source, ideal)
    out = 0
    for a in bits(ideal.members):
        out |= f.target.poset.down[f.assignment[a]]
    return Ideal(f.target, out)


@cached
def ideal_view(lat: DistLattice) -> SetLatticeView:
    """Every ideal of a finite lattice is principal, so the ideals are the
    down-sets of the elements (ideals_bruteforce is the test oracle),
    ordered by inclusion. Ideal m is named down(a) after its generator a,
    the top bit of m."""
    masks = principal_masks(lat)
    names = [f"down({lat.elements[m.bit_length() - 1]})" for m in masks]
    return inclusion_view(lat.elements, masks, names)


def ideal_lattice(lat: DistLattice) -> DistLattice:
    """Lattice of all ideals ordered by inclusion."""
    return ideal_view(lat).lattice


def ideal_union(lat: DistLattice, big: Ideal) -> Ideal:
    """Monad multiplication: union of an ideal of ideals of lat."""
    view = ideal_view(lat)
    _check_home(view.lattice, big)
    out = 0
    for i in bits(big.members):
        out |= view.masks[i]
    return Ideal(lat, out)


def principal_embedding(lat: DistLattice) -> LatticeHom:
    """Monad unit as a hom: an element goes to its principal ideal."""
    view = ideal_view(lat)
    return LatticeHom(
        lat,
        view.lattice,
        tuple(view.index_of(lat.poset.down[i]) for i in range(lat.n)),
    )


def union_hom(lat: DistLattice) -> LatticeHom:
    """Monad multiplication as a hom from the double ideal lattice."""
    view = ideal_view(lat)
    double = ideal_view(view.lattice)
    assignment = []
    for m in double.masks:
        u = 0
        for i in bits(m):
            u |= view.masks[i]
        assignment.append(view.index_of(u))
    return LatticeHom(double.lattice, view.lattice, tuple(assignment))


def ideal_functor_hom(f: LatticeHom) -> LatticeHom:
    """Hom between ideal lattices induced elementwise by ideal_image."""
    src = ideal_view(f.source)
    tgt = ideal_view(f.target)
    assignment = _ideal_image_assignment(
        src.masks, f.target.poset.down, tuple(f.assignment), tgt.masks
    )
    return LatticeHom(src.lattice, tgt.lattice, assignment)


# keyed by the masks of both views, not by shapes: ideal_view orders the
# ideals by their names
@name_free(lambda *args: args)
def _ideal_image_assignment(
    src_masks: Tuple[int, ...],
    down: Tuple[int, ...],
    assignment: Tuple[int, ...],
    tgt_masks: Tuple[int, ...],
) -> Tuple[int, ...]:
    index = {m: i for i, m in enumerate(tgt_masks)}
    out = []
    for m in src_masks:
        image = 0
        for a in bits(m):
            image |= down[assignment[a]]
        out.append(index[image])
    return tuple(out)


def frame_join_algebra(lat: DistLattice) -> LatticeHom:
    """Structure map sending each ideal to its join."""
    view = ideal_view(lat)
    return LatticeHom(
        view.lattice,
        lat,
        tuple(lat.join_mask(m) for m in view.masks),
    )


# ---------------------------------------------------------------------------
# prime filters and characters


class PrimeFilter(Value):
    """Proper, up-closed, meet-closed subset with prime joins."""

    home: DistLattice
    members: int

    def __post_init__(self):
        reason = _prime_filter_violation(self.home, self.members)
        if reason is not None:
            raise InvalidValue(f"not a prime filter: {reason}")

    @property
    def name(self) -> str:
        return self.home.subset_name(self.members)


def _prime_filter_violation(lat: DistLattice, mask: int) -> Optional[str]:
    if mask == 0:
        return "empty"
    if mask >> lat.n:
        return "members out of range"
    if (mask >> lat.bot) & 1:
        return "contains bottom"
    ups = lat.poset.up_masks
    for i in bits(mask):
        if ups[i] & ~mask:
            return f"not up-closed at {lat.elements[i]!r}"
    # an up-set is meet-closed iff it holds the meet of all of it, and prime
    # iff its complement (a down-set holding bottom) holds its own join; the
    # pairwise searches only name the first failing pair
    if not (mask >> lat.meet_mask(mask)) & 1:
        for i in bits(mask):
            for j in bits(mask >> i << i):
                if not (mask >> lat.meet[i][j]) & 1:
                    return f"not meet-closed at ({lat.elements[i]!r}, {lat.elements[j]!r})"
    rest = ((1 << lat.n) - 1) & ~mask
    if (mask >> lat.join_mask(rest)) & 1:
        for a in range(lat.n):
            for b in range(a, lat.n):
                if (mask >> lat.join[a][b]) & 1 and not (
                    (mask >> a) & 1 or (mask >> b) & 1
                ):
                    return f"join ({lat.elements[a]!r}, {lat.elements[b]!r}) not prime"
    return None


def is_prime_filter_mask(lat: DistLattice, mask: int) -> bool:
    return _prime_filter_violation(lat, mask) is None


def prime_filters_bruteforce(lat: DistLattice) -> Tuple[int, ...]:
    """All prime filter masks by definitional check, ascending."""
    check_subset_budget(lat, "prime filters")
    return tuple(
        m for m in range(1 << lat.n) if is_prime_filter_mask(lat, m)
    )


@cached
def prime_filters(lat: DistLattice) -> Tuple[PrimeFilter, ...]:
    """Prime filters via join-irreducibles, each verified definitionally.

    In a finite distributive lattice the prime filters are exactly the
    up-sets of join-irreducible elements; candidates are still checked
    against the definition, once per shape, rather than trusted.
    """
    return tuple(_unvalidated(PrimeFilter, lat, m) for m in _prime_filter_masks(lat))


@name_free(lambda lat: lat.shape)
def _prime_filter_masks(lat: DistLattice) -> Tuple[int, ...]:
    ups = lat.poset.up_masks
    candidates = sorted(ups[j] for j in bits(lat.join_irreducible_mask))
    out = []
    for m in candidates:
        reason = _prime_filter_violation(lat, m)
        if reason is not None:
            raise NotDistributive((lat.subset_name(m), "irreducible up-set", reason))
        out.append(m)
    return tuple(out)


def filter_character(f: PrimeFilter) -> LatticeHom:
    """Characteristic hom to the two-element lattice."""
    two = two_lattice()
    return LatticeHom(
        f.home,
        two,
        tuple(1 if (f.members >> i) & 1 else 0 for i in range(f.home.n)),
    )


def character_filter(h: LatticeHom) -> PrimeFilter:
    """Prime filter of everything a character sends to 1."""
    if h.target != two_lattice():
        raise UniverseMismatch("character must land in the two-element lattice")
    return PrimeFilter(h.source, mask_of(i for i, v in enumerate(h.assignment) if v))


def homs_to_2(lat: DistLattice) -> Tuple[LatticeHom, ...]:
    """All homs into the two-element lattice, by ascending filter mask."""
    return tuple(filter_character(f) for f in prime_filters(lat))


def homs_to_2_bruteforce(lat: DistLattice) -> Tuple[LatticeHom, ...]:
    """Characters by checking every 0/1 assignment against the hom equations."""
    two = two_lattice()
    out = []
    for m in range(1 << lat.n):
        assignment = tuple((m >> i) & 1 for i in range(lat.n))
        if hom_violation(lat, two, assignment) is None:
            out.append(LatticeHom(lat, two, assignment))
    return tuple(out)


def all_lattice_homs(
    src: DistLattice, tgt: DistLattice, limit: int = 500_000
) -> Tuple[LatticeHom, ...]:
    """Every hom src -> tgt, enumerated through join-irreducible images.

    A hom is determined by where irreducibles go; each candidate tuple is
    expanded to a full assignment and validated. Requires src distributive.
    """
    irr = list(bits(_checked(src).join_irreducible_mask))
    total = tgt.n ** len(irr)
    if total > limit:
        raise BudgetExceeded(
            f"{total} irreducible assignments exceed the limit {limit}"
        )
    seen = set()
    for images in product(range(tgt.n), repeat=len(irr)):
        assignment = []
        for x in range(src.n):
            m = mask_of(images[k] for k, j in enumerate(irr) if (src.poset.down[x] >> j) & 1)
            assignment.append(tgt.join_mask(m))
        assignment = tuple(assignment)
        # distinct image tuples can induce the same hom; deduplicate
        if assignment not in seen and hom_violation(src, tgt, assignment) is None:
            seen.add(assignment)
    return tuple(LatticeHom(src, tgt, a) for a in sorted(seen))
