"""Frame-theoretic structure on finite distributive lattices.

Covers the way-below relation (read off the order, since on a finite
lattice the two coincide; twin: way_below_bruteforce, over every subset),
stable compactness, pseudocomplements and regularity, the Boolean center
as the regular coreflection, the prime spectrum, and the ideal comonad
with its canonical coalgebra. Finite degeneracies (way-below collapsing
to the order, every ideal being principal) are theorems the degeneracy
suite and the tests prove by running the definitional routes over their
pools.

Ideals and prime filters are masks here as in dlat: the points of the
spectrum are the checked masks of dlat.prime_filters, and
comultiplication_hom maps the ideal masks of dlat.ideal_view, so neither
checks a mask again. SpectrumView is the one record of a space of
filters, the spectrum's and F X's: a filter lies below the filters that
contain it, and the up-sets of that preorder are the basic opens. The
preorder and basic opens of a space of filters and the point assignment
of spectrum_map are computed once per distinct name-free input
(memo.keyed): filter masks for the one, the shapes of both lattices
and the hom's assignment for the other. The names of each call's own
lattices and spaces are attached afterwards.
"""

import sys
from typing import Dict, Iterable, Optional, Tuple

from .bitsets import bits, indices_in, mask_of, positions, union_of
from .dlat import (
    SUBSET_ORACLE_MAX_ELEMENTS,
    DistLattice,
    LatticeHom,
    check_subset_budget,
    ideal_functor_hom,
    ideal_view,
    inclusion_view,
    lattice_from_poset,
    prime_filters,
    principal_embedding,
)
from .memo import itself, keyed
from .order import Value, _unvalidated
from .spaces import ContinuousMap, FinSpace, open_frame_view


# ---------------------------------------------------------------------------
# way-below and stable compactness

# bounds way_below_bruteforce, which visits all 2^n subsets. way_below
# visits none but keeps the cap: it stays the budget of `stonekit waybelow`
# and of the suites that compute way-below on every pool lattice
# (instances.WAY_BELOW_SUITES)
WAY_BELOW_MAX_ELEMENTS = SUBSET_ORACLE_MAX_ELEMENTS


class WayBelowRelation(Value):
    """below[b] is the bitmask of elements way below element b."""

    home: DistLattice
    below: Tuple[int, ...]

    def holds(self, a: str, b: str) -> bool:
        return bool((self.below[self.home.index(b)] >> self.home.index(a)) & 1)

    def pairs(self) -> Tuple[Tuple[str, str], ...]:
        e = self.home.elements
        return tuple(
            (e[a], e[b])
            for b in range(self.home.n)
            for a in bits(self.below[b])
        )


def way_below(lat: DistLattice) -> WayBelowRelation:
    """a way below b: every set joining above b has a finite subset
    already joining above a. On a finite lattice every set is its own
    finite subset, so a is way below b exactly when a <= b (Gierz et al.,
    Continuous Lattices and Domains, I-1) and the relation is the order's
    down-sets. way_below_bruteforce is the definitional route, and the
    degeneracy suite proves the two equal on its pool. Lattices above
    WAY_BELOW_MAX_ELEMENTS raise BudgetExceeded as that route does."""
    check_subset_budget(lat.n, "way-below")
    return WayBelowRelation(lat, lat.poset.down)


def _join_table(lat: DistLattice) -> list:
    """Join of every subset, built by dynamic programming over masks."""
    table = [lat.bot] * (1 << lat.n)
    for m in range(1, 1 << lat.n):
        low = m & -m
        table[m] = lat.join(table[m ^ low], low.bit_length() - 1)
    return table


def way_below_bruteforce(lat: DistLattice) -> WayBelowRelation:
    """way_below from its definition, quantifying over all subsets, so
    lattices above WAY_BELOW_MAX_ELEMENTS raise BudgetExceeded."""
    check_subset_budget(lat.n, "way-below")
    joins = _join_table(lat)
    n = lat.n
    below = [(1 << n) - 1] * n
    for s in range(1 << n):
        j = joins[s]
        # a subset of s joins above a iff a <= join(s): joins of subsets
        # only shrink, so down[join(s)] is exactly the covered set
        covered = lat.poset.down[j]
        for b in bits(covered):
            below[b] &= covered
    return WayBelowRelation(lat, tuple(below))


def is_compact(lat: DistLattice) -> bool:
    """Top way below itself."""
    wb = way_below(lat)
    return bool((wb.below[lat.top] >> lat.top) & 1)


class StablyCompactReport(Value):
    compact: bool
    sublattice: bool
    approximating: bool
    witness: Optional[tuple]

    @property
    def ok(self) -> bool:
        return self.compact and self.sublattice and self.approximating


def stably_compact_report(lat: DistLattice) -> StablyCompactReport:
    """Compactness, way-below a sublattice of the square, approximation;
    meets and joins on J-masks, so the lattice must be distributive."""
    wb = way_below(lat)
    compact = is_compact(lat)
    e, below = lat.elements, wb.below
    shape = lattice_from_poset(lat.poset).shape
    jdown, element_of = shape.jdown, shape.element_of

    sub_witness = None
    pairs = [(a, b) for b in range(lat.n) for a in bits(below[b])]
    for a, b in pairs:
        ja, jb = jdown[a], jdown[b]
        for a2, b2 in pairs:
            ja2, jb2 = jdown[a2], jdown[b2]
            m_ok = (below[element_of[jb & jb2]] >> element_of[ja & ja2]) & 1
            j_ok = (below[element_of[jb | jb2]] >> element_of[ja | ja2]) & 1
            if not (m_ok and j_ok):
                sub_witness = ((e[a], e[b]), (e[a2], e[b2]))
                break
        if sub_witness:
            break

    approx_witness = None
    for b in range(lat.n):
        if lat.join_mask(below[b]) != b:
            approx_witness = e[b]
            break

    witness = sub_witness or approx_witness
    if not compact and witness is None:
        witness = "top not way below itself"
    return StablyCompactReport(
        compact, sub_witness is None, approx_witness is None, witness
    )


def is_stably_compact(lat: DistLattice) -> bool:
    return stably_compact_report(lat).ok


# ---------------------------------------------------------------------------
# pseudocomplement, regularity, Boolean center


def pseudocomplement(lat: DistLattice, a: int) -> int:
    """Largest element meeting a at bottom (no J below both; indices)."""
    jdown = lat.shape.jdown
    return lat.join_mask(mask_of(x for x, m in enumerate(jdown) if not m & jdown[a]))


def well_inside_masks(lat: DistLattice) -> Tuple[int, ...]:
    """inside[b] = mask of a with pseudocomplement(a) join b = top."""
    join, top = lat.join, lat.top
    pseudo = [pseudocomplement(lat, a) for a in range(lat.n)]
    return tuple(
        mask_of(a for a in range(lat.n) if join(pseudo[a], b) == top)
        for b in range(lat.n)
    )


def is_regular(lat: DistLattice) -> bool:
    """Every element is the join of the elements well inside it."""
    inside = well_inside_masks(lat)
    return all(lat.join_mask(inside[b]) == b for b in range(lat.n))


def complemented_mask(lat: DistLattice) -> int:
    """Elements a with some c: a^c=bot and avc=top. In the down-sets of J,
    those whose rest of J is a down-set too, c's: the unions of connected
    components of J (Davey and Priestley, ch. 5). Requires distributivity;
    the pairwise search is the tests' twin."""
    # the checked lattice of lat's order holds lat's shape
    shape = lattice_from_poset(lat.poset).shape
    full = (1 << len(shape.irreducibles)) - 1
    return mask_of(a for a, m in enumerate(shape.jdown) if full ^ m in shape.element_of)


def is_boolean(lat: DistLattice) -> bool:
    """Every element is complemented."""
    return complemented_mask(lat) == (1 << lat.n) - 1


class CenterView(Value):
    """Boolean center of a lattice with its inclusion hom."""

    lattice: DistLattice
    inclusion: LatticeHom


@keyed(itself)
def center_view(lat: DistLattice) -> CenterView:
    """Sublattice of complemented elements (the regular coreflection)."""
    cmask = complemented_mask(lat)
    if cmask == (1 << lat.n) - 1:
        # a Boolean lattice is its own center: meets and joins of the
        # complemented elements cannot leave the full mask
        identity = _unvalidated(LatticeHom, lat, lat, tuple(range(lat.n)))
        return CenterView(lat, identity)
    # the principal down-sets of the complemented elements, ordered by
    # inclusion, are the center with its induced order
    kept = list(bits(cmask))
    center = inclusion_view(
        lat.elements,
        [lat.poset.down[a] for a in kept],
        [lat.elements[a] for a in kept],
    ).lattice
    inclusion = LatticeHom(
        center, lat, tuple(lat.index(e) for e in center.elements)
    )
    return CenterView(center, inclusion)


def center_lattice(lat: DistLattice) -> DistLattice:
    return center_view(lat).lattice


def corestrict_to_center(hom: LatticeHom) -> Optional[LatticeHom]:
    """Factor a hom through the target's center if its image lies there."""
    view = center_view(hom.target)
    # the center index of each complemented element of the target
    position = {v: i for i, v in enumerate(view.inclusion.assignment)}
    if any(v not in position for v in hom.assignment):
        return None
    return LatticeHom(
        hom.source, view.lattice, tuple(position[v] for v in hom.assignment)
    )


# ---------------------------------------------------------------------------
# spectrum


@keyed(lambda *args: args)
def _filter_opens(
    n: int, filters: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The specialization preorder of a space of filters on n elements,
    filter k below filter l when k is a subset of l, and sigma."""
    up = tuple(mask_of(l for l, m in enumerate(filters) if not k & ~m) for k in filters)
    sigma = tuple(
        mask_of(k for k, m in enumerate(filters) if (m >> a) & 1) for a in range(n)
    )
    return up, sigma


class SpectrumView(Value):
    """A space of prime filters: the prime spectrum of a lattice, or F X.

    Point k of the space is the k-th prime filter (ascending member mask)
    on the carrier: the elements of the lattice, or the opens of X named
    as sets. sigma[a] is the point-set of the basic open for carrier
    element a (for F X, the star of the a-th open of X).
    """

    space: FinSpace
    filters: Tuple[int, ...]
    sigma: Tuple[int, ...]
    carrier: Tuple[str, ...]

    @property
    def point_of(self) -> Dict[int, int]:
        """The point of each prime filter, keyed by its member mask."""
        return positions(self.filters)

    def indices_of(self, filters: Iterable[int]) -> Tuple[int, ...]:
        """The point of each of the prime filters, in order."""
        return indices_in(self.point_of, filters, "a prime filter", self.carrier)


def filter_space_of(carrier: Tuple[str, ...], filters: Tuple[int, ...]) -> SpectrumView:
    """Filters on `carrier` (member masks) as the points of a space, each
    named up(j) after its generator j, its lowest member in carrier order.
    sigma[a], the basic open of carrier element a, is the point-set of the
    filters that contain a. The space has the topology the basic opens
    generate: the up-sets of inclusion, its specialization preorder. For
    prime filters and neighbourhood filters these are exactly the basic
    opens; for other families they may be more, and nothing is refused."""
    names = tuple(
        sys.intern(f"up({carrier[(m & -m).bit_length() - 1]})") for m in filters
    )
    up, sigma = _filter_opens(len(carrier), filters)
    return SpectrumView(FinSpace(names, up), filters, sigma, carrier)


@keyed(itself)
def spectrum_view(lat: DistLattice) -> SpectrumView:
    return filter_space_of(lat.elements, prime_filters(lat))


def spectrum(lat: DistLattice) -> FinSpace:
    """Space of prime filters with the basic opens as topology."""
    return spectrum_view(lat).space


def spectrum_map(h: LatticeHom) -> ContinuousMap:
    """Continuous map of spectra induced by a lattice morphism, reversing it.

    A prime filter of the morphism's target pulls back to one of its source.
    """
    src = spectrum_view(h.target)
    tgt = spectrum_view(h.source)
    return ContinuousMap(
        src.space, tgt.space, _spectrum_assignment(h, src.filters, tgt.point_of)
    )


# the filters of both spectra are fixed by the shapes, so the hom's
# shapes and assignment determine the point assignment
@keyed(lambda h, filters, point_of: (
    h.source.shape, h.target.shape, tuple(h.assignment)
))
def _spectrum_assignment(
    h: LatticeHom, filters: Tuple[int, ...], point_of: Dict[int, int]
) -> Tuple[int, ...]:
    """The point of the pull-back through h of each target filter."""
    # preimages[v] is the set of source elements sent to target element v
    preimages = [0] * h.target.n
    for a, v in enumerate(h.assignment):
        preimages[v] |= 1 << a
    pulled = (union_of(preimages, fm) for fm in filters)
    return indices_in(point_of, pulled, "a prime filter", h.source.elements)


def spatiality_hom(lat: DistLattice) -> LatticeHom:
    """The comparison a -> sigma_a into the spectrum's open-set lattice.

    At this scale it is an isomorphism for every distributive lattice;
    the tests assert bijectivity rather than assuming it.
    """
    view = spectrum_view(lat)
    frame = open_frame_view(view.space)
    return LatticeHom(lat, frame.lattice, frame.indices_of(view.sigma))


def is_spatial(lat: DistLattice) -> bool:
    h = spatiality_hom(lat)
    return sorted(h.assignment) == list(range(h.target.n))


# ---------------------------------------------------------------------------
# the ideal comonad


def _comultiplication_mask(masks: Tuple[int, ...], ideal: int) -> int:
    """c(I) as a mask over the ideals `masks`: those whose join lands in I.
    Each ideal is the down-set of its join, which the linear-extension
    order puts at the mask's highest bit."""
    return mask_of(
        k for k, m in enumerate(masks) if (ideal >> (m.bit_length() - 1)) & 1
    )


def comultiplication_hom(lat: DistLattice) -> LatticeHom:
    """c as a hom from the ideal lattice to the double ideal lattice."""
    view = ideal_view(lat)
    double = ideal_view(view.lattice)
    assignment = double.indices_of(
        _comultiplication_mask(view.masks, m) for m in view.masks
    )
    return LatticeHom(view.lattice, double.lattice, assignment)


def comultiplication_via_functor(lat: DistLattice) -> LatticeHom:
    """The same map as the ideal functor applied to the unit embedding."""
    return ideal_functor_hom(principal_embedding(lat))


def counit_hom(lat: DistLattice) -> LatticeHom:
    """Counit: an ideal goes to its join (the frame-join algebra of the
    ideal monad)."""
    view = ideal_view(lat)
    return LatticeHom(view.lattice, lat, tuple(lat.join_mask(m) for m in view.masks))


def gamma_coalgebra(lat: DistLattice) -> LatticeHom:
    """Canonical coalgebra structure of the ideal comonad: an element goes
    to the ideal way below it. The coalgebra laws are checked as the
    algebra laws of the locale ideal monad (instances)."""
    wb = way_below(lat)
    view = ideal_view(lat)
    return LatticeHom(lat, view.lattice, view.indices_of(wb.below))
