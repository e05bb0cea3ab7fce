"""The open-prime-filter monad on finite spaces, and its companions.

F X is the space of prime filters of open sets, topologized by the basic
opens O* = {filters containing O}. The unit sends a point to its
neighborhood filter, the multiplication drops one filter level:
mu(BigF) = {O | O* in BigF}. At finite scale F X is homeomorphic to the
sobrification of the T0 quotient, the canonical algebra exists exactly on
T0 spaces, and the Hausdorff reflection through clopen classes closes the
compactification square. All of that is checked by the tests, not assumed.

A filter of opens is a mask over x.opens. The points of F X, a
frame.SpectrumView, are the neighbourhood filters of the minimal opens
U_x, the up-masks FinSpace.up; one filter lies below another when it is
a subset of it. The prime filters of the open frame are the same masks
(R. E. Stong, 1966): the twin in tests/test_topspace.py, and the
independent side of the pairing, ultrafilter and sobrification laws.
SpectrumView.indices_of refuses any other mask. The T0, Hausdorff and
ultrafilter spaces are built from their preorders as well. The algebras
of the monad are checked by catengine.check_algebra (instances).
"""

from typing import Optional, Tuple

from .bitsets import bits, format_subset, indices_in, mask_of, positions
from .dlat import LatticeHom, ideal_view
from .errors import InvariantViolated, NoCanonicalAlgebra
from .frame import SpectrumView, center_view, filter_space_of, spectrum_view
from .memo import itself, keyed
from .order import Value
from .spaces import (
    ContinuousMap,
    FinSpace,
    clopen_masks,
    homeomorphic,
    is_homeomorphism,
    open_frame_view,
    preimage_mask,
)


@keyed(itself)
def filter_space_view(x: FinSpace) -> SpectrumView:
    """F X: the distinct neighbourhood filters as masks over x.opens, and
    sigma[i] the star opens[i]* of each open. A prime filter of the open
    frame is the up-set of a join-irreducible open U_x, the opens around x:
    that route, the twin and the independent side of the pairing,
    ultrafilter and sobrification rows, gives the same masks."""
    filters = tuple(sorted(set(_neighborhood_filters(x))))
    return filter_space_of(tuple(x.set_name(o) for o in x.opens), filters)


def filter_space(x: FinSpace) -> FinSpace:
    return filter_space_view(x).space


def _neighborhood_filters(x: FinSpace) -> Tuple[int, ...]:
    """The opens around each point as a mask over x.opens, once per U_x."""
    around = {
        u: mask_of(p for p, o in enumerate(x.opens) if u & ~o == 0)
        for u in set(x.up)
    }
    return tuple(around[u] for u in x.up)


def neighborhood_filter(x: FinSpace, point: str) -> int:
    """The opens around the point, as a mask over x.opens."""
    return _neighborhood_filters(x)[x.index(point)]


def unit_map(x: FinSpace) -> ContinuousMap:
    """eta: a point goes to its neighborhood filter, which indices_of finds
    among the points of F X or reports as an invariant violation."""
    view = filter_space_view(x)
    return ContinuousMap(x, view.space, view.indices_of(_neighborhood_filters(x)))


def filter_map(f: ContinuousMap) -> ContinuousMap:
    """F f: push a filter forward through preimages."""
    src = filter_space_view(f.source)
    tgt = filter_space_view(f.target)
    # the position among the source's opens of each target open's preimage
    preimages = indices_in(
        positions(f.source.opens),
        (preimage_mask(f.assignment, o) for o in f.target.opens),
        "open",
        f.source.points,
    )
    pushed = (
        mask_of(j for j, k in enumerate(preimages) if (members >> k) & 1)
        for members in src.filters
    )
    return ContinuousMap(src.space, tgt.space, tgt.indices_of(pushed))


def mult_map(x: FinSpace) -> ContinuousMap:
    """mu: FF X -> F X keeps the opens whose stars belong to the big filter."""
    fx = filter_space_view(x)
    ffx = filter_space_view(fx.space)
    # the position of each star among the opens of F X
    stars = indices_in(positions(fx.space.opens), fx.sigma, "open", fx.space.points)
    dropped = (
        mask_of(i for i, k in enumerate(stars) if (big >> k) & 1) for big in ffx.filters
    )
    return ContinuousMap(ffx.space, fx.space, fx.indices_of(dropped))


# ---------------------------------------------------------------------------
# canonical algebras


def canonical_algebra(x: FinSpace) -> ContinuousMap:
    """Inverse of the unit; exists exactly when the space is T0."""
    eta = unit_map(x)
    seen = {}
    for i, k in enumerate(eta.assignment):
        if k in seen:
            raise NoCanonicalAlgebra((x.points[seen[k]], x.points[i]))
        seen[k] = i
    fx = eta.target
    if len(seen) != fx.n:
        raise InvariantViolated("unit of a finite space must be onto")
    assignment = tuple(seen[k] for k in range(fx.n))
    return ContinuousMap(fx, x, assignment)


# ---------------------------------------------------------------------------
# separation quotients


def _partition_by(x: FinSpace, key) -> Tuple[Tuple[int, ...], ...]:
    """Classes of points under an equivalence key, ordered by least member."""
    groups = {}
    for i in range(x.n):
        groups.setdefault(key(i), []).append(i)
    # a class enters the dict at its least member, so in that order
    return tuple(tuple(group) for group in groups.values())


def _quotient(x: FinSpace, classes, up) -> Tuple[FinSpace, ContinuousMap]:
    names = tuple(format_subset(x.points, mask_of(c)) for c in classes)
    space = FinSpace(names, tuple(up))
    cls_of = {i: pos for pos, c in enumerate(classes) for i in c}
    q = ContinuousMap(x, space, tuple(cls_of[i] for i in range(x.n)))
    return space, q


def t0_quotient(x: FinSpace) -> Tuple[FinSpace, ContinuousMap]:
    """Identify points with the same U_x; a class lies below the classes
    inside the U_x of its points."""
    classes = _partition_by(x, lambda i: x.up[i])
    up = (
        mask_of(k for k, d in enumerate(classes) if x.up[c[0]] >> d[0] & 1)
        for c in classes
    )
    return _quotient(x, classes, up)


def hausdorff_reflection(x: FinSpace) -> Tuple[FinSpace, ContinuousMap]:
    """Quotient by the partition the clopen sets generate, made discrete."""
    clopens = clopen_masks(x)
    classes = _partition_by(x, lambda i: tuple(c >> i & 1 for c in clopens))
    return _quotient(x, classes, (1 << k for k in range(len(classes))))


def sobrification(x: FinSpace) -> Tuple[FinSpace, ContinuousMap]:
    """Spectrum of the open-set frame, with the point-character unit."""
    frame = open_frame_view(x)
    sview = spectrum_view(frame.lattice)
    characters = (
        mask_of(p for p, m in enumerate(frame.masks) if (m >> i) & 1)
        for i in range(x.n)
    )
    unit = ContinuousMap(x, sview.space, sview.indices_of(characters))
    return sview.space, unit


def is_sober(x: FinSpace) -> bool:
    """The sobrification unit is a homeomorphism."""
    _, unit = sobrification(x)
    return is_homeomorphism(unit)


# ---------------------------------------------------------------------------
# pairing with the ideal lattice of the open-set frame


def pairing_map(x: FinSpace) -> ContinuousMap:
    """Canonical comparison from F X to the spectrum of ideals of opens.

    A filter goes to the character testing whether an ideal of opens meets
    it. The tests check this is a homeomorphism and commutes with both
    monad structures.
    """
    fx = filter_space_view(x)
    frame = open_frame_view(x)
    ideals = ideal_view(frame.lattice)
    sview = spectrum_view(ideals.lattice)
    # the element of the open frame that each open of X is
    element = frame.indices_of(x.opens)
    touched = []
    for members in fx.filters:
        frame_mask = mask_of(element[k] for k in bits(members))
        touched.append(mask_of(e for e, m in enumerate(ideals.masks) if m & frame_mask))
    return ContinuousMap(fx.space, sview.space, sview.indices_of(touched))


def open_frame_of_filters_iso(x: FinSpace) -> LatticeHom:
    """Frame iso from opens of F X to ideals of opens of X: W -> {O | O* <= W}."""
    fx = filter_space_view(x)
    frame_x = open_frame_view(x)
    frame_fx = open_frame_view(fx.space)
    ideals = ideal_view(frame_x.lattice)
    # the element of the open frame that each open of X is; fx.sigma holds
    # the star of each
    element = frame_x.indices_of(x.opens)
    members = (
        mask_of(element[k] for k, star in enumerate(fx.sigma) if star & ~w == 0)
        for w in frame_fx.masks
    )
    return LatticeHom(frame_fx.lattice, ideals.lattice, ideals.indices_of(members))


# ---------------------------------------------------------------------------
# compactification square and ultrafilters


class CompactificationReport(Value):
    spectral_side: FinSpace
    reflection_side: FinSpace
    comparison: Optional[ContinuousMap]

    @property
    def ok(self) -> bool:
        return self.comparison is not None and is_homeomorphism(self.comparison)


def compactification_square(x: FinSpace) -> CompactificationReport:
    """Spectrum of the Boolean center of opens of F X, against the
    Hausdorff reflection of F X, compared by clopen characters."""
    fx = filter_space(x)
    frame = open_frame_view(fx)
    center = center_view(frame.lattice)
    sview = spectrum_view(center.lattice)
    reflection, proj = hausdorff_reflection(fx)

    center_masks = tuple(
        frame.masks[center.inclusion.assignment[e]]
        for e in range(center.lattice.n)
    )
    assignment = []
    for pos in range(reflection.n):
        rep = proj.assignment.index(pos)
        character = mask_of(
            e for e, m in enumerate(center_masks) if (m >> rep) & 1
        )
        point = sview.point_of.get(character)
        if point is None:
            return CompactificationReport(sview.space, reflection, None)
        assignment.append(point)
    comparison = ContinuousMap(reflection, sview.space, tuple(assignment))
    return CompactificationReport(sview.space, reflection, comparison)


def _ultrafilter_violation(chosen: set, n: int) -> Optional[str]:
    """The first ultrafilter axiom a family of subsets of n points fails."""
    full = (1 << n) - 1
    if 0 in chosen:
        return "proper"
    for a in chosen:
        for b in range(1 << n):
            if a & ~b == 0 and b not in chosen:
                return "up-closed"
        for b in chosen:
            if (a & b) not in chosen:
                return "meet-closed"
    for a in range(1 << n):
        if (a in chosen) == ((full & ~a) in chosen):
            return "maximal"
    return None


def _principal_filter(s: int, n: int) -> set:
    """The filter of every subset of n points that contains s."""
    return {a for a in range(1 << n) if s & ~a == 0}


def _ultrafilter_search(n: int) -> Tuple[int, ...]:
    """The nonempty subsets s of n points whose filter of supersets passes
    the ultrafilter axioms. Every filter on a finite set is principal, so
    this finds every ultrafilter."""
    return tuple(
        s
        for s in range(1, 1 << n)
        if _ultrafilter_violation(_principal_filter(s, n), n) is None
    )


def ultrafilter_space(x: FinSpace) -> FinSpace:
    """Space of ultrafilters on the underlying set, opens generated by the
    images of opens. The ultrafilters are searched for among all filters,
    and must be exactly the principal filters of the points."""
    found = _ultrafilter_search(x.n)
    if found != tuple(1 << i for i in range(x.n)):
        raise InvariantViolated(
            "ultrafilters are generated by "
            f"{[x.set_name(s) for s in found]}, not by the points"
        )
    return FinSpace(tuple(x.points[s.bit_length() - 1] for s in found), x.up)


def ultrafilter_comparison(x: FinSpace) -> bool:
    """F X is the sobrification of the T0 quotient of the ultrafilter space."""
    ux = ultrafilter_space(x)
    quotient, _ = t0_quotient(ux)
    sober, _ = sobrification(quotient)
    return homeomorphic(filter_space(x), sober)
