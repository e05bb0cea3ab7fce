"""The main instances: finite spaces, finite locales, and the lifting.

The pointwise constructions elsewhere in the package are packaged here as
functors, monads and adjunctions over three universes: finite spaces with
continuous maps, finite distributive lattices with lattice maps (frames),
and the same lattices read as locales, where a morphism from L to M is a
lattice map from M to L and composition reads backwards.

The central chain: the ideal construction carries a monad structure on
locales whose unit is the join map and whose multiplication is the
comultiplication read backwards; the open-set functor is left adjoint to
the spectrum; lifting the locale monad across that adjunction gives a
monad on spaces; and the pairing homeomorphism identifies the lifted
monad with the open-prime-filter monad exactly. Composing with the
Boolean-center monad lifts the compact reflection the same way.

The law suites at the bottom rerun these claims by enumeration over pools
of spaces, lattices and maps, one row per checked instance; `LAW_SUITES`
is the registry the command line runs and `run_suite` builds the pools.
"""

import random
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .catengine import (
    AdjunctionInstance,
    AlgebraInstance,
    FunctorInstance,
    NatTransInstance,
    Universe,
    check_adjunction,
    check_algebra,
    check_algebra_morphism,
    check_comonad_laws,
    check_functor_laws,
    check_lift_law,
    check_monad_laws,
    check_monad_morphism,
    check_naturality,
    comparison_algebra,
    compose_functors,
    identity_functor,
    inverse_comparison,
    lift_composite_iso,
    lift_monad,
    lift_monad_morphism,
    make_comonad,
    make_monad,
    opposite,
    opposite_monad,
)
from .dlat import (
    DistLattice,
    LatticeHom,
    all_lattice_homs,
    compose_homs,
    hom_violation,
    ideal_functor_hom,
    ideal_lattice,
    ideals_bruteforce,
    identity_hom,
    principal_embedding,
    principal_masks,
    prime_filters,
    prime_filters_bruteforce,
    union_hom,
)
from .errors import BudgetExceeded, InvariantViolated
from .frame import (
    WAY_BELOW_MAX_ELEMENTS,
    center_lattice,
    center_view,
    comultiplication_hom,
    comultiplication_via_functor,
    corestrict_to_center,
    counit_hom,
    gamma_coalgebra,
    is_boolean,
    is_regular,
    is_spatial,
    is_stably_compact,
    spatiality_hom,
    spectrum,
    spectrum_map,
    way_below_bruteforce,
)
from .memo import cached
from .order import preorder_closure, up_sets
from .spaces import (
    ContinuousMap,
    FinSpace,
    compose_maps,
    homeomorphic,
    identity_map,
    is_homeomorphism,
    is_t0,
    open_preimage_hom,
    open_set_frame,
)
from .topspace import (
    canonical_algebra,
    compactification_square,
    filter_map,
    filter_space,
    hausdorff_reflection,
    is_sober,
    mult_map,
    open_frame_of_filters_iso,
    pairing_map,
    sobrification,
    ultrafilter_comparison,
    ultrafilter_space,
    unit_map,
)
from .universes import (
    MAX_POINTS,
    all_continuous_maps,
    all_spaces_upto,
    lattice_universe,
)


def _space_label(x) -> str:
    if isinstance(x, FinSpace):
        return "space[" + " ".join(x.points) + "]"
    return repr(x)


def _lattice_label(lat) -> str:
    if isinstance(lat, DistLattice):
        return "lattice[" + " ".join(lat.elements) + "]"
    return repr(lat)


def _invert_map(f: ContinuousMap):
    if not is_homeomorphism(f):
        return None
    back = [0] * f.target.n
    for i, k in enumerate(f.assignment):
        back[k] = i
    return ContinuousMap(f.target, f.source, tuple(back))


def _invert_hom(h: LatticeHom):
    if sorted(h.assignment) != list(range(h.target.n)):
        return None
    back = [0] * h.target.n
    for i, k in enumerate(h.assignment):
        back[k] = i
    return LatticeHom(h.target, h.source, tuple(back))


# the universes are built once: the category engine composes functors only
# over the same universe object
SPACE_UNIVERSE = Universe(
    "finite spaces",
    identity_map,
    compose_maps,
    lambda f: f.source,
    lambda f: f.target,
    _invert_map,
    _space_label,
)

FRAME_UNIVERSE = Universe(
    "finite frames",
    identity_hom,
    compose_homs,
    lambda h: h.source,
    lambda h: h.target,
    _invert_hom,
    _lattice_label,
)

LOCALE_UNIVERSE = opposite(FRAME_UNIVERSE, "finite locales")


# ---------------------------------------------------------------------------
# morphism pools for the enumerating checks


@cached
def frame_morphisms(max_poset: int = 2) -> Tuple[LatticeHom, ...]:
    """Every lattice map between universe lattices of the given size."""
    lats = lattice_universe(max_poset)
    out = []
    for a in lats:
        for b in lats:
            out.extend(all_lattice_homs(a, b))
    return tuple(out)


@cached
def space_morphisms(max_points: int = 2) -> Tuple[ContinuousMap, ...]:
    """Every continuous map between spaces of the given size."""
    spaces = all_spaces_upto(max_points)
    out = []
    for x in spaces:
        for y in spaces:
            out.extend(all_continuous_maps(x, y))
    return tuple(out)


# ---------------------------------------------------------------------------
# the instances, each built once


IDEAL_FUNCTOR_ON_FRAMES = FunctorInstance(
    "ideals", FRAME_UNIVERSE, FRAME_UNIVERSE, ideal_lattice, ideal_functor_hom
)

# ideals with the principal-ideal unit and the union multiplication
IDEAL_MONAD_ON_FRAMES = make_monad(
    "ideal monad", IDEAL_FUNCTOR_ON_FRAMES, principal_embedding, union_hom
)

# ideals with the join counit and the membership comultiplication
IDEAL_COMONAD_ON_FRAMES = make_comonad(
    "ideal comonad", IDEAL_FUNCTOR_ON_FRAMES, counit_hom, comultiplication_hom
)

# the comonad read backwards: unit is the join map, multiplication the
# comultiplication; its algebras are the coalgebras of the comonad
IDEAL_MONAD_ON_LOCALES = opposite_monad(
    IDEAL_COMONAD_ON_FRAMES, LOCALE_UNIVERSE, "locale ideal monad"
)

IDENTITY_MONAD_ON_LOCALES = make_monad(
    "locale identity monad",
    identity_functor(LOCALE_UNIVERSE),
    identity_hom,
    identity_hom,
)

OPEN_FUNCTOR = FunctorInstance(
    "open sets", SPACE_UNIVERSE, LOCALE_UNIVERSE, open_set_frame, open_preimage_hom
)

SPECTRUM_FUNCTOR = FunctorInstance(
    "spectrum", LOCALE_UNIVERSE, SPACE_UNIVERSE, spectrum, spectrum_map
)


def _sobrification_unit(x: FinSpace) -> ContinuousMap:
    return sobrification(x)[1]


# open sets below spectrum, with the sobrification unit and the spatial
# comparison counit
OPEN_SPECTRUM_ADJUNCTION = AdjunctionInstance(
    "open sets below spectrum",
    OPEN_FUNCTOR,
    SPECTRUM_FUNCTOR,
    NatTransInstance(
        "sobrification unit",
        identity_functor(SPACE_UNIVERSE),
        compose_functors(SPECTRUM_FUNCTOR, OPEN_FUNCTOR),
        _sobrification_unit,
    ),
    NatTransInstance(
        "spatial comparison",
        compose_functors(OPEN_FUNCTOR, SPECTRUM_FUNCTOR),
        identity_functor(LOCALE_UNIVERSE),
        spatiality_hom,
    ),
)

FILTER_MONAD_ON_SPACES = make_monad(
    "filter monad",
    FunctorInstance(
        "prime open filters", SPACE_UNIVERSE, SPACE_UNIVERSE, filter_space, filter_map
    ),
    unit_map,
    mult_map,
)

# the locale ideal monad pushed across the adjunction: the spectrum of the
# ideals of the opens
LIFTED_IDEAL_MONAD = lift_monad(
    OPEN_SPECTRUM_ADJUNCTION, IDEAL_MONAD_ON_LOCALES, "spectral ideal monad"
)

# the lifted identity monad; its functor is the sobrification
SOBRIFICATION_MONAD = lift_monad(
    OPEN_SPECTRUM_ADJUNCTION, IDENTITY_MONAD_ON_LOCALES, "sobrification monad"
)

# the lifted join unit, a morphism of monads from sobrification to the
# spectral ideal monad
SOBRIFICATION_TO_FILTERS = lift_monad_morphism(
    OPEN_SPECTRUM_ADJUNCTION,
    IDEAL_MONAD_ON_LOCALES.unit,
    SOBRIFICATION_MONAD,
    LIFTED_IDEAL_MONAD,
)


def _into_center(hom: LatticeHom, fact: str) -> LatticeHom:
    """`hom` corestricted to its target's center, which `fact` promises."""
    cor = corestrict_to_center(hom)
    if cor is None:
        raise InvariantViolated(f"image outside the center: {fact}")
    return cor


def _center_on_morphism(h: LatticeHom) -> LatticeHom:
    restricted = compose_homs(h, center_view(h.source).inclusion)
    return _into_center(restricted, "lattice maps preserve complements")


def _center_unit(lat: DistLattice) -> LatticeHom:
    return center_view(lat).inclusion


def _center_mult(lat: DistLattice) -> LatticeHom:
    return _into_center(identity_hom(center_lattice(lat)), "a center is its own center")


CENTER_FUNCTOR_ON_LOCALES = FunctorInstance(
    "center", LOCALE_UNIVERSE, LOCALE_UNIVERSE, center_lattice, _center_on_morphism
)

# the Boolean center as a monad on locales; its unit is the inclusion read
# backwards
CENTER_MONAD_ON_LOCALES = make_monad(
    "center monad", CENTER_FUNCTOR_ON_LOCALES, _center_unit, _center_mult
)

# the lifted center monad: the spectrum of the Boolean center of the opens
LIFTED_CENTER_MONAD = lift_monad(
    OPEN_SPECTRUM_ADJUNCTION, CENTER_MONAD_ON_LOCALES, "spectral center monad"
)


def _center_ideal_unit(lat: DistLattice) -> LatticeHom:
    inclusion = center_view(ideal_lattice(lat)).inclusion
    return compose_homs(counit_hom(lat), inclusion)


def _center_ideal_mult(lat: DistLattice) -> LatticeHom:
    return _into_center(
        principal_embedding(center_lattice(ideal_lattice(lat))),
        "principal ideals of complemented elements are complemented",
    )


# complemented ideals in one step: the composite of the center and ideal
# monads, with the join-of-the-inclusion unit and the principal
# multiplication
CENTER_IDEAL_MONAD_ON_LOCALES = make_monad(
    "complemented ideal monad",
    compose_functors(CENTER_FUNCTOR_ON_LOCALES, IDEAL_MONAD_ON_LOCALES.functor),
    _center_ideal_unit,
    _center_ideal_mult,
)

# the lifted complemented-ideal monad: the spectrum of the Boolean center of
# the ideals of the opens
COMPACT_REFLECTION_MONAD = lift_monad(
    OPEN_SPECTRUM_ADJUNCTION, CENTER_IDEAL_MONAD_ON_LOCALES, "compact reflection monad"
)

# collapse of lift(center) after lift(ideals) onto the lifted composite
COMPACTIFICATION_COLLAPSE = lift_composite_iso(
    OPEN_SPECTRUM_ADJUNCTION,
    CENTER_FUNCTOR_ON_LOCALES,
    IDEAL_MONAD_ON_LOCALES.functor,
)


# ---------------------------------------------------------------------------
# pools: every space and lattice up to a size bound, ids naming each instance

MAX_LATTICE = 16
DEFAULT_SEED = 271828
SAMPLES_PER_SIZE = 20

# suites that compute way-below on every pool lattice (degeneracy by its
# definitional route, the others off the order); the way-below cap stays
# their budget, and --force raises the pool guard rails, not that cap
WAY_BELOW_SUITES = ("comonad-k", "degeneracy", "lifting")

Row = Tuple[str, str, bool, object]


def _space_pool(max_points: int, seed: int, force: bool) -> Tuple[FinSpace, ...]:
    if max_points > MAX_POINTS and not force:
        raise BudgetExceeded(
            f"--max-points {max_points} exceeds the guard rail {MAX_POINTS}; "
            "pass --force to sample anyway"
        )
    pool = list(all_spaces_upto(min(max_points, 4)))
    for size in range(5, max_points + 1):
        pool.extend(_sampled_spaces(size, seed))
    return tuple(pool)


def _sampled_spaces(size: int, seed: int) -> List[FinSpace]:
    """Seeded sample of topologies on `size` points, via random preorders."""
    rng = random.Random(seed * 1_000_003 + size)
    names = tuple(chr(ord("p") + i) for i in range(size))
    seen = set()
    out: List[FinSpace] = []
    while len(out) < SAMPLES_PER_SIZE:
        up = [1 << i for i in range(size)]
        for i in range(size):
            for j in range(size):
                if i != j and rng.random() < 0.3:
                    up[i] |= 1 << j
        opens = up_sets(preorder_closure(up))
        if opens in seen:
            continue
        seen.add(opens)
        out.append(FinSpace(names, opens))
    return out


def _lattice_pool(max_lattice: int, force: bool) -> Tuple[DistLattice, ...]:
    if max_lattice > MAX_LATTICE and not force:
        raise BudgetExceeded(
            f"--max-lattice {max_lattice} exceeds the guard rail {MAX_LATTICE}; "
            "pass --force to raise it"
        )
    bound = 4 if max_lattice <= MAX_LATTICE else 5
    return tuple(l for l in lattice_universe(bound) if l.n <= max_lattice)


def _space_ids(spaces) -> List[str]:
    total = len(spaces)
    return [
        f"space {i + 1}/{total} ({x.n} points, {len(x.opens)} opens)"
        for i, x in enumerate(spaces)
    ]


def _lattice_ids(lats) -> List[str]:
    total = len(lats)
    return [
        f"lattice {i + 1}/{total} ({l.n} elements)" for i, l in enumerate(lats)
    ]


def _numbered(kind: str, items) -> List[str]:
    total = len(items)
    return [f"{kind} {i + 1}/{total}" for i in range(total)]


# ---------------------------------------------------------------------------
# algebras and coalgebras, and their round trips through the comparison
# functors. A coalgebra of the ideal comonad is an algebra of the locale
# ideal monad, so check_algebra checks both kinds.


def _holds(checks) -> bool:
    return all(c.ok for c in checks)


def coalgebra_structures(
    lat: DistLattice, limit: int = 2_000_000
) -> Tuple[LatticeHom, ...]:
    """Every coalgebra structure on `lat`, found by exhausting all maps to
    the ideal lattice: each assignment that is a hom is checked as an
    algebra of the locale ideal monad."""
    ideals = ideal_lattice(lat)
    total = ideals.n ** lat.n
    if total > limit:
        raise BudgetExceeded(f"{total} candidate maps exceed the limit {limit}")
    out = []
    for assignment in product(range(ideals.n), repeat=lat.n):
        if hom_violation(lat, ideals, assignment) is not None:
            continue
        gamma = LatticeHom(lat, ideals, assignment)
        if _holds(check_algebra(AlgebraInstance(IDEAL_MONAD_ON_LOCALES, lat, gamma))):
            out.append(gamma)
    return tuple(out)


def is_proper_hom(hom: LatticeHom) -> bool:
    """Properness: `hom`, read as a locale morphism from its target to its
    source, is a morphism between their gamma coalgebras."""
    t = IDEAL_MONAD_ON_LOCALES
    src, tgt = hom.source, hom.target
    return check_algebra_morphism(
        AlgebraInstance(t, tgt, gamma_coalgebra(tgt)),
        AlgebraInstance(t, src, gamma_coalgebra(src)),
        hom,
    )


def filter_algebra_structures(
    x: FinSpace, limit: int = 500_000
) -> Tuple[ContinuousMap, ...]:
    """Every algebra structure of the filter monad on `x`, by exhausting
    the continuous maps F X -> X."""
    t = FILTER_MONAD_ON_SPACES
    return tuple(
        alpha
        for alpha in all_continuous_maps(t.functor.on_object(x), x, limit)
        if _holds(check_algebra(AlgebraInstance(t, x, alpha)))
    )


def locale_round_trip(lat: DistLattice) -> bool:
    """Downset coalgebra of `lat`, read as an algebra of the locale ideal
    monad, to a lifted-monad algebra and back: every algebra on the way
    satisfies its laws and the counit is an invertible algebra morphism."""
    adj = OPEN_SPECTRUM_ADJUNCTION
    t = IDEAL_MONAD_ON_LOCALES
    m = LIFTED_IDEAL_MONAD
    t_alg = AlgebraInstance(t, lat, gamma_coalgebra(lat))
    m_alg = comparison_algebra(adj, t, m, t_alg)
    back = inverse_comparison(adj, t, m_alg)
    eps = adj.counit.component(lat)
    return (
        all(_holds(check_algebra(alg)) for alg in (t_alg, m_alg, back))
        and _invert_hom(eps) is not None
        and check_algebra_morphism(back, t_alg, eps)
    )


def space_round_trip(x: FinSpace) -> Optional[AlgebraInstance]:
    """Canonical algebra of a T0 space `x`, carried to a lifted-monad
    algebra, to a locale algebra and back again.

    Returns the algebra reached again when the first two satisfy their
    laws and the unit is an invertible algebra morphism onto it, else
    None. The laws of the returned algebra are left to the caller."""
    adj = OPEN_SPECTRUM_ADJUNCTION
    t = IDEAL_MONAD_ON_LOCALES
    m = LIFTED_IDEAL_MONAD
    alpha = compose_maps(canonical_algebra(x), _invert_map(pairing_map(x)))
    m_alg = AlgebraInstance(m, x, alpha)
    ok = _holds(check_algebra(m_alg))
    t_alg = inverse_comparison(adj, t, m_alg)
    ok = ok and _holds(check_algebra(t_alg))
    again = comparison_algebra(adj, t, m, t_alg)
    eta = adj.unit.component(x)
    ok = (
        ok
        and _invert_map(eta) is not None
        and check_algebra_morphism(m_alg, again, eta)
    )
    return again if ok else None


# ---------------------------------------------------------------------------
# law suites: each yields one row (instance id, law id, ok, witness) per
# checked instance


def _identity_row(iid, law_id, functor: FunctorInstance, obj) -> Row:
    identity, _ = check_functor_laws(functor, [obj], ())
    return iid, law_id, identity.ok, identity.witness


def _monad_rows(prefix, monad, objects, ids) -> Iterator[Row]:
    for iid, x in zip(ids, objects):
        yield _identity_row(iid, f"{prefix}.functor-identity", monad.functor, x)
        laws = check_monad_laws(monad, [x])
        for law_name, check in zip(
            ("left-unit", "right-unit", "associativity"), laws
        ):
            yield iid, f"{prefix}.{law_name}", check.ok, check.witness


def _naturality_rows(prefix, pairs, morphisms, ids) -> Iterator[Row]:
    for iid, f in zip(ids, morphisms):
        for nt, law_name in pairs:
            check = check_naturality(nt, [f])
            yield iid, f"{prefix}.{law_name}", check.ok, check.witness


def _composition_row(prefix, functor, morphisms) -> Row:
    _, comp = check_functor_laws(functor, (), morphisms)
    return (
        "all composable pairs",
        f"{prefix}.functor-composition",
        comp.ok,
        comp.witness,
    )


def _full_monad_rows(prefix, monad, objects, ids, morphisms, morphism_ids):
    """Functor and monad laws per object, naturality of unit and
    multiplication per morphism, functor composition over the morphisms."""
    yield from _monad_rows(prefix, monad, objects, ids)
    yield from _naturality_rows(
        prefix,
        ((monad.unit, "unit-naturality"), (monad.mult, "mult-naturality")),
        morphisms,
        morphism_ids,
    )
    yield _composition_row(prefix, monad.functor, morphisms)


def _suite_monad_f(spaces, lats, maps, homs) -> Iterator[Row]:
    ids, map_ids = _space_ids(spaces), _numbered("map", maps)
    yield from _full_monad_rows(
        "monad-f", FILTER_MONAD_ON_SPACES, spaces, ids, maps, map_ids
    )
    for iid, x in zip(ids, spaces):
        # the canonical algebra exists exactly when the unit is injective
        has_algebra = len(set(unit_map(x).assignment)) == x.n
        yield iid, "monad-f.algebra-iff-t0", has_algebra == is_t0(x), None


def _suite_monad_i(spaces, lats, maps, homs) -> Iterator[Row]:
    ids, hom_ids = _lattice_ids(lats), _numbered("hom", homs)
    yield from _full_monad_rows(
        "monad-i", IDEAL_MONAD_ON_FRAMES, lats, ids, homs, hom_ids
    )
    yield from _full_monad_rows(
        "monad-i.locale", IDEAL_MONAD_ON_LOCALES, lats, ids, homs, hom_ids
    )


def _suite_comonad_k(spaces, lats, maps, homs) -> Iterator[Row]:
    k = IDEAL_COMONAD_ON_FRAMES
    for iid, lat in zip(_lattice_ids(lats), lats):
        laws = check_comonad_laws(k, [lat])
        for law_name, check in zip(
            ("left-counit", "right-counit", "coassociativity"), laws
        ):
            yield iid, f"comonad-k.{law_name}", check.ok, check.witness
        two_routes = comultiplication_hom(lat) == comultiplication_via_functor(lat)
        yield iid, "comonad-k.comult-two-routes", two_routes, None
        # the coalgebra laws as algebra laws on locales, each witnessed by
        # the name the comonad gives it
        unit, assoc = check_algebra(
            AlgebraInstance(IDEAL_MONAD_ON_LOCALES, lat, gamma_coalgebra(lat))
        )
        witness = None if assoc.ok else "comultiplication law"
        witness = witness if unit.ok else "counit law"
        yield iid, "comonad-k.downset-coalgebra", unit.ok and assoc.ok, witness
    yield from _naturality_rows(
        "comonad-k",
        ((k.counit, "counit-naturality"), (k.comult, "comult-naturality")),
        homs,
        _numbered("hom", homs),
    )


def _suite_adjunction_os(spaces, lats, maps, homs) -> Iterator[Row]:
    adj = OPEN_SPECTRUM_ADJUNCTION
    space_ids, map_ids = _space_ids(spaces), _numbered("map", maps)
    for iid, x in zip(space_ids, spaces):
        triangle, _ = check_adjunction(adj, [x], [])
        yield iid, "adjunction-os.triangle-open", triangle.ok, triangle.witness
        unit_iso = _invert_map(adj.unit.component(x)) is not None
        yield iid, "adjunction-os.unit-iso-iff-t0", unit_iso == is_t0(x), None
        yield _identity_row(iid, "adjunction-os.open.functor-identity", adj.left, x)
    for iid, lat in zip(_lattice_ids(lats), lats):
        _, triangle = check_adjunction(adj, [], [lat])
        yield iid, "adjunction-os.triangle-spectrum", triangle.ok, triangle.witness
        yield iid, "adjunction-os.counit-iso", is_spatial(lat), None
        yield _identity_row(
            iid, "adjunction-os.spectrum.functor-identity", adj.right, lat
        )
    sigma = SOBRIFICATION_TO_FILTERS
    yield from _naturality_rows(
        "adjunction-os",
        ((adj.unit, "unit-naturality"), (sigma, "sigma-naturality")),
        maps,
        map_ids,
    )
    yield from _naturality_rows(
        "adjunction-os",
        ((adj.counit, "counit-naturality"),),
        homs,
        _numbered("hom", homs),
    )
    yield _composition_row("adjunction-os.open", adj.left, maps)
    yield _composition_row("adjunction-os.spectrum", adj.right, homs)
    yield from _monad_rows(
        "adjunction-os.sobrification", SOBRIFICATION_MONAD, spaces, space_ids
    )


def _suite_lifting(spaces, lats, maps, homs) -> Iterator[Row]:
    adj = OPEN_SPECTRUM_ADJUNCTION
    t = IDEAL_MONAD_ON_LOCALES
    m = LIFTED_IDEAL_MONAD
    h = SOBRIFICATION_MONAD
    space_ids = _space_ids(spaces)
    yield from _monad_rows("lifting", m, spaces, space_ids)
    for iid, x in zip(space_ids, spaces):
        sober, unit = sobrification(x)
        agrees = h.functor.on_object(x) == sober and h.unit.component(x) == unit
        yield iid, "lifting.sobrification-agrees", agrees, None
        if is_t0(x):
            ok = space_round_trip(x) is not None
            yield iid, "lifting.comparison-round-trip", ok, None
    for iid, lat in zip(_lattice_ids(lats), lats):
        unit_sq, mult_sq = check_lift_law(adj, t, m, [lat])
        yield iid, "lifting.law-unit-square", unit_sq.ok, unit_sq.witness
        yield iid, "lifting.law-mult-square", mult_sq.ok, mult_sq.witness
        yield iid, "lifting.inverse-round-trip", locale_round_trip(lat), None
    sigma = SOBRIFICATION_TO_FILTERS
    for law_name, check in zip(
        ("morphism-unit", "morphism-mult"), check_monad_morphism(sigma, h, m, spaces)
    ):
        yield "all pool spaces", f"lifting.{law_name}", check.ok, check.witness
    yield from _naturality_rows(
        "lifting",
        ((m.unit, "unit-naturality"), (m.mult, "mult-naturality")),
        maps,
        _numbered("map", maps),
    )


def _suite_pairing(spaces, lats, maps, homs) -> Iterator[Row]:
    m = LIFTED_IDEAL_MONAD
    for iid, x in zip(_space_ids(spaces), spaces):
        p = pairing_map(x)
        yield iid, "pairing.homeomorphism", is_homeomorphism(p), None
        unit_ok = compose_maps(p, unit_map(x)) == m.unit.component(x)
        yield iid, "pairing.unit-transport", unit_ok, None
        doubled = compose_maps(
            m.functor.on_morphism(p), pairing_map(filter_space(x))
        )
        mult_ok = compose_maps(m.mult.component(x), doubled) == compose_maps(
            p, mult_map(x)
        )
        yield iid, "pairing.mult-transport", mult_ok, None
        frame_iso = _invert_hom(open_frame_of_filters_iso(x)) is not None
        yield iid, "pairing.open-frame-iso", frame_iso, None
    for iid, f in zip(_numbered("map", maps), maps):
        lhs = compose_maps(pairing_map(f.target), filter_map(f))
        rhs = compose_maps(m.functor.on_morphism(f), pairing_map(f.source))
        yield iid, "pairing.naturality", lhs == rhs, None


def _suite_cechstone(spaces, lats, maps, homs) -> Iterator[Row]:
    beta = COMPACT_REFLECTION_MONAD
    m = LIFTED_IDEAL_MONAD
    collapse = COMPACTIFICATION_COLLAPSE
    space_ids = _space_ids(spaces)
    yield from _monad_rows("cechstone", beta, spaces, space_ids)
    for iid, x in zip(space_ids, spaces):
        report = compactification_square(x)
        yield iid, "cechstone.square-iso", report.ok, None
        matches = homeomorphic(
            beta.functor.on_object(x), hausdorff_reflection(filter_space(x))[0]
        )
        yield iid, "cechstone.matches-clopen-quotient", matches, None
        collapse_iso = _invert_map(collapse.component(x)) is not None
        yield iid, "cechstone.collapse-iso", collapse_iso, None
        route = compose_maps(
            collapse.component(x),
            compose_maps(
                LIFTED_CENTER_MONAD.unit.component(m.functor.on_object(x)),
                m.unit.component(x),
            ),
        )
        yield iid, "cechstone.unit-factors", route == beta.unit.component(x), None
    yield from _naturality_rows(
        "cechstone",
        (
            (beta.unit, "unit-naturality"),
            (beta.mult, "mult-naturality"),
            (collapse, "collapse-naturality"),
        ),
        maps,
        _numbered("map", maps),
    )
    lattice_ids, hom_ids = _lattice_ids(lats), _numbered("hom", homs)
    for prefix, monad in (
        ("cechstone.center", CENTER_MONAD_ON_LOCALES),
        ("cechstone.center-ideal", CENTER_IDEAL_MONAD_ON_LOCALES),
    ):
        yield from _full_monad_rows(prefix, monad, lats, lattice_ids, homs, hom_ids)


def _suite_ultrafilter(spaces, lats, maps, homs) -> Iterator[Row]:
    for iid, x in zip(_space_ids(spaces), spaces):
        ux = ultrafilter_space(x)
        yield iid, "ultrafilter.principal-points", ux == x, None
        yield iid, "ultrafilter.filters-recovered", ultrafilter_comparison(x), None


def _suite_degeneracy(spaces, lats, maps, homs) -> Iterator[Row]:
    """Finite-scale collapses, each against an independent route."""
    for iid, lat in zip(_lattice_ids(lats), lats):
        below = way_below_bruteforce(lat).below == lat.poset.down
        yield iid, "degeneracy.way-below-is-order", below, None
        regular = is_regular(lat) == is_boolean(lat)
        yield iid, "degeneracy.regular-iff-boolean", regular, None
        principal = ideals_bruteforce(lat) == principal_masks(lat)
        yield iid, "degeneracy.ideals-principal", principal, None
        routes = prime_filters(lat) == prime_filters_bruteforce(lat)
        yield iid, "degeneracy.prime-filter-routes", routes, None
        # is_stably_compact reads way-below off the order; the first row
        # shows the definitional relation is that order on this lattice
        yield iid, "degeneracy.stably-compact", is_stably_compact(lat), None
    for iid, x in zip(_space_ids(spaces), spaces):
        yield iid, "degeneracy.sober-iff-t0", is_sober(x) == is_t0(x), None


LAW_SUITES: Dict[str, Callable[..., Iterator[Row]]] = {
    "monad-f": _suite_monad_f,
    "monad-i": _suite_monad_i,
    "comonad-k": _suite_comonad_k,
    "adjunction-os": _suite_adjunction_os,
    "lifting": _suite_lifting,
    "pairing": _suite_pairing,
    "cechstone": _suite_cechstone,
    "ultrafilter": _suite_ultrafilter,
    "degeneracy": _suite_degeneracy,
}


def run_suite(
    name: str,
    max_points: int = 3,
    max_lattice: int = 8,
    seed: int = DEFAULT_SEED,
    force: bool = False,
) -> Iterator[Row]:
    """Rows of the named suite over every space up to `max_points` points
    (seeded samples from five points on), every universe lattice with at
    most `max_lattice` elements, the continuous maps between spaces of at
    most two points and the lattice maps between lattices from posets of
    at most two elements. The pools are built before this returns, the
    rows as they are consumed."""
    if name not in LAW_SUITES:
        known = ", ".join(sorted(LAW_SUITES))
        raise ValueError(f"unknown suite {name!r}; known suites: {known}")
    if name in WAY_BELOW_SUITES and max_lattice > WAY_BELOW_MAX_ELEMENTS:
        raise BudgetExceeded(
            f"--max-lattice {max_lattice} exceeds the way-below cap of "
            f"{WAY_BELOW_MAX_ELEMENTS} elements, and the {name} suite computes "
            "way-below on every pool lattice"
        )
    spaces = _space_pool(max_points, seed, force)
    lats = _lattice_pool(max_lattice, force)
    maps = space_morphisms(min(max_points, 2))
    return LAW_SUITES[name](spaces, lats, maps, frame_morphisms(2))
