"""The main instances: finite spaces, finite locales, and the lifting.

The pointwise constructions elsewhere in the package are packaged here as
functors, monads and adjunctions over three universes: finite spaces with
continuous maps, finite distributive lattices with lattice maps (frames),
and the same lattices read as locales, where a morphism from L to M is a
lattice map from M to L and composition reads backwards.

The central chain: the ideal construction carries a monad structure on
locales whose unit is the join map and whose multiplication is the
comultiplication read backwards. It is the paper's ideal comonad on
frames, built once as a monad on the opposite universe, so the
`comonad-k` rows check its monad laws. The open-set functor is left
adjoint to the spectrum; lifting the locale monad across that adjunction
gives a monad on spaces; and the pairing homeomorphism identifies the lifted
monad with the open-prime-filter monad exactly. Composing with the
Boolean-center monad lifts the compact reflection the same way.

The law table at the bottom, `LAWS`, reruns these claims by enumeration.
Each `Law` names its law ids, the pool it runs over (each space, lattice,
continuous map or lattice map, or a whole pool at once) and a check that
gives one (ok, witness) pair per id on one instance. `LAW_SUITES` groups
the laws by the prefix of their ids into the suites the command line
runs, and `run_suite` builds the pools, labels every instance and yields
one row per law and instance, law by law.
"""

import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .catengine import (
    AdjunctionInstance,
    AlgebraInstance,
    FunctorInstance,
    NatTransInstance,
    Universe,
    check_algebra,
    check_algebra_morphism,
    check_functor_composition,
    check_functor_identity,
    check_left_triangle,
    check_lift_law,
    check_monad_laws,
    check_monad_morphism,
    check_naturality,
    check_right_triangle,
    comparison_algebra,
    compose_functors,
    identity_functor,
    inverse_comparison,
    lift_composite_iso,
    lift_law,
    lift_monad,
    lift_monad_morphism,
    make_monad,
    opposite,
)
from .dlat import (
    DistLattice,
    LatticeHom,
    all_lattice_homs,
    compose_homs,
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
from .memo import itself, keyed
from .order import Value, preorder_closure
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


def _inverse(f, arrow):
    """The arrow back along the bijective assignment of `f`."""
    back = sorted(range(len(f.assignment)), key=f.assignment.__getitem__)
    return arrow(f.target, f.source, tuple(back))


def _invert_map(f: ContinuousMap):
    return _inverse(f, ContinuousMap) if is_homeomorphism(f) else None


def _invert_hom(h: LatticeHom):
    bijective = sorted(h.assignment) == list(range(h.target.n))
    return _inverse(h, LatticeHom) if bijective else None


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


@keyed(itself)
def frame_morphisms(max_poset: int) -> Tuple[LatticeHom, ...]:
    """Every lattice map between universe lattices of the given size."""
    lats = lattice_universe(max_poset)
    return tuple(h for a in lats for b in lats for h in all_lattice_homs(a, b))


@keyed(itself)
def space_morphisms(max_points: int) -> Tuple[ContinuousMap, ...]:
    """Every continuous map between spaces of the given size."""
    spaces = all_spaces_upto(max_points)
    return tuple(f for x in spaces for y in spaces for f in all_continuous_maps(x, y))


# ---------------------------------------------------------------------------
# the instances, each built once


IDEAL_FUNCTOR_ON_FRAMES = FunctorInstance(
    "ideals", FRAME_UNIVERSE, FRAME_UNIVERSE, ideal_lattice, ideal_functor_hom
)

# ideals with the principal-ideal unit and the union multiplication
IDEAL_MONAD_ON_FRAMES = make_monad(
    "ideal monad", IDEAL_FUNCTOR_ON_FRAMES, principal_embedding, union_hom
)

# the ideal comonad on frames, read on locales: the join counit is the
# unit and the membership comultiplication the multiplication; its
# algebras are the coalgebras of the comonad
IDEAL_MONAD_ON_LOCALES = make_monad(
    "locale ideal monad",
    FunctorInstance(
        "ideals", LOCALE_UNIVERSE, LOCALE_UNIVERSE, ideal_lattice, ideal_functor_hom
    ),
    counit_hom,
    comultiplication_hom,
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

# its lift law, which ties it to the locale ideal monad
IDEAL_LIFT_LAW = lift_law(OPEN_SPECTRUM_ADJUNCTION, IDEAL_MONAD_ON_LOCALES)

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
# pools: every space and lattice up to a size bound

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
        up = preorder_closure(up)
        if up in seen:
            continue
        seen.add(up)
        out.append(FinSpace(names, up))
    return out


def _lattice_pool(max_lattice: int, force: bool) -> Tuple[DistLattice, ...]:
    if max_lattice > MAX_LATTICE and not force:
        raise BudgetExceeded(
            f"--max-lattice {max_lattice} exceeds the guard rail {MAX_LATTICE}; "
            "pass --force to raise it"
        )
    bound = 4 if max_lattice <= MAX_LATTICE else 5
    return tuple(l for l in lattice_universe(bound) if l.n <= max_lattice)


# ---------------------------------------------------------------------------
# algebras and coalgebras, and their round trips through the comparison
# functors. A coalgebra of the ideal comonad is an algebra of the locale
# ideal monad, so check_algebra checks both kinds.


def _holds(checks) -> bool:
    return all(c.ok for c in checks)


def coalgebra_structures(lat: DistLattice) -> Tuple[LatticeHom, ...]:
    """Every coalgebra structure on `lat`: each hom to the ideal lattice
    that check_algebra passes as an algebra of the locale ideal monad."""
    return tuple(
        gamma
        for gamma in all_lattice_homs(lat, ideal_lattice(lat))
        if _holds(check_algebra(AlgebraInstance(IDEAL_MONAD_ON_LOCALES, lat, gamma)))
    )


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


def filter_algebra_structures(x: FinSpace) -> Tuple[ContinuousMap, ...]:
    """Every algebra structure of the filter monad on `x`, by exhausting
    the continuous maps F X -> X."""
    t = FILTER_MONAD_ON_SPACES
    return tuple(
        alpha
        for alpha in all_continuous_maps(t.functor.on_object(x), x)
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
    m_alg = comparison_algebra(adj, IDEAL_LIFT_LAW, m, t_alg)
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
    again = comparison_algebra(adj, IDEAL_LIFT_LAW, m, t_alg)
    eta = adj.unit.component(x)
    ok = (
        ok
        and _invert_map(eta) is not None
        and check_algebra_morphism(m_alg, again, eta)
    )
    return again if ok else None


# ---------------------------------------------------------------------------
# the law table. A law checks the instances of one pool: "space",
# "lattice", "map" and "hom" give each member of that pool, "spaces",
# "maps" and "homs" the whole pool as one instance. A check finds what it
# calls among this module's globals when it runs, not when the table is
# built, so a test that rebinds one of those names reaches its rows.


class Law(Value):
    """Law ids decided together: check(instance) gives one (ok, witness)
    pair per id, or none to skip the instance. Ids share a law only where
    one catengine call decides them all."""

    ids: Tuple[str, ...]
    pool: str
    check: Callable

    @property
    def suite(self) -> str:
        return self.ids[0].partition(".")[0]


def _checked(ids, pool: str, checks: Callable) -> Law:
    """A law that catengine decides: checks(instance) gives one LawCheck
    per id, whose witness the row keeps."""
    return Law(ids, pool, lambda item: [(c.ok, c.witness) for c in checks(item)])


def _verdicts(pool: str, predicates: Dict[str, Callable]) -> Tuple[Law, ...]:
    """One law per id, without witness: predicates[id](instance) is its
    verdict."""

    def law(law_id, predicate):
        return Law((law_id,), pool, lambda item: [(predicate(item), None)])

    return tuple(law(law_id, predicate) for law_id, predicate in predicates.items())


def _natural(law_id: str, arrows: str, nt: Callable) -> Law:
    """Naturality of nt() on each arrow."""
    return _checked((law_id,), arrows, lambda f: [check_naturality(nt(), [f])])


def _functor_laws(prefix: str, functor: Callable, objects: str, arrows=None):
    """Identity on each object of functor() and, given an arrow pool,
    composition over the whole of it."""
    laws = [
        _checked(
            (f"{prefix}.functor-identity",),
            objects,
            lambda x: [check_functor_identity(functor(), [x])],
        )
    ]
    if arrows:
        laws.append(
            _checked(
                (f"{prefix}.functor-composition",),
                f"{arrows}s",
                lambda fs: [check_functor_composition(functor(), fs)],
            )
        )
    return laws


def _monad_laws(prefix: str, monad: Callable, objects: str, arrows=None, compose=True):
    """The functor identity and the three monad laws of monad() on each
    object; given an arrow pool, naturality of its unit and multiplication
    on each arrow and, unless told not to, composition over the pool."""
    laws = _functor_laws(prefix, lambda: monad().functor, objects, compose and arrows)
    laws.append(
        _checked(
            (f"{prefix}.left-unit", f"{prefix}.right-unit", f"{prefix}.associativity"),
            objects,
            lambda x: check_monad_laws(monad(), [x]),
        )
    )
    if arrows:
        laws.append(_natural(f"{prefix}.unit-naturality", arrows, lambda: monad().unit))
        laws.append(_natural(f"{prefix}.mult-naturality", arrows, lambda: monad().mult))
    return laws


def _downset_coalgebra(lat: DistLattice):
    # the coalgebra laws as algebra laws on locales, each witnessed by the
    # name the comonad gives it
    unit, assoc = check_algebra(
        AlgebraInstance(IDEAL_MONAD_ON_LOCALES, lat, gamma_coalgebra(lat))
    )
    witness = None if assoc.ok else "comultiplication law"
    return [(unit.ok and assoc.ok, witness if unit.ok else "counit law")]


def _sobrification_agrees(x: FinSpace) -> bool:
    sober, unit = sobrification(x)
    h = SOBRIFICATION_MONAD
    return h.functor.on_object(x) == sober and h.unit.component(x) == unit


def _mult_transported(x: FinSpace) -> bool:
    m, p = LIFTED_IDEAL_MONAD, pairing_map(x)
    doubled = compose_maps(m.functor.on_morphism(p), pairing_map(filter_space(x)))
    return compose_maps(m.mult.component(x), doubled) == compose_maps(p, mult_map(x))


def _pairing_natural(f: ContinuousMap) -> bool:
    lhs = compose_maps(pairing_map(f.target), filter_map(f))
    rhs = compose_maps(LIFTED_IDEAL_MONAD.functor.on_morphism(f), pairing_map(f.source))
    return lhs == rhs


def _unit_factors(x: FinSpace) -> bool:
    m = LIFTED_IDEAL_MONAD
    inner = LIFTED_CENTER_MONAD.unit.component(m.functor.on_object(x))
    route = compose_maps(inner, m.unit.component(x))
    route = compose_maps(COMPACTIFICATION_COLLAPSE.component(x), route)
    return route == COMPACT_REFLECTION_MONAD.unit.component(x)


LAWS: Tuple[Law, ...] = (
    *_monad_laws("monad-f", lambda: FILTER_MONAD_ON_SPACES, "space", "map"),
    *_monad_laws("monad-i", lambda: IDEAL_MONAD_ON_FRAMES, "lattice", "hom"),
    *_monad_laws("monad-i.locale", lambda: IDEAL_MONAD_ON_LOCALES, "lattice", "hom"),
    _checked(
        (
            "comonad-k.left-counit",
            "comonad-k.right-counit",
            "comonad-k.coassociativity",
        ),
        "lattice",
        lambda lat: check_monad_laws(IDEAL_MONAD_ON_LOCALES, [lat]),
    ),
    Law(("comonad-k.downset-coalgebra",), "lattice", _downset_coalgebra),
    _natural(
        "comonad-k.counit-naturality", "hom", lambda: IDEAL_MONAD_ON_LOCALES.unit
    ),
    _natural(
        "comonad-k.comult-naturality", "hom", lambda: IDEAL_MONAD_ON_LOCALES.mult
    ),
    _checked(
        ("adjunction-os.triangle-open",),
        "space",
        lambda x: [check_left_triangle(OPEN_SPECTRUM_ADJUNCTION, [x])],
    ),
    _checked(
        ("adjunction-os.triangle-spectrum",),
        "lattice",
        lambda lat: [check_right_triangle(OPEN_SPECTRUM_ADJUNCTION, [lat])],
    ),
    *_functor_laws(
        "adjunction-os.open", lambda: OPEN_SPECTRUM_ADJUNCTION.left, "space", "map"
    ),
    *_functor_laws(
        "adjunction-os.spectrum",
        lambda: OPEN_SPECTRUM_ADJUNCTION.right,
        "lattice",
        "hom",
    ),
    _natural(
        "adjunction-os.unit-naturality", "map", lambda: OPEN_SPECTRUM_ADJUNCTION.unit
    ),
    _natural("adjunction-os.sigma-naturality", "map", lambda: SOBRIFICATION_TO_FILTERS),
    _natural(
        "adjunction-os.counit-naturality",
        "hom",
        lambda: OPEN_SPECTRUM_ADJUNCTION.counit,
    ),
    *_monad_laws("adjunction-os.sobrification", lambda: SOBRIFICATION_MONAD, "space"),
    *_monad_laws("lifting", lambda: LIFTED_IDEAL_MONAD, "space", "map", compose=False),
    _checked(
        ("lifting.law-unit-square", "lifting.law-mult-square"),
        "lattice",
        lambda lat: check_lift_law(
            OPEN_SPECTRUM_ADJUNCTION,
            IDEAL_MONAD_ON_LOCALES,
            IDEAL_LIFT_LAW,
            LIFTED_IDEAL_MONAD,
            [lat],
        ),
    ),
    _checked(
        ("lifting.morphism-unit", "lifting.morphism-mult"),
        "spaces",
        lambda spaces: check_monad_morphism(
            SOBRIFICATION_TO_FILTERS, SOBRIFICATION_MONAD, LIFTED_IDEAL_MONAD, spaces
        ),
    ),
    # the comparison functors carry the canonical algebras of T0 spaces
    Law(
        ("lifting.comparison-round-trip",),
        "space",
        lambda x: [(space_round_trip(x) is not None, None)] if is_t0(x) else [],
    ),
    *_monad_laws(
        "cechstone", lambda: COMPACT_REFLECTION_MONAD, "space", "map", compose=False
    ),
    _natural("cechstone.collapse-naturality", "map", lambda: COMPACTIFICATION_COLLAPSE),
    *_monad_laws("cechstone.center", lambda: CENTER_MONAD_ON_LOCALES, "lattice", "hom"),
    *_monad_laws(
        "cechstone.center-ideal",
        lambda: CENTER_IDEAL_MONAD_ON_LOCALES,
        "lattice",
        "hom",
    ),
    *_verdicts(
        "space",
        {
            # the canonical algebra exists exactly when the unit is injective
            "monad-f.algebra-iff-t0": lambda x: is_t0(x)
            == (len(set(unit_map(x).assignment)) == x.n),
            "adjunction-os.unit-iso-iff-t0": lambda x: is_t0(x)
            == (_invert_map(OPEN_SPECTRUM_ADJUNCTION.unit.component(x)) is not None),
            "lifting.sobrification-agrees": _sobrification_agrees,
            "pairing.homeomorphism": lambda x: is_homeomorphism(pairing_map(x)),
            "pairing.unit-transport": lambda x: LIFTED_IDEAL_MONAD.unit.component(x)
            == compose_maps(pairing_map(x), unit_map(x)),
            "pairing.mult-transport": _mult_transported,
            "pairing.open-frame-iso": lambda x: _invert_hom(
                open_frame_of_filters_iso(x)
            )
            is not None,
            "cechstone.square-iso": lambda x: compactification_square(x).ok,
            "cechstone.matches-clopen-quotient": lambda x: homeomorphic(
                COMPACT_REFLECTION_MONAD.functor.on_object(x),
                hausdorff_reflection(filter_space(x))[0],
            ),
            "cechstone.collapse-iso": lambda x: _invert_map(
                COMPACTIFICATION_COLLAPSE.component(x)
            )
            is not None,
            "cechstone.unit-factors": _unit_factors,
            "ultrafilter.principal-points": lambda x: ultrafilter_space(x) == x,
            "ultrafilter.filters-recovered": lambda x: ultrafilter_comparison(x),
            "degeneracy.sober-iff-t0": lambda x: is_sober(x) == is_t0(x),
        },
    ),
    *_verdicts(
        "lattice",
        {
            "comonad-k.comult-two-routes": lambda lat: comultiplication_hom(lat)
            == comultiplication_via_functor(lat),
            "adjunction-os.counit-iso": lambda lat: is_spatial(lat),
            "lifting.inverse-round-trip": lambda lat: locale_round_trip(lat),
            # finite-scale collapses, each against an independent route;
            # is_stably_compact reads way-below off the order, and the first
            # of them shows the definitional relation is that order
            "degeneracy.way-below-is-order": lambda lat: way_below_bruteforce(lat).below
            == lat.poset.down,
            "degeneracy.regular-iff-boolean": lambda lat: is_regular(lat)
            == is_boolean(lat),
            "degeneracy.ideals-principal": lambda lat: ideals_bruteforce(lat)
            == principal_masks(lat),
            "degeneracy.prime-filter-routes": lambda lat: prime_filters(lat)
            == prime_filters_bruteforce(lat),
            "degeneracy.stably-compact": lambda lat: is_stably_compact(lat),
        },
    ),
    *_verdicts("map", {"pairing.naturality": _pairing_natural}),
)

# the suites the command line runs: the laws by the prefix of their ids
LAW_SUITES: Dict[str, Tuple[Law, ...]] = {
    suite: tuple(law for law in LAWS if law.suite == suite)
    for suite in dict.fromkeys(law.suite for law in LAWS)
}


def _labelled(kind: str, items, detail=lambda item: "") -> List[Tuple[str, object]]:
    total = len(items)
    return [(f"{kind} {i}/{total}{detail(x)}", x) for i, x in enumerate(items, 1)]


def _rows(laws, pools) -> Iterator[Row]:
    for law in laws:
        for iid, item in pools[law.pool]:
            pairs = law.check(item)
            if pairs:
                for law_id, (ok, witness) in zip(law.ids, pairs, strict=True):
                    yield iid, law_id, ok, witness


def run_suite(
    name: str,
    max_points: int = 3,
    max_lattice: int = 8,
    seed: int = DEFAULT_SEED,
    force: bool = False,
) -> Iterator[Row]:
    """Rows of the named suite, law by law, over every space up to
    `max_points` points (seeded samples from five points on), every
    universe lattice with at most `max_lattice` elements, the continuous
    maps between spaces of at most two points and the lattice maps between
    lattices from posets of at most two elements. The pools are built
    before this returns, the rows as they are consumed."""
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
    homs = frame_morphisms(2)
    pools = {
        "space": _labelled(
            "space", spaces, lambda x: f" ({x.n} points, {len(x.opens)} opens)"
        ),
        "lattice": _labelled("lattice", lats, lambda lat: f" ({lat.n} elements)"),
        "map": _labelled("map", maps),
        "hom": _labelled("hom", homs),
        "spaces": [("all pool spaces", spaces)],
        "maps": [("all composable pairs", maps)],
        "homs": [("all composable pairs", homs)],
    }
    return _rows(LAW_SUITES[name], pools)
