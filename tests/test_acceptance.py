"""Acceptance gate: ten criteria, one test and one verdict line each.

Every criterion is checked by exact equality over exhaustively enumerated
universes, with a pinned runtime budget asserted alongside the result.
Run with -s to see the verdict lines; each test is one criterion.
"""

import time
from pathlib import Path

import pytest

from stonekit.catengine import (
    AlgebraInstance,
    check_algebra,
    check_lift_law,
    check_monad_laws,
    check_monad_morphism,
    check_naturality,
)
from stonekit.dlat import ideals_bruteforce, principal_masks
from stonekit.documents import load_lattice
from stonekit.errors import NoCanonicalAlgebra, NotDistributive
from stonekit.frame import (
    gamma_coalgebra,
    is_spatial,
    way_below_bruteforce,
)
from stonekit.instances import (
    COMPACTIFICATION_COLLAPSE,
    FILTER_MONAD_ON_SPACES,
    IDEAL_LIFT_LAW,
    IDEAL_MONAD_ON_FRAMES,
    IDEAL_MONAD_ON_LOCALES,
    LIFTED_IDEAL_MONAD,
    OPEN_SPECTRUM_ADJUNCTION,
    SOBRIFICATION_MONAD,
    SOBRIFICATION_TO_FILTERS,
    SPACE_UNIVERSE,
    coalgebra_structures,
    filter_algebra_structures,
    locale_round_trip,
    space_morphisms,
    space_round_trip,
)
from stonekit.frame import comultiplication_hom, comultiplication_via_functor
from stonekit.spaces import (
    ContinuousMap,
    closure_initiality_witness,
    compose_maps,
    discrete_space,
    indiscrete_space,
    is_closure_initial,
    is_t0,
)
from stonekit.topspace import (
    canonical_algebra,
    compactification_square,
    filter_map,
    filter_space,
    mult_map,
    pairing_map,
    unit_map,
)
from stonekit.universes import (
    all_continuous_maps,
    all_spaces,
    all_spaces_upto,
    lattice_universe,
)

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"PASS {self.name} ({elapsed:.1f}s of {self.seconds:.0f}s budget)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds:.0f}s budget: {elapsed:.1f}s"
            )
        else:
            print(f"FAIL {self.name} ({elapsed:.1f}s)")
        return False


def test_criterion_01_filter_monad_laws_exhaustive():
    with _Budget("criterion 1: filter monad laws over all small topologies", 60):
        m = FILTER_MONAD_ON_SPACES
        three = all_spaces(3)
        assert len(three) == 29
        four = all_spaces(4)
        assert len(four) == 355
        pool = all_spaces_upto(3) + four
        for check in check_monad_laws(m, pool):
            assert check.ok, str(check)
        for nt in (m.unit, m.mult):
            check = check_naturality(nt, space_morphisms(2))
            assert check.ok, str(check)


def test_criterion_02_ideal_monad_and_comonad_laws():
    with _Budget("criterion 2: ideal monad and comonad laws over 243 lattices", 30):
        lats = lattice_universe(4)
        assert len(lats) == 243
        t = IDEAL_MONAD_ON_FRAMES
        k = IDEAL_MONAD_ON_LOCALES
        checks = list(check_monad_laws(t, lats)) + list(check_monad_laws(k, lats))
        for check in checks:
            assert check.ok, str(check)
        for lat in lats:
            assert comultiplication_hom(lat) == comultiplication_via_functor(lat)


def test_criterion_03_pairing_identifies_the_lifted_monad():
    with _Budget("criterion 3: pairing homeomorphism, natural and structural", 60):
        m = LIFTED_IDEAL_MONAD
        top = SPACE_UNIVERSE
        spaces = all_spaces_upto(3)
        for x in spaces:
            p = pairing_map(x)
            assert top.invert(p) is not None
            assert compose_maps(p, unit_map(x)) == m.unit.component(x)
            doubled = compose_maps(
                m.functor.on_morphism(p), pairing_map(filter_space(x))
            )
            assert compose_maps(m.mult.component(x), doubled) == compose_maps(
                p, mult_map(x)
            )
        for x in spaces:
            for y in spaces:
                for f in all_continuous_maps(x, y):
                    lhs = compose_maps(pairing_map(y), filter_map(f))
                    rhs = compose_maps(m.functor.on_morphism(f), pairing_map(x))
                    assert lhs == rhs


def test_criterion_04_every_lattice_is_spatial():
    with _Budget("criterion 4: spatial comparison bijective on every lattice", 10):
        for lat in lattice_universe(4):
            assert is_spatial(lat)


def test_criterion_05_algebras_exist_exactly_on_t0_and_are_unique():
    with _Budget("criterion 5: filter algebra iff T0, unique by search", 60):
        for x in all_spaces_upto(3):
            structures = filter_algebra_structures(x)
            expected = 1 if is_t0(x) else 0
            assert len(structures) == expected, x
            if expected:
                assert structures[0] == canonical_algebra(x)


def test_criterion_06_downset_coalgebra_laws_and_uniqueness():
    with _Budget("criterion 6: downset coalgebra unique on small lattices", 60):
        lats = lattice_universe(4)
        for lat in lats:
            alg = AlgebraInstance(IDEAL_MONAD_ON_LOCALES, lat, gamma_coalgebra(lat))
            assert all(c.ok for c in check_algebra(alg))
        small = [lat for lat in lats if lat.n <= 6]
        assert len(small) == 83
        for lat in small:
            assert coalgebra_structures(lat) == (gamma_coalgebra(lat),)


def test_criterion_07_lifting_suite():
    with _Budget("criterion 7: lift-law squares, round trips, collapse", 120):
        adj = OPEN_SPECTRUM_ADJUNCTION
        t = IDEAL_MONAD_ON_LOCALES
        m = LIFTED_IDEAL_MONAD
        lats = lattice_universe(4)
        for check in check_lift_law(adj, t, IDEAL_LIFT_LAW, m, lats):
            assert check.ok, str(check)
        assert all(locale_round_trip(lat) for lat in lats)
        spaces = all_spaces_upto(3)
        for x in spaces:
            if is_t0(x):
                again = space_round_trip(x)
                assert again is not None, x
                assert all(c.ok for c in check_algebra(again)), x
        collapse = COMPACTIFICATION_COLLAPSE
        top = SPACE_UNIVERSE
        for x in spaces:
            assert top.invert(collapse.component(x)) is not None
        assert check_naturality(collapse, space_morphisms(2)).ok
        sigma = SOBRIFICATION_TO_FILTERS
        h = SOBRIFICATION_MONAD
        for check in check_monad_morphism(sigma, h, m, spaces):
            assert check.ok, str(check)
        assert check_naturality(sigma, space_morphisms(2)).ok


def test_criterion_08_compactification_square():
    with _Budget("criterion 8: compactification square over 3-point spaces", 60):
        for x in all_spaces_upto(3):
            report = compactification_square(x)
            assert report.ok, x


def test_criterion_09_degeneracy_oracles_bit_identical():
    with _Budget("criterion 9: way-below and ideal oracles, bit-identical", 30):
        for lat in lattice_universe(4):
            assert way_below_bruteforce(lat).below == lat.poset.down
            assert ideals_bruteforce(lat) == principal_masks(lat)


def test_criterion_10_negative_fixtures_fail_with_witnesses():
    with _Budget("criterion 10: negative fixtures deny with witnesses", 30):
        pair = indiscrete_space(("x", "y"))
        with pytest.raises(NoCanonicalAlgebra) as alg_exc:
            canonical_algebra(pair)
        assert alg_exc.value.witness == ("x", "y")
        assert filter_algebra_structures(pair) == ()

        with pytest.raises(NotDistributive) as dist_exc:
            load_lattice((DATA / "m3.lattice").read_text())
        assert dist_exc.value.witness == ("a", "b", "c")

        rigid = ContinuousMap(
            discrete_space(("x", "y")), indiscrete_space(("x", "y")), (0, 1)
        )
        assert not is_closure_initial(rigid)
        assert closure_initiality_witness(rigid) == 0b01
