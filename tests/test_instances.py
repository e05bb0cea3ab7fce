"""Wired-up instances: universes, monads, the adjunction, and the suites."""

import argparse
import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from stonekit.catengine import check_naturality
from stonekit.cli import _build_parser
from stonekit.dlat import TWO, LatticeHom, compose_homs, identity_hom
from stonekit.errors import BudgetExceeded
from stonekit.frame import WAY_BELOW_MAX_ELEMENTS, counit_hom, spectrum_map
from stonekit.instances import (
    COMPACT_REFLECTION_MONAD,
    COMPACTIFICATION_COLLAPSE,
    DEFAULT_SEED,
    FILTER_MONAD_ON_SPACES,
    FRAME_UNIVERSE,
    IDEAL_COMONAD_ON_FRAMES,
    IDEAL_MONAD_ON_FRAMES,
    IDEAL_MONAD_ON_LOCALES,
    LAW_SUITES,
    LIFTED_IDEAL_MONAD,
    LOCALE_UNIVERSE,
    OPEN_FUNCTOR,
    OPEN_SPECTRUM_ADJUNCTION,
    SOBRIFICATION_MONAD,
    SOBRIFICATION_TO_FILTERS,
    SPACE_UNIVERSE,
    SPECTRUM_FUNCTOR,
    WAY_BELOW_SUITES,
    _sampled_spaces,
    frame_morphisms,
    run_suite,
    space_morphisms,
)
from stonekit.spaces import (
    ContinuousMap,
    compose_maps,
    discrete_space,
    open_set_frame,
    sierpinski,
)
from stonekit.topspace import filter_space, unit_map
from stonekit.universes import all_spaces_upto, lattice_universe


def test_universes_are_singletons():
    assert OPEN_SPECTRUM_ADJUNCTION.left.source is SPACE_UNIVERSE
    assert OPEN_SPECTRUM_ADJUNCTION.left.target is LOCALE_UNIVERSE
    assert IDEAL_MONAD_ON_FRAMES.functor.source is FRAME_UNIVERSE
    assert LIFTED_IDEAL_MONAD.functor.source is SPACE_UNIVERSE
    assert COMPACT_REFLECTION_MONAD.functor.target is SPACE_UNIVERSE


def test_the_instances_are_built_from_one_another():
    # each instance is built once, from the constants it names, so the
    # monad morphism runs between the functors of the lifted constants
    assert SOBRIFICATION_TO_FILTERS.source is SOBRIFICATION_MONAD.functor
    assert SOBRIFICATION_TO_FILTERS.target is LIFTED_IDEAL_MONAD.functor
    assert IDEAL_COMONAD_ON_FRAMES.functor is IDEAL_MONAD_ON_FRAMES.functor
    assert OPEN_SPECTRUM_ADJUNCTION.left is OPEN_FUNCTOR
    assert OPEN_SPECTRUM_ADJUNCTION.right is SPECTRUM_FUNCTOR


@pytest.mark.parametrize(
    "pool, compose, validated",
    [
        (space_morphisms(2), compose_maps, ContinuousMap),
        (frame_morphisms(2), compose_homs, LatticeHom),
    ],
    ids=["maps", "homs"],
)
def test_trusted_composites_match_validated_ones(pool, compose, validated):
    """Composites skip validation; the validating constructor accepts
    every one of them and builds an equal value."""
    by_source = {}
    for f in pool:
        by_source.setdefault(f.source, []).append(f)
    pairs = 0
    for f in pool:
        for g in by_source.get(f.target, ()):
            trusted = compose(g, f)
            checked = validated(
                f.source, g.target, tuple(g.assignment[a] for a in f.assignment)
            )
            assert trusted == checked and hash(trusted) == hash(checked)
            pairs += 1
    assert pairs > len(pool)


# the seeded pools the law suites sample from five points on; a change to
# the sampler must keep them
@pytest.mark.parametrize(
    "size, digest",
    [
        (5, "b55bafc609a06830e1be70a7ddfaa8d7ac651d769ec3019ddfc1dd7b592c67ff"),
        (6, "3ae6f7674d383b1a8e810655897ddc5bb98f1824de9f6b71b03f2011e884a6b0"),
    ],
)
def test_sampled_space_pool_is_pinned(size, digest):
    pool = _sampled_spaces(size, DEFAULT_SEED)
    text = repr([(x.points, x.opens) for x in pool])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_locale_universe_reads_backwards():
    lats = lattice_universe(2)
    two = next(l for l in lats if l.n == 2)
    chain = next(l for l in lats if l.n == 3)
    h = next(
        g for g in frame_morphisms(2) if g.source == two and g.target == chain
    )
    frm, loc = FRAME_UNIVERSE, LOCALE_UNIVERSE
    assert frm.source(h) == two and frm.target(h) == chain
    assert loc.source(h) == chain and loc.target(h) == two
    g = next(
        k for k in frame_morphisms(2) if k.source == chain and k.target == two
    )
    assert loc.compose(g, h) == compose_homs(h, g)


def test_space_universe_inverts_only_homeomorphisms():
    u = SPACE_UNIVERSE
    x = next(
        y for y in all_spaces_upto(2) if y.n == 2 and len(y.opens) == 4
    )
    endos = [f for f in space_morphisms(2) if f.source == x and f.target == x]
    assert len(endos) == 4
    invertible = [f for f in endos if u.invert(f) is not None]
    assert len(invertible) == 2
    for f in invertible:
        assert u.compose(u.invert(f), f) == u.identity(x)
    collapse = next(f for f in endos if len(set(f.assignment)) == 1)
    assert u.invert(collapse) is None


def test_frame_universe_inverts_only_bijections():
    u = FRAME_UNIVERSE
    two = next(l for l in lattice_universe(2) if l.n == 2)
    assert u.invert(identity_hom(two)) == identity_hom(two)
    assert u.invert(identity_hom(TWO)) == identity_hom(TWO)
    squash = next(
        h
        for h in frame_morphisms(2)
        if h.source.n == 3 and h.target.n == 3 and len(set(h.assignment)) == 2
    )
    assert u.invert(squash) is None


def test_lifted_monad_object_sizes_are_frozen():
    m = LIFTED_IDEAL_MONAD
    s = sierpinski()
    assert m.functor.on_object(s).n == 2
    assert m.functor.on_object(s).n == filter_space(s).n
    beta = COMPACT_REFLECTION_MONAD
    assert beta.functor.on_object(s).n == 1
    assert beta.functor.on_object(discrete_space(("a", "b"))).n == 2


def test_lifted_unit_mirrors_the_filter_unit_profile():
    m = LIFTED_IDEAL_MONAD
    s = sierpinski()
    lifted = m.unit.component(s)
    plain = unit_map(s)
    assert len(set(lifted.assignment)) == len(set(plain.assignment))


def test_monad_morphism_component_is_the_lifted_join():
    sigma = SOBRIFICATION_TO_FILTERS
    s = sierpinski()
    expected = spectrum_map(counit_hom(open_set_frame(s)))
    assert sigma.component(s) == expected


def test_collapse_components_are_homeomorphisms():
    u = SPACE_UNIVERSE
    collapse = COMPACTIFICATION_COLLAPSE
    for x in all_spaces_upto(2):
        comp = collapse.component(x)
        assert u.invert(comp) is not None


# the two slowest suites run on spaces of at most two points
SUITE_MAX_POINTS = {"lifting": 2, "cechstone": 2}


@pytest.mark.parametrize("name", sorted(LAW_SUITES))
def test_law_suite_is_green(name):
    rows = list(
        run_suite(name, max_points=SUITE_MAX_POINTS.get(name, 3), max_lattice=8)
    )
    assert rows
    failed = [row for row in rows if not row[2]]
    assert not failed, failed[:3]


@pytest.mark.parametrize("name", WAY_BELOW_SUITES)
def test_way_below_suites_refuse_a_lattice_bound_past_its_cap(name):
    # refused before the pools are built: --force lifts the pool guard
    # rails, not the cap of an oracle the suite runs on every lattice
    with pytest.raises(BudgetExceeded, match="way-below cap"):
        run_suite(name, max_lattice=WAY_BELOW_MAX_ELEMENTS + 1, force=True)


def test_law_ids_belong_to_one_suite():
    owner = {}
    for name in LAW_SUITES:
        for _, law, _, _ in run_suite(name, max_points=1, max_lattice=2):
            assert law.startswith(name + "."), (name, law)
            assert owner.setdefault(law, name) == name, law
    assert sorted(set(owner.values())) == sorted(LAW_SUITES)
    with pytest.raises(ValueError):
        run_suite("nonsense")
    commands = next(
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    suite = next(
        action
        for action in commands.choices["laws"]._actions
        if action.dest == "suite"
    )
    assert list(suite.choices) == sorted(LAW_SUITES)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_filter_and_lifted_units_are_natural_on_sampled_maps(data):
    maps = space_morphisms(2)
    f = data.draw(st.sampled_from(maps))
    for monad in (FILTER_MONAD_ON_SPACES, LIFTED_IDEAL_MONAD):
        check = check_naturality(monad.unit, [f])
        assert check.ok, str(check)


@given(st.sampled_from(lattice_universe(3)))
@settings(max_examples=24, deadline=None)
def test_triangle_identity_holds_on_sampled_lattices(lat):
    adj = OPEN_SPECTRUM_ADJUNCTION
    top = SPACE_UNIVERSE
    spec = adj.right.on_object(lat)
    lhs = top.compose(
        adj.right.on_morphism(adj.counit.component(lat)),
        adj.unit.component(spec),
    )
    assert lhs == top.identity(spec)


@given(st.sampled_from(all_spaces_upto(3)))
@settings(max_examples=35, deadline=None)
def test_lifted_monad_unit_laws_hold_on_sampled_spaces(x):
    m = LIFTED_IDEAL_MONAD
    u = SPACE_UNIVERSE
    mx = m.functor.on_object(x)
    left = u.compose(m.mult.component(x), m.unit.component(mx))
    right = u.compose(m.mult.component(x), m.functor.on_morphism(m.unit.component(x)))
    assert left == u.identity(mx)
    assert right == u.identity(mx)


def test_ideal_monads_share_their_functor_object_map():
    frm = IDEAL_MONAD_ON_FRAMES
    loc = IDEAL_MONAD_ON_LOCALES
    for lat in lattice_universe(2):
        assert frm.functor.on_object(lat) == loc.functor.on_object(lat)
