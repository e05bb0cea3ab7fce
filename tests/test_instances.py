"""Wired-up instances: universes, monads, the adjunction, and the suites."""

import argparse
import hashlib
import re
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from stonekit import instances
from stonekit.catengine import check_naturality
from stonekit.cli import _build_parser
from stonekit.dlat import TWO, LatticeHom, compose_homs, identity_hom
from stonekit.errors import BudgetExceeded
from stonekit.memo import clear_caches
from stonekit.frame import WAY_BELOW_MAX_ELEMENTS, counit_hom, spectrum_map
from stonekit.instances import (
    COMPACT_REFLECTION_MONAD,
    COMPACTIFICATION_COLLAPSE,
    DEFAULT_SEED,
    FILTER_MONAD_ON_SPACES,
    FRAME_UNIVERSE,
    IDEAL_FUNCTOR_ON_FRAMES,
    IDEAL_MONAD_ON_FRAMES,
    IDEAL_MONAD_ON_LOCALES,
    LAW_SUITES,
    LAWS,
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
from stonekit.topspace import filter_space, pairing_map, unit_map
from stonekit.universes import all_spaces_upto, lattice_universe
from test_cli import SUITE_PINS
from test_memo import module_tables

ROOT = Path(__file__).resolve().parent.parent


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
    assert IDEAL_MONAD_ON_FRAMES.functor is IDEAL_FUNCTOR_ON_FRAMES
    # the locale ideal monad is the ideal comonad on frames read backwards:
    # the same functor, over the opposite universe
    ideals, locale_ideals = IDEAL_FUNCTOR_ON_FRAMES, IDEAL_MONAD_ON_LOCALES.functor
    assert locale_ideals.source is locale_ideals.target is LOCALE_UNIVERSE
    assert locale_ideals.on_object is ideals.on_object
    assert locale_ideals.on_morphism is ideals.on_morphism
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


def suite_choices() -> list:
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
    return list(suite.choices)


def test_law_ids_belong_to_one_suite():
    ids = [law_id for law in LAWS for law_id in law.ids]
    assert len(ids) == len(set(ids)) == 95
    for name, laws in LAW_SUITES.items():
        for law in laws:
            assert all(law_id.startswith(name + ".") for law_id in law.ids), law
    assert sum(len(laws) for laws in LAW_SUITES.values()) == len(LAWS)
    assert len(LAW_SUITES) == 9
    assert suite_choices() == sorted(LAW_SUITES)
    with pytest.raises(ValueError):
        run_suite("nonsense")


def claim_table() -> dict:
    """The README's table of the abstract's claims: claim -> law-id patterns."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("The four claims of the paper's abstract")
    rows = {}
    for line in text[start:].splitlines()[1:]:
        if rows and not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 2 and cells[1].startswith("`"):
            rows[cells[0]] = re.findall(r"`([^`]+)`", cells[1])
    return rows


# each claim of the paper's abstract and the law-id patterns that check it;
# a trailing * stands for every law id with that prefix
CLAIMS = {
    "the ideal frame comonad pairs with the open prime filter monad via the "
    "open-set / spectrum adjunction": ["pairing.*", "lifting.*"],
    "stably compact spaces are equivalent to stably compact frames": [
        "lifting.comparison-round-trip",
        "degeneracy.stably-compact",
    ],
    "compact Hausdorff spaces are equivalent to compact regular frames": [
        "degeneracy.regular-iff-boolean",
        "cechstone.square-iso",
    ],
    "the pointfree and the pointset Čech–Stone compactifications agree": [
        "cechstone.collapse-*",
        "cechstone.matches-clopen-quotient",
    ],
}


def test_the_readme_claim_table_names_laws_of_the_table():
    assert claim_table() == CLAIMS
    ids = [law_id for law in LAWS for law_id in law.ids]
    for claim, patterns in CLAIMS.items():
        for pattern in patterns:
            if pattern.endswith("*"):
                named = [i for i in ids if i.startswith(pattern[:-1])]
            else:
                named = [i for i in ids if i == pattern]
            assert named, (claim, pattern)


def _constant_pairing(x):
    p = pairing_map(x)
    return ContinuousMap(p.source, p.target, (0,) * p.source.n)


# a wrong verdict from one global that the checks of the table call, and
# the laws whose rows it must fail: a check that held the function itself
# instead of looking it up when it runs would miss the patch
@pytest.mark.parametrize(
    "name, wrong, suite, failing",
    [
        ("is_spatial", lambda lat: False, "adjunction-os", {"adjunction-os.counit-iso"}),
        (
            "ultrafilter_comparison",
            lambda x: False,
            "ultrafilter",
            {"ultrafilter.filters-recovered"},
        ),
        (
            "is_stably_compact",
            lambda lat: False,
            "degeneracy",
            {"degeneracy.stably-compact"},
        ),
        (
            "locale_round_trip",
            lambda lat: False,
            "lifting",
            {"lifting.inverse-round-trip"},
        ),
        # a constant pairing map makes both sides of the multiplication
        # square the same constant map, so that law still holds
        (
            "pairing_map",
            _constant_pairing,
            "pairing",
            {"pairing.homeomorphism", "pairing.unit-transport", "pairing.naturality"},
        ),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_a_rebound_global_reaches_exactly_its_laws(
    monkeypatch, name, wrong, suite, failing
):
    monkeypatch.setattr(instances, name, wrong)
    rows = list(run_suite(suite, max_points=2, max_lattice=4))
    assert {law for _, law, ok, _ in rows if not ok} == failing


def test_the_suites_give_their_pinned_rows_with_every_memo_and_view_off(
    monkeypatch,
):
    """The reference run: every memo table of the package's modules (the
    name-free memos, views and pools) replaced, wherever a module holds
    it, by a pass-through that
    counts its calls and stores nothing, so no row can rest on a result
    stored for another object."""
    memos = list(module_tables().values())
    assert len(memos) == 22
    calls = Counter()

    def pass_through(index, fn):
        raw = fn.__wrapped__

        def through(*args, **kwargs):
            calls[index] += 1
            return raw(*args, **kwargs)

        return through

    replaced = {id(fn): pass_through(i, fn) for i, fn in enumerate(memos)}
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "stonekit" and not module_name.startswith("stonekit."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                monkeypatch.setattr(module, attr, replaced[id(value)])
                rebound += 1
    assert rebound > len(memos)
    clear_caches()
    try:
        for name, (count, digest) in SUITE_PINS.items():
            rows = list(run_suite(name))
            lines = [f"{iid}\t{law}\tPASS" for iid, law, ok, _ in rows if ok]
            assert len(lines) == len(rows) == count, name
            text = "\n".join(sorted(lines))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, name
            checked = {law for _, law, _, _ in rows}
            assert checked == {i for law in LAW_SUITES[name] for i in law.ids}
        assert sorted(calls) == list(range(len(memos)))
        assert [len(memo.table) for memo in memos] == [0] * len(memos)
        assert [memo.cache_info() for memo in memos] == [(0, 0)] * len(memos)
    finally:
        clear_caches()


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
