"""The memo tables: views and component memos keyed by their one argument,
one table per component, and one stored tuple per distinct assignment."""

import pytest

from stonekit import instances, memo
from stonekit.dlat import LatticeHom, compose_homs, ideal_view, lattice_from_poset
from stonekit.instances import run_suite
from stonekit.memo import CACHES, COMPONENTS, clear_caches
from stonekit.order import chain


def _abc():
    return lattice_from_poset(chain(["a", "b", "c"]))


@pytest.fixture
def lifting_run():
    """The live component memos after a lifting run from cleared caches."""
    clear_caches()
    try:
        assert len(list(run_suite("lifting", max_points=2))) == 733
        yield [memo for memo in COMPONENTS if memo.cache_info().currsize]
    finally:
        clear_caches()


def test_every_view_and_component_table_is_keyed_by_the_argument(lifting_run):
    tables = [view.table for view in CACHES if view.table]
    tables += [memo.table for memo in lifting_run]
    assert len(tables) > 20
    assert [key for table in tables for key in table if type(key) is tuple] == []
    lat = _abc()
    ideal_view(lat)
    assert [key for key in ideal_view.table if key is lat] == [lat]
    unit = instances.IDEAL_MONAD_ON_FRAMES.unit.component
    unit(lat)
    assert [key for key in unit.table if key is lat] == [lat]


def test_every_cached_function_takes_one_argument_without_a_default():
    # the table is keyed by the one argument, so a call without it could
    # not be looked up
    loose = [
        view.__name__
        for view in CACHES
        if view.__wrapped__.__code__.co_argcount != 1 or view.__wrapped__.__defaults__
    ]
    assert loose == []


def test_cache_info_counts_each_miss_once():
    clear_caches()
    lat = _abc()
    misses = ideal_view.cache_info().misses
    view = ideal_view(lat)
    assert ideal_view.cache_info().misses == misses + 1
    assert ideal_view(lat) is view
    assert ideal_view(_abc()) is view
    assert ideal_view.cache_info().misses == misses + 1
    assert ideal_view.cache_info().currsize == len(ideal_view.table) == 1
    clear_caches()
    assert ideal_view.cache_info() == (0, 0)


def test_a_miss_that_raises_stores_nothing(monkeypatch):
    clear_caches()
    build = ideal_view.__wrapped__

    def refuse(lat):
        raise ArithmeticError(lat.elements)

    monkeypatch.setattr(ideal_view, "__wrapped__", refuse)
    with pytest.raises(ArithmeticError):
        ideal_view(_abc())
    assert ideal_view.table == {}
    monkeypatch.setattr(ideal_view, "__wrapped__", build)
    assert ideal_view(_abc()).lattice.n == 3
    clear_caches()


def test_each_component_has_one_memo(lifting_run):
    assert [m.__name__ for m in list(COMPONENTS) if m.__wrapped__ in COMPONENTS] == []
    comonad, monad = instances.IDEAL_COMONAD_ON_FRAMES, instances.IDEAL_MONAD_ON_LOCALES
    for ours, theirs in ((comonad.counit, monad.unit), (comonad.comult, monad.mult)):
        assert ours.component.table is theirs.component.table
        assert ours.component.table


def test_equal_assignments_of_the_stored_maps_are_one_tuple(lifting_run):
    maps = [f for memo in lifting_run for f in memo.table.values()]
    held = {}
    for f in maps:
        held.setdefault(f.assignment, set()).add(id(f.assignment))
    # many maps repeat an assignment, so sharing it is not vacuous
    assert len(maps) > 4 * len(held) > 0
    assert [a for a, ids in held.items() if len(ids) > 1] == []


def test_built_and_composed_maps_share_their_assignment():
    clear_caches()
    lat = _abc()
    identity = LatticeHom(lat, lat, [0, 1, 2])
    assert identity.assignment == (0, 1, 2)
    assert compose_homs(identity, identity).assignment is identity.assignment
    assert LatticeHom(lat, lat, (0, 1, 2)).assignment is identity.assignment
    assert memo.shared.table == {(0, 1, 2): identity.assignment}
    clear_caches()
    assert memo.shared.table == {}
