"""The memo tables: one table builder and one registry, views and component
tables keyed by their one argument, one table per component, no table
built after import, and one stored tuple per distinct assignment."""

import gc
import sys
from weakref import WeakSet

import pytest

from stonekit import instances, memo
from stonekit.catengine import (
    FunctorInstance,
    MonadInstance,
    NatTransInstance,
    Universe,
)
from stonekit.dlat import LatticeHom, compose_homs, ideal_view, lattice_from_poset
from stonekit.instances import run_suite
from stonekit.memo import TABLES, clear_caches, itself, keyed
from stonekit.order import chain
from test_cli import SUITE_PINS

# the views and pools: the module tables keyed by their one argument, not
# by a name-free value (test_frame.NAME_FREE_VALUE lists the others)
VIEWS = {
    "ideal_view",
    "center_view",
    "spectrum_view",
    "open_frame_view",
    "filter_space_view",
    "all_posets",
    "all_spaces",
    "lattice_universe",
    "frame_morphisms",
    "space_morphisms",
}


def module_tables() -> dict:
    """The memo tables that their own stonekit modules hold, by name: the
    name-free memos, views and pools, without the component tables of the
    natural transformations."""
    return {
        table.__name__: table
        for table in sorted(TABLES, key=lambda t: (t.__module__, t.__name__))
        if table.__module__.startswith("stonekit.")
        and getattr(sys.modules[table.__module__], table.__name__, None) is table
    }


def _abc():
    return lattice_from_poset(chain(["a", "b", "c"]))


@pytest.fixture
def lifting_run():
    """The live component tables after a lifting run from cleared caches."""
    clear_caches()
    try:
        assert len(list(run_suite("lifting", max_points=2))) == 733
        modules = set(module_tables().values())
        yield [t for t in TABLES if t not in modules and t.cache_info().currsize]
    finally:
        clear_caches()


def test_every_view_and_component_table_is_keyed_by_the_argument(lifting_run):
    views = [module_tables()[name] for name in VIEWS]
    tables = [view.table for view in views if view.table]
    tables += [table.table for table in lifting_run]
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
        name
        for name, view in module_tables().items()
        if name in VIEWS
        and (view.__wrapped__.__code__.co_argcount != 1 or view.__wrapped__.__defaults__)
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


def test_one_table_holds_every_key_and_is_registered_until_dropped():
    calls = []

    def parity(n, m):
        calls.append((n, m))
        return (n + m) % 2

    table = keyed(lambda n, m: n + m)(parity)
    assert table in TABLES and keyed(itself)(table) is table
    assert [table(1, 2), table(2, 1), table(2, 2)] == [1, 1, 0]
    assert calls == [(1, 2), (2, 2)] and table.table == {3: 1, 4: 0}
    assert table.cache_info() == (2, 2)
    clear_caches()
    assert table.table == {} and table.cache_info() == (0, 0)
    del table
    gc.collect()
    assert [t for t in TABLES if t.__wrapped__ is parity] == []


def _counting_init(cls, built):
    init = cls.__init__

    def __init__(self, *values):
        built.append(cls.__name__)
        init(self, *values)

    return __init__


@pytest.mark.parametrize("suite", sorted(SUITE_PINS))
def test_a_suite_run_builds_no_table_or_record_after_import(suite, monkeypatch):
    # a throwaway table would be gone from the weak registry by the end of
    # the run, so count the tables as they are registered, and the
    # structure records as they are built
    clear_caches()
    built = []

    class Counting(WeakSet):
        def add(self, table):
            built.append(table.__name__)
            super().add(table)

    registry = Counting(TABLES)
    built.clear()
    monkeypatch.setattr(memo, "TABLES", registry)
    for cls in (Universe, FunctorInstance, NatTransInstance, MonadInstance):
        monkeypatch.setattr(cls, "__init__", _counting_init(cls, built))
    try:
        assert len(list(run_suite(suite))) == SUITE_PINS[suite][0]
    finally:
        clear_caches()
    assert built == []


def test_each_component_has_one_memo(lifting_run):
    assert [t.__name__ for t in list(TABLES) if t.__wrapped__ in TABLES] == []


def test_equal_assignments_of_the_stored_maps_are_one_tuple(lifting_run):
    maps = [f for table in lifting_run for f in table.table.values()]
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
