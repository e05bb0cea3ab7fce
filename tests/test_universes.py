"""Enumeration backbone: labeled counts and cross-checked oracles."""

from itertools import product

import pytest

from stonekit import order, universes
from stonekit.errors import BudgetExceeded
from stonekit.order import cycle_pair, is_transitive, monotone_maps
from stonekit.spaces import continuity_violation, discrete_space, sierpinski
from stonekit.universes import (
    _relation_candidates,
    all_continuous_maps,
    all_posets,
    all_spaces,
    all_spaces_upto,
    all_topology_families_bruteforce,
    lattice_universe,
)


def _relation_candidates_filter(n: int, antisymmetric: bool):
    """Reflexive transitive up-masks over n elements, optionally antisymmetric."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for pick in range(1 << len(offdiag)):
        up = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(offdiag):
            if (pick >> b) & 1:
                up[i] |= 1 << j
        if not is_transitive(up):
            continue
        if antisymmetric and cycle_pair(up) is not None:
            continue
        yield tuple(up)


def pick_code(up):
    """Bit b is set when the b-th off-diagonal pair (i, j), i major, is related."""
    offdiag = [(i, j) for i in range(len(up)) for j in range(len(up)) if i != j]
    return sum(1 << b for b, (i, j) in enumerate(offdiag) if (up[i] >> j) & 1)


@pytest.mark.parametrize("antisymmetric", [True, False])
def test_one_point_extension_matches_the_relation_filter(antisymmetric):
    for n in range(5):
        assert _relation_candidates(n, antisymmetric) == list(
            _relation_candidates_filter(n, antisymmetric)
        ), n


@pytest.mark.parametrize("antisymmetric,count", [(True, 4231), (False, 6942)])
def test_five_point_relations_are_the_filter_output(antisymmetric, count):
    # The filter yields exactly the valid relations in ascending pick code, so
    # a list of valid relations in strictly ascending code, as many as there
    # are (A001035 and A000798), is the filter's list without its 2^20 scan.
    rels = _relation_candidates(5, antisymmetric)
    assert len(rels) == count
    codes = [pick_code(up) for up in rels]
    assert all(a < b for a, b in zip(codes, codes[1:]))
    for up in rels:
        assert all((m >> i) & 1 for i, m in enumerate(up)), up
        assert is_transitive(up), up
        assert not antisymmetric or cycle_pair(up) is None, up


def test_the_generator_does_not_call_the_checks_it_is_compared_by(monkeypatch):
    def refuse(*args):
        raise AssertionError("called by the generator")

    assert not hasattr(universes, "is_transitive")
    assert not hasattr(universes, "cycle_pair")
    monkeypatch.setattr(order, "is_transitive", refuse)
    monkeypatch.setattr(order, "cycle_pair", refuse)
    assert [len(_relation_candidates(4, a)) for a in (True, False)] == [219, 355]


def test_labeled_poset_counts():
    assert [len(all_posets(n)) for n in range(6)] == [1, 1, 3, 19, 219, 4231]


def test_labeled_topology_counts():
    assert [len(all_spaces(n)) for n in range(6)] == [1, 1, 4, 29, 355, 6942]


def test_topology_enumeration_matches_brute_force_oracle():
    for n in range(4):
        via_preorders = sorted(s.opens for s in all_spaces(n))
        assert via_preorders == sorted(all_topology_families_bruteforce(n))


def test_four_point_topologies_match_brute_force_oracle():
    assert sorted(s.opens for s in all_spaces(4)) == sorted(
        all_topology_families_bruteforce(4)
    )


def test_lattice_universe_size_and_bounds():
    lats = lattice_universe(4)
    assert len(lats) == 243
    assert max(l.n for l in lats) == 16
    assert len(lattice_universe(3)) == 24
    assert len(lattice_universe(5)) == 4474


def test_spaces_recover_their_defining_preorder():
    seen = set()
    for space in all_spaces(3):
        up = space.up
        assert up not in seen  # enumeration is one topology per preorder
        seen.add(up)


def test_enumeration_guard_rails():
    with pytest.raises(BudgetExceeded):
        all_posets(6)
    with pytest.raises(BudgetExceeded):
        all_spaces(7)


def test_continuous_map_count_on_sierpinski():
    s = sierpinski()
    assert len(list(all_continuous_maps(s, s))) == 3  # the swap is not continuous


def test_all_maps_from_discrete_are_continuous():
    d = discrete_space(["p", "q"])
    assert len(list(all_continuous_maps(d, sierpinski()))) == 4


def test_continuous_map_budget_refuses_before_the_first_map():
    d = discrete_space(list("pqrstuv"))
    maps = all_continuous_maps(d, d)
    with pytest.raises(BudgetExceeded, match="^823543 assignments exceed the limit 200000$"):
        next(maps)


def test_continuous_maps_are_the_monotone_maps_of_the_specialization_orders():
    # twin: every assignment, in ascending order, that continuity_violation
    # accepts, on each pair of spaces of at most 3 points
    spaces = all_spaces_upto(3)
    maps = 0
    for x in spaces:
        for y in spaces:
            expected = [
                f for f in product(range(y.n), repeat=x.n)
                if continuity_violation(x, y, f) is None
            ]
            assert list(monotone_maps(x.up, y.up)) == expected, (x, y)
            maps += len(expected)
    assert maps == 11_345


def test_empty_space_has_one_map_in():
    empty = discrete_space([])
    assert len(list(all_continuous_maps(empty, sierpinski()))) == 1
    assert len(list(all_continuous_maps(sierpinski(), empty))) == 0


def test_spaces_upto_counts():
    assert len(all_spaces_upto(3)) == 1 + 1 + 4 + 29
