"""Generic categorical checkers, proven able to say yes and no."""

from collections import Counter

import pytest

from stonekit.catengine import (
    AlgebraInstance,
    LawCheck,
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
    require_laws,
    NatTransInstance,
)
from stonekit.errors import CounitNotIso, HypothesisFailed, UniverseMismatch
from stonekit.spaces import (
    ContinuousMap,
    closure_initiality_witness,
    closure_of,
    discrete_space,
    disjoint_union,
    identity_map,
    indiscrete_space,
    is_closure_initial,
    sierpinski,
    subspace,
)
from stonekit.universes import all_spaces_upto

from faults import (
    all_functions,
    closure_monad,
    collapsing_transformation,
    counit_gap_fixture,
    direct_image_adjunction,
    finset_universe,
    fresh_point_algebra,
    fresh_point_functor,
    fresh_point_monad,
    flipped_tagging_comonad,
    fresh_swap_transformation,
    inclusions,
    misfolded_algebra,
    misrouted_mult_monad,
    powerset_universe,
    reversing_endofunctor,
    swap_counit_adjunction,
    tagging_comonad,
    topological_closure_monad,
)

SIZES = (0, 1, 2, 3)


def finset_morphisms():
    out = []
    for a in SIZES:
        for b in SIZES:
            out.extend(all_functions(a, b))
    return tuple(out)


def functor_laws(f, objects, morphisms):
    return check_functor_identity(f, objects), check_functor_composition(f, morphisms)


def test_fresh_point_functor_laws():
    checks = functor_laws(fresh_point_functor(), SIZES, finset_morphisms())
    assert all(c.ok for c in checks)


def test_fresh_point_monad_laws():
    t = fresh_point_monad()
    assert all(c.ok for c in check_monad_laws(t, SIZES))
    assert check_naturality(t.unit, finset_morphisms()).ok
    assert check_naturality(t.mult, finset_morphisms()).ok


def test_fresh_point_algebras():
    alg = fresh_point_algebra(2, 0)
    assert all(c.ok for c in check_algebra(alg))
    other = fresh_point_algebra(1, 0)
    fold = (2, 1, (0, 0))
    assert check_algebra_morphism(alg, other, fold)
    skewed = fresh_point_algebra(2, 1)
    keep = (2, 2, (0, 1))
    assert not check_algebra_morphism(skewed, alg, keep)


def test_reversing_endofunctor_is_rejected():
    identity = check_functor_identity(reversing_endofunctor(), SIZES)
    assert not identity.ok
    assert identity.witness == "2"


def test_misrouted_mult_is_rejected():
    left, right, _ = check_monad_laws(misrouted_mult_monad(), SIZES)
    assert left.ok
    assert not right.ok
    assert right.witness == "1"


def verdicts(checks):
    return [(c.name, c.ok, c.witness) for c in checks]


def test_tagging_comonad_laws():
    k = tagging_comonad()
    assert all(c.ok for c in functor_laws(k.functor, SIZES, finset_morphisms()))
    assert check_naturality(k.unit, finset_morphisms()).ok
    assert check_naturality(k.mult, finset_morphisms()).ok
    assert verdicts(check_monad_laws(k, SIZES)) == [
        ("tagging: left unit", True, None),
        ("tagging: right unit", True, None),
        ("tagging: associativity", True, None),
    ]


def test_flipped_tagging_is_rejected():
    assert verdicts(check_monad_laws(flipped_tagging_comonad(), SIZES)) == [
        ("flipped tagging: left unit", True, None),
        ("flipped tagging: right unit", False, "1"),
        ("flipped tagging: associativity", False, "1"),
    ]


def test_coalgebras_are_algebras_of_the_opposite_monad():
    t = tagging_comonad()
    # the counit forgets the tag; the comultiplication copies it
    assert (t.unit.component(3), t.mult.component(3)) == (
        (6, 3, (0, 1, 2, 0, 1, 2)),
        (6, 12, (0, 1, 2, 9, 10, 11)),
    )
    # a structure map 3 -> 6 sends x to (tag, x), at index tag * 3 + x
    by_parity = (3, 6, (0, 4, 2))
    assert all(c.ok for c in check_algebra(AlgebraInstance(t, 3, by_parity)))
    # x to (0, x + 1): the counit does not give x back
    shifted = (3, 6, (1, 2, 0))
    unit, _ = check_algebra(AlgebraInstance(t, 3, shifted))
    assert not unit.ok


def test_collapsing_transformation_is_rejected():
    check = check_naturality(collapsing_transformation(), finset_morphisms())
    assert not check.ok
    assert check.witness == "(1, 2, (1,))"


def test_misfolded_algebra_is_rejected():
    unit, _ = check_algebra(misfolded_algebra())
    assert not unit.ok


def test_swap_counit_pose_is_rejected():
    adj = swap_counit_adjunction()
    first, second = check_left_triangle(adj, SIZES), check_right_triangle(adj, SIZES)
    assert not first.ok and first.witness == "2"
    assert not second.ok and second.witness == "2"


def test_fresh_swap_is_not_a_monad_morphism():
    t = fresh_point_monad()
    unit, _ = check_monad_morphism(fresh_swap_transformation(), t, t, SIZES)
    assert not unit.ok
    assert unit.witness == "1"


def test_a_law_over_no_case_fails():
    # a check over an empty pool has proved nothing, so it is no PASS
    f = fresh_point_functor()
    empty = LawCheck("add fresh point: composition", False, "no case checked")
    assert check_functor_composition(f, ()) == empty
    # no pair of these composes: each map's target is no map's source
    assert check_functor_composition(f, all_functions(1, 2)) == empty
    assert check_functor_identity(f, ()).witness == "no case checked"
    assert [(c.ok, c.witness) for c in check_monad_laws(fresh_point_monad(), [])] == [
        (False, "no case checked")
    ] * 3
    assert not check_naturality(fresh_point_monad().unit, ()).ok


def test_require_laws_raises_on_failure():
    checks = check_monad_laws(misrouted_mult_monad(), SIZES)
    with pytest.raises(HypothesisFailed, match="right unit"):
        require_laws(checks)
    require_laws(check_monad_laws(fresh_point_monad(), SIZES))


def test_lawcheck_renders_a_status_line():
    ok_line, fail_line = check_monad_laws(misrouted_mult_monad(), SIZES)[:2]
    assert str(ok_line).startswith("ok")
    assert str(fail_line).startswith("FAIL") and "[1]" in str(fail_line)


# ---------------------------------------------------------------------------
# subset orders


def test_topological_closure_is_a_monad():
    for x in (sierpinski(), discrete_space(["a", "b"]), indiscrete_space(["a", "b"])):
        t = topological_closure_monad(x)
        subsets = tuple(range(1 << x.n))
        assert all(c.ok for c in check_monad_laws(t, subsets))
        checks = functor_laws(t.functor, subsets, inclusions(x.n))
        assert all(c.ok for c in checks)
        assert check_naturality(t.unit, inclusions(x.n)).ok


def test_direct_image_adjunction_triangles():
    adj = direct_image_adjunction(3, 2, (0, 1, 1))
    low = tuple(range(8))
    high = tuple(range(4))
    assert check_left_triangle(adj, low).ok and check_right_triangle(adj, high).ok
    assert check_naturality(adj.unit, inclusions(3)).ok
    assert check_naturality(adj.counit, inclusions(2)).ok


def sierpinski_closure_setup():
    adj = direct_image_adjunction(3, 2, (0, 1, 1))
    s = sierpinski()
    t = closure_monad(
        adj.left.target, lambda a: closure_of(s, a), "downstream closure"
    )
    return adj, t, lift_monad(adj, t)


def test_lifted_closure_is_a_monad():
    adj, t, m = sierpinski_closure_setup()
    subsets = tuple(range(8))
    assert all(c.ok for c in check_monad_laws(m, subsets))
    checks = functor_laws(m.functor, subsets, inclusions(3))
    assert all(c.ok for c in checks)
    # the lifted operator closes downstream, then pulls back
    assert m.functor.on_object(0b010) == 0b111
    assert m.functor.on_object(0b001) == 0b001


def test_lift_law_squares():
    adj, t, m = sierpinski_closure_setup()
    checks = check_lift_law(adj, t, lift_law(adj, t), m, tuple(range(4)))
    assert [c.name for c in checks if c.ok] == [
        "lift-law(downstream closure): unit square",
        "lift-law(downstream closure): multiplication square",
    ]


def test_comparison_round_trip_from_inner_algebras():
    adj, t, m = sierpinski_closure_setup()
    closed = [a for a in range(4) if t.functor.on_object(a) == a]
    assert closed == [0b00, 0b01, 0b11]
    for a in closed:
        t_alg = AlgebraInstance(t, a, (a, a))
        assert all(c.ok for c in check_algebra(t_alg))
        m_alg = comparison_algebra(adj, lift_law(adj, t), m, t_alg)
        assert all(c.ok for c in check_algebra(m_alg))
        back = inverse_comparison(adj, t, m_alg)
        assert back.carrier == t_alg.carrier
        assert back.structure == t_alg.structure


def test_comparison_round_trip_from_outer_algebras():
    adj, t, m = sierpinski_closure_setup()
    fixed = [a for a in range(8) if m.functor.on_object(a) == a]
    for a in fixed:
        m_alg = AlgebraInstance(m, a, (a, a))
        assert all(c.ok for c in check_algebra(m_alg))
        back = inverse_comparison(adj, t, m_alg)
        assert all(c.ok for c in check_algebra(back))
        again = comparison_algebra(adj, lift_law(adj, t), m, back)
        assert again.carrier == m_alg.carrier
        assert again.structure == m_alg.structure


def test_inverse_comparison_refuses_counit_gap():
    adj, t, m_alg = counit_gap_fixture()
    with pytest.raises(CounitNotIso) as exc:
        inverse_comparison(adj, t, m_alg)
    assert exc.value.at == "5"


def test_lifted_monad_morphism():
    adj = direct_image_adjunction(3, 2, (0, 1, 1))
    u = adj.left.target
    s = sierpinski()
    ind = indiscrete_space(["a", "b"])
    t1 = closure_monad(u, lambda a: closure_of(s, a), "fine closure")
    t2 = closure_monad(u, lambda a: closure_of(ind, a), "coarse closure")
    sigma = NatTransInstance(
        "coarsen",
        t1.functor,
        t2.functor,
        lambda a: (t1.functor.on_object(a), t2.functor.on_object(a)),
    )
    assert all(c.ok for c in check_monad_morphism(sigma, t1, t2, tuple(range(4))))
    m1, m2 = lift_monad(adj, t1), lift_monad(adj, t2)
    lifted = lift_monad_morphism(adj, sigma, m1, m2)
    assert all(c.ok for c in check_monad_morphism(lifted, m1, m2, tuple(range(8))))
    assert check_naturality(lifted, inclusions(3)).ok


def test_lift_composite_collapse_is_invertible():
    adj, t, _ = sierpinski_closure_setup()
    u = adj.left.target
    n = closure_monad(u, lambda a: a | 0b10, "fill the top point")
    phi = lift_composite_iso(adj, n.functor, t.functor)
    low = adj.left.source
    for a in range(8):
        component = phi.component(a)
        assert low.invert(component) is not None
        assert phi.source.on_object(a) == phi.target.on_object(a)
    assert check_naturality(phi, inclusions(3)).ok


def test_composite_of_functors_relabels():
    u = finset_universe()
    twice = compose_functors(fresh_point_functor(), fresh_point_functor())
    assert twice.on_object(3) == 5
    with pytest.raises(UniverseMismatch, match="universes differ"):
        compose_functors(
            fresh_point_functor(),
            identity_functor(powerset_universe(2)),
        )
    assert identity_functor(u).on_object(7) == 7


# ---------------------------------------------------------------------------
# closure-initial maps


def test_subspace_inclusions_are_closure_initial():
    big = disjoint_union(sierpinski(), discrete_space(["p"]))
    for mask in range(1 << big.n):
        _, inclusion = subspace(big, mask)
        assert is_closure_initial(inclusion)


def test_identity_maps_are_closure_initial():
    for x in all_spaces_upto(2):
        assert is_closure_initial(identity_map(x))


def test_weakening_the_topology_loses_initiality():
    fine = discrete_space(["a", "b"])
    coarse = indiscrete_space(["a", "b"])
    f = ContinuousMap(fine, coarse, (0, 1))
    assert not is_closure_initial(f)
    assert closure_initiality_witness(f) == 0b01


def test_components_are_computed_once_per_object():
    calls = Counter()
    base = fresh_point_monad()

    def counted(kind, component):
        def at(n):
            calls[kind, n] += 1
            return component(n)

        return at

    t = make_monad(
        "counted fresh point",
        base.functor,
        counted("unit", base.unit.component),
        counted("mult", base.mult.component),
    )
    for _ in range(3):
        assert all(c.ok for c in check_monad_laws(t, SIZES))
        assert check_naturality(t.unit, finset_morphisms()).ok
        assert check_naturality(t.mult, finset_morphisms()).ok
    assert {n for kind, n in calls if kind == "mult"} >= set(SIZES)
    assert set(calls.values()) == {1}


def test_make_monad_names_the_pieces():
    t = make_monad(
        "fresh point",
        fresh_point_functor(),
        lambda n: (n, n + 1, tuple(range(n))),
        lambda n: (n + 2, n + 1, tuple(range(n)) + (n, n)),
    )
    assert t.unit.name == "fresh point.unit"
    assert t.mult.name == "fresh point.mult"
    assert t.universe is finset_universe()
