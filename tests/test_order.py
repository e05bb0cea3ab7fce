"""Posets: closure, canonical order, covers, isomorphism search."""

import random

import pytest
from hypothesis import given, strategies as st

from stonekit import order
from stonekit.bitsets import bits, mask_of
from stonekit.errors import CycleError
from stonekit.order import (
    FinPoset,
    antichain,
    chain,
    covers,
    cycle_pair,
    is_transitive,
    isomorphism,
    make_poset,
    order_closure,
    poset_isomorphic,
    preorder_closure,
    poset_isomorphism,
    transpose,
    up_sets,
)
from stonekit.universes import all_posets_upto, all_spaces_upto

NAMES = ["a", "b", "c", "d"]


def small_posets(max_n=4):
    """Hypothesis strategy: a poset from random generating pairs."""

    def build(data):
        n, pair_picks = data
        names = NAMES[:n]
        pairs = [(names[i], names[j]) for i, j in pair_picks if i != j]
        try:
            return order_closure(names, pairs)
        except CycleError:
            return None

    return (
        st.integers(min_value=0, max_value=max_n)
        .flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, max(n - 1, 0)),
                        st.integers(0, max(n - 1, 0)),
                    ),
                    max_size=6,
                ),
            )
        )
        .map(build)
        .filter(lambda p: p is not None)
    )


def test_chain_closure_has_all_pairs():
    p = chain(["x", "y", "z"])
    assert len(p.pairs()) == 6  # 3 reflexive + 3 strict
    assert p.leq("x", "z")
    assert not p.leq("z", "x")


def test_cycle_detected_with_witness():
    with pytest.raises(CycleError) as exc:
        order_closure(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert set(exc.value.witness) <= {"a", "b", "c"}


def test_preorder_closure_keeps_cycles():
    # 0 <= 1 <= 0 and 1 <= 2: the closure relates 0 and 1 both ways
    assert preorder_closure([0b010, 0b101, 0b000]) == (0b111, 0b111, 0b100)
    assert preorder_closure([]) == ()


def preorder_closure_fixpoint(up):
    """Twin of preorder_closure: extend every mask by the masks of its
    members, and rerun until no mask grows."""
    up = [m | 1 << i for i, m in enumerate(up)]
    changed = True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = up[i]
            for j in bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return tuple(up)


def test_preorder_closure_matches_the_fixed_point_loop(monkeypatch):
    # every relation on at most 3 elements, then sparse seeded relations on
    # 4 to 8, whose closures follow paths of several steps
    rng = random.Random(18)
    samples = [masks for n in range(4) for masks in relations(n)]
    for _ in range(2000):
        n = rng.randint(4, 8)
        density = rng.random() * 2 / n
        samples.append(
            tuple(
                mask_of(j for j in range(n) if rng.random() < density)
                for _ in range(n)
            )
        )

    def refuse(*args):
        raise AssertionError("called by the twin")

    with monkeypatch.context() as patched:
        patched.setattr(order, "preorder_closure", refuse)
        expected = [preorder_closure_fixpoint(masks) for masks in samples]
    # the sample is not degenerate: many distinct 8-point closures other
    # than the complete relation
    eight = {c for c in expected if len(c) == 8 and len(set(c)) > 1}
    assert len(eight) > 300
    for masks, closed in zip(samples, expected):
        assert preorder_closure(masks) == closed, masks


def test_canonical_order_ignores_input_order():
    p = order_closure(["c", "a", "b"], [("a", "b"), ("b", "c")])
    q = order_closure(["b", "c", "a"], [("a", "b"), ("b", "c")])
    assert p == q
    assert p.elements == ("a", "b", "c")


def test_canonical_order_breaks_ties_by_name():
    assert antichain(["d", "b", "c", "a"]).elements == ("a", "b", "c", "d")


def test_unknown_element_in_pair_rejected():
    with pytest.raises(ValueError):
        order_closure(["a"], [("a", "z")])


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        order_closure(["a", "a"], [])


def test_constructor_requires_linear_extension():
    # b below a but listed after it
    with pytest.raises(ValueError):
        FinPoset(("a", "b"), (0b11, 0b10))


def test_covers_of_diamond():
    p = order_closure(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )
    assert set(p.cover_pairs()) == {
        ("bot", "l"),
        ("bot", "r"),
        ("l", "top"),
        ("r", "top"),
    }


def test_covers_skip_transitive_edges():
    assert chain(["x", "y", "z"]).cover_pairs() == (("x", "y"), ("y", "z"))


def covers_by_search(down):
    """Twin of covers by its definition: i strictly below j, and no k with
    i strictly below k strictly below j, searched over every k."""
    n = len(down)

    def strictly_below(a, b):
        return (down[b] >> a) & 1 and not (down[a] >> b) & 1

    return tuple(
        (i, j)
        for j in range(n)
        for i in range(n)
        if strictly_below(i, j)
        and not any(strictly_below(i, k) and strictly_below(k, j) for k in range(n))
    )


def covers_of_poset_loop(p):
    """Second twin of covers, on posets only: for each strict lower bound i
    of j, a search of the points between them for one strictly above i."""
    out = []
    for j in range(p.n):
        strict = p.down[j] ^ (1 << j)
        for i in bits(strict):
            between = strict & ~p.down[i]
            # e_i < e_k < e_j for some k iff some bit of `between` other
            # than i itself sits strictly above e_i
            if not any(k != i and p.leq_index(i, k) for k in bits(between)):
                out.append((i, j))
    return tuple(out)


def test_covers_match_the_definitional_search_on_posets():
    posets = all_posets_upto(5)
    assert len(posets) == 1 + 1 + 3 + 19 + 219 + 4231
    for p in posets:
        assert (
            covers(p.down, transpose(p.down))
            == covers_by_search(p.down)
            == covers_of_poset_loop(p)
        ), p


def test_covers_match_the_definitional_search_on_preorders():
    # the specialization preorders of the spaces on at most 4 points are all
    # the preorders there are; 147 of them relate two points both ways
    spaces = all_spaces_upto(4)
    assert len(spaces) == 1 + 1 + 4 + 29 + 355
    cyclic = 0
    for x in spaces:
        up = x.up
        cyclic += cycle_pair(up) is not None
        down = transpose(up)
        assert covers(down, up) == covers_by_search(down), x
    assert cyclic == 390 - (1 + 1 + 3 + 19 + 219)
    # 0 ~ 1 both below 2: each of them is covered by 2, and not by the other
    down = (0b011, 0b011, 0b111)
    assert covers(down, transpose(down)) == ((0, 2), (1, 2))


def test_restrict_induced_order():
    p = chain(["x", "y", "z"])
    q = p.restrict(0b101)  # x and z
    assert q.elements == ("x", "z")
    assert q.leq("x", "z")


def test_isomorphism_found_for_relabeled_poset():
    p = order_closure(["a", "b", "c"], [("a", "b"), ("a", "c")])
    q = order_closure(["x", "y", "z"], [("z", "x"), ("z", "y")])
    iso = poset_isomorphism(p, q)
    assert iso is not None
    assert iso[p.index("a")] == q.index("z")


def test_isomorphism_rejects_different_shapes():
    assert not poset_isomorphic(chain(["a", "b"]), antichain(["a", "b"]))
    v = order_closure(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert not poset_isomorphic(chain(["a", "b", "c"]), v)


def relations(n):
    """Every relation on n elements as up-masks (bit j of masks[i]: i R j)."""
    for code in range(1 << (n * n)):
        yield tuple((code >> (i * n)) & ((1 << n) - 1) for i in range(n))


def test_transitivity_test_matches_its_definition():
    for n in range(4):
        for masks in relations(n):
            expected = all(
                (masks[i] >> k) & 1
                for i in range(n)
                for j in bits(masks[i])
                for k in bits(masks[j])
            )
            assert is_transitive(masks) == expected, masks


def closed_sets_scan(masks):
    """Twin of up_sets on a reflexive transitive relation: every subset that
    holds masks[i] for each of its members i, by a scan of all 2^n."""
    return tuple(
        m for m in range(1 << len(masks)) if all(masks[i] & ~m == 0 for i in bits(m))
    )


def test_up_sets_match_the_closed_set_scan():
    # every preorder on at most 4 points is the closure of a relation; the
    # converse of each is among them, so down-masks are covered as well as
    # up-masks, and the posets are the antisymmetric ones
    preorders = {preorder_closure(masks) for n in range(5) for masks in relations(n)}
    assert len(preorders) == 1 + 1 + 4 + 29 + 355
    assert sum(cycle_pair(up) is None for up in preorders) == 1 + 1 + 3 + 19 + 219
    for up in preorders:
        assert up_sets(up) == closed_sets_scan(up), up
    assert up_sets([0b011, 0b110]) == (0b000, 0b011, 0b110, 0b111)


def test_empty_poset():
    p = antichain([])
    assert p.n == 0
    assert p.pairs() == ()


@given(small_posets())
def test_closure_is_idempotent(p):
    assert order_closure(list(p.elements), p.pairs()) == p


@given(small_posets())
def test_cover_pairs_regenerate_the_order(p):
    assert order_closure(list(p.elements), p.cover_pairs()) == p


@given(small_posets())
def test_up_and_down_masks_agree(p):
    ups = transpose(p.down)
    for i in range(p.n):
        for j in range(p.n):
            assert ((ups[i] >> j) & 1) == ((p.down[j] >> i) & 1)


@given(small_posets())
def test_canonicalization_is_input_order_independent(p):
    n = p.n
    names = [p.elements[n - 1 - i] for i in range(n)]
    down = [
        mask_of(n - 1 - j for j in bits(p.down[n - 1 - i])) for i in range(n)
    ]
    assert make_poset(names, down) == p


def test_networkx_agrees_on_the_closure_and_the_covers():
    # an oracle outside the package: imported here, so that a missing
    # networkx fails this test instead of skipping it
    import networkx

    rng = random.Random(20261020)
    for _ in range(2000):
        n = rng.randint(0, 7)
        density = rng.random()
        up = tuple(
            mask_of(j for j in range(n) if rng.random() < density) for _ in range(n)
        )
        graph = networkx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from((i, j) for i in range(n) for j in bits(up[i]))
        closed = networkx.transitive_closure(graph, reflexive=True)
        expected = tuple(mask_of(closed.successors(i)) for i in range(n))
        assert preorder_closure(up) == expected, up
    posets = all_posets_upto(5)
    assert len(posets) == 4474
    for p in posets:
        graph = networkx.DiGraph()
        graph.add_nodes_from(range(p.n))
        graph.add_edges_from(
            (i, j) for j in range(p.n) for i in bits(p.down[j]) if i != j
        )
        reduced = networkx.transitive_reduction(graph)
        expected = tuple(sorted(reduced.edges, key=lambda e: (e[1], e[0])))
        assert covers(p.down, transpose(p.down)) == expected, p


def _strict_digraph(networkx, down):
    """The strict order of down-masks as a digraph: i -> j for i below j."""
    graph = networkx.DiGraph()
    graph.add_nodes_from(range(len(down)))
    graph.add_edges_from((i, j) for j, d in enumerate(down) for i in bits(d) if i != j)
    return graph


def test_networkx_agrees_on_isomorphism():
    # VF2 on the strict orders, on every unordered same-size pair of
    # posets of at most 4 elements; a bijection found must carry the one
    # relation onto the other
    import networkx

    posets = all_posets_upto(4)
    graphs = [_strict_digraph(networkx, p.down) for p in posets]
    pairs = found = 0
    for a, p in enumerate(posets):
        for b in range(a, len(posets)):
            q = posets[b]
            if q.n != p.n:
                continue
            f = isomorphism(p.down, q.down)
            assert (f is not None) == networkx.is_isomorphic(graphs[a], graphs[b]), (p, q)
            if f is not None:
                assert {(f[i], f[j]) for i, j in graphs[a].edges} == set(graphs[b].edges)
                found += 1
            pairs += 1
    assert pairs == 1 + 1 + 3 * 4 // 2 + 19 * 20 // 2 + 219 * 220 // 2
    assert 0 < found < pairs


def test_networkx_gives_the_canonical_order_of_make_poset():
    # the canonical order is the topological order that takes the least
    # name among the ready elements: networkx's lexicographical sort keyed
    # by name, on posets given under random names and in random order
    import networkx

    rng = random.Random(20261020)
    pool = [a + b for a in "pqrs" for b in "0123456789"]
    posets = all_posets_upto(5)
    assert len(posets) == 4474
    for p in posets:
        names = rng.sample(pool, p.n)
        listing = rng.sample(range(p.n), p.n)
        pos = {old: new for new, old in enumerate(listing)}
        down = [mask_of(pos[i] for i in bits(p.down[old])) for old in listing]
        q = make_poset(names, down)
        graph = _strict_digraph(networkx, down)
        expected = networkx.lexicographical_topological_sort(graph, key=names.__getitem__)
        assert q.elements == tuple(names[k] for k in expected), (names, down)
        assert set(q.pairs()) == {
            (names[i], names[j]) for j, d in enumerate(down) for i in bits(d)
        }
