"""Distributive lattices: tables, ideals, prime filters, Birkhoff duality.

Derived values asserted here (ideal masks, hom counts, witnesses) were
computed by the definitional brute-force routes first and then frozen.
"""

import random
import sys
from itertools import product

import pytest
from hypothesis import given, strategies as st

from stonekit import dlat, frame, order
from stonekit.dlat import (
    SUBSET_ORACLE_MAX_ELEMENTS,
    TWO,
    DistLattice,
    LatticeHom,
    all_lattice_homs,
    compose_homs,
    distributivity_witness,
    distributivity_witness_bruteforce,
    downset_lattice,
    downset_view,
    hom_violation,
    homs_to_2,
    homs_to_2_bruteforce,
    ideal_functor_hom,
    ideal_lattice,
    ideal_view,
    ideals_bruteforce,
    identity_hom,
    inclusion_view,
    is_distributive,
    join_irreducibles,
    lattice_from_poset,
    lattice_isomorphic,
    lattice_isomorphism,
    prime_filters,
    prime_filters_bruteforce,
    principal_embedding,
    principal_masks,
    union_hom,
)
from stonekit.bitsets import bits, format_subset, mask_of
from stonekit.errors import (
    BudgetExceeded,
    InvalidValue,
    InvariantViolated,
    NotALattice,
    NotDistributive,
)
from stonekit.frame import (
    WAY_BELOW_MAX_ELEMENTS,
    counit_hom,
    way_below,
    way_below_bruteforce,
)
from stonekit.order import (
    FinPoset,
    _unvalidated,
    antichain,
    chain,
    make_poset,
    order_closure,
    poset_isomorphic,
)
from stonekit.instances import frame_morphisms, run_suite
from stonekit.memo import clear_caches
from stonekit.spaces import open_frame_view
from stonekit.universes import (
    all_posets,
    all_posets_upto,
    all_spaces_upto,
    lattice_universe,
)
from test_memo import module_tables


def diamond():
    """2x2 Boolean lattice as downsets of a two-element antichain."""
    return downset_lattice(antichain(["a", "b"]))


def chain3():
    return downset_lattice(chain(["a", "b"]))  # {} < {a} < {a,b}


def m3_candidate():
    p = order_closure(
        ["0", "a", "b", "c", "1"],
        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"],
    )
    return DistLattice(p)


def tables(lat):
    """The meet and join tables of lat, read pair by pair."""
    pairs = range(lat.n)
    return (
        tuple(tuple(lat.meet(i, j) for j in pairs) for i in pairs),
        tuple(tuple(lat.join(i, j) for j in pairs) for i in pairs),
    )


def test_two_lattice_shape():
    two = TWO
    assert two.elements == ("0", "1")
    assert two.bot == 0 and two.top == 1


def test_diamond_layout():
    d = diamond()
    assert d.elements == ("{}", "{a}", "{b}", "{a,b}")
    assert d.elements[d.meet(1, 2)] == "{}"
    assert d.elements[d.join(1, 2)] == "{a,b}"


def test_downset_lattice_is_unions_and_intersections():
    view = downset_view(order_closure(["a", "b", "c"], [("a", "b")]))
    lat, masks = view.lattice, view.masks
    for i in range(lat.n):
        for j in range(lat.n):
            assert masks[lat.meet(i, j)] == masks[i] & masks[j]
            assert masks[lat.join(i, j)] == masks[i] | masks[j]


def test_missing_join_is_reported():
    v = order_closure(["bot", "l", "r"], [("bot", "l"), ("bot", "r")])
    with pytest.raises(NotALattice) as exc:
        lattice_from_poset(v)
    assert exc.value.kind == "join"
    assert set(exc.value.witness) == {"l", "r"}


def test_m3_rejected_with_witness():
    with pytest.raises(NotDistributive) as exc:
        lattice_from_poset(m3_candidate().poset)
    assert exc.value.witness == ("a", "b", "c")


def test_m3_candidate_is_a_lattice_but_not_distributive():
    m3 = m3_candidate()
    assert not is_distributive(m3)
    assert distributivity_witness(m3) == ("a", "b", "c")


def test_universe_lattices_are_distributive():
    assert all(is_distributive(l) for l in lattice_universe(3))


# ---------------------------------------------------------------------------
# ideals


def test_diamond_ideals_brute_force_frozen():
    assert ideals_bruteforce(diamond()) == (1, 3, 5, 15)


def test_every_ideal_is_principal_on_samples():
    for lat in (diamond(), chain3(), TWO):
        assert ideals_bruteforce(lat) == principal_masks(lat)


def test_subset_oracles_refuse_a_23_element_chain_before_any_subset():
    lat = lattice_from_poset(chain([f"c{i:02d}" for i in range(23)]))
    # the same chain with its order and tables withheld: an oracle that
    # reads a single subset fails on them instead of refusing
    hollow = _unvalidated(DistLattice, _unvalidated(FinPoset, lat.elements, None))
    assert SUBSET_ORACLE_MAX_ELEMENTS == WAY_BELOW_MAX_ELEMENTS == 22
    for oracle, what in (
        (ideals_bruteforce, "ideals"),
        (prime_filters_bruteforce, "prime filters"),
        (way_below_bruteforce, "way-below"),
        # visits no subset, but keeps the cap of its oracle
        (way_below, "way-below"),
    ):
        for target in (hollow, lat):
            with pytest.raises(BudgetExceeded) as err:
                oracle(target)
            assert str(err.value) == (
                f"{what} over all 2^23 subsets exceeds the cap of 22 elements"
            )


def test_ideal_rejects_non_join_closed():
    d = diamond()
    # {}, {a}, {b} is down-closed but misses the join of {a} and {b}
    assert 0b0111 not in ideals_bruteforce(d)
    assert 0b0111 not in ideal_view(d).masks


def test_ideal_rejects_empty_and_non_down_closed():
    d = diamond()
    for mask in (0, 0b1000):
        assert mask not in ideals_bruteforce(d)
        assert mask not in ideal_view(d).masks


def ideal_join(view, a, b):
    """The join of ideals a and b (masks) in the ideal lattice of the view."""
    i, j = view.indices_of((a, b))
    return view.masks[view.lattice.join(i, j)]


def test_ideal_join_of_two_principals():
    d = diamond()
    view = ideal_view(d)
    down = d.poset.down
    assert ideal_join(view, down[d.index("{a}")], down[d.index("{b}")]) == 0b1111


def test_directed_join_is_plain_union():
    c = chain3()
    view = ideal_view(c)
    for a in view.masks:
        for b in view.masks:
            assert ideal_join(view, a, b) == a | b


def join_closure_pairwise(lat, mask):
    """The join-closure of a mask by its definition: add the joins of its
    pairs until nothing is added."""
    grown = True
    while grown:
        grown = False
        members = list(bits(mask))
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                j = lat.join(members[x], members[y])
                if not (mask >> j) & 1:
                    mask |= 1 << j
                    grown = True
    return mask


def test_ideal_join_is_the_pairwise_join_closure():
    # the ideal lattice takes its joins from its order (_order_shape); by
    # the definition, the join of two ideals is the join-closure of their union
    pairs = 0
    for lat in lattice_universe(4):
        view = ideal_view(lat)
        for a in view.masks:
            for b in view.masks:
                closure = join_closure_pairwise(lat, a | b)
                assert ideal_join(view, a, b) == closure, (lat, a, b)
                pairs += 1
    assert pairs == 14183


def ideal_image(f, mask):
    """The image of an ideal (a mask) under the ideal functor's hom of f."""
    src, tgt = ideal_view(f.source), ideal_view(f.target)
    (i,) = src.indices_of((mask,))
    return tgt.masks[ideal_functor_hom(f).assignment[i]]


def test_ideal_image_of_embedding():
    two, d = TWO, diamond()
    f = LatticeHom(two, d, (0, 3))
    assert ideal_image(f, 0b11) == 0b1111


def test_ideal_image_of_collapse():
    c, two = chain3(), TWO
    f = LatticeHom(c, two, (0, 1, 1))  # send both nonzero levels to 1
    assert ideal_image(f, c.poset.down[c.index("{a}")]) == 0b11


def test_ideal_lattice_of_chain_is_a_chain():
    c = chain3()
    assert lattice_isomorphic(ideal_lattice(c), c)


def test_ideal_lattice_of_diamond():
    view = ideal_view(diamond())
    assert sorted(view.masks) == [1, 3, 5, 15]
    assert lattice_isomorphic(view.lattice, diamond())


def test_ideals_are_named_by_their_generators():
    for lat in lattice_universe(4):
        view = ideal_view(lat)
        names = view.lattice.elements
        assert len(set(names)) == len(names)
        for name, m in zip(names, view.masks):
            g = m.bit_length() - 1
            assert name == f"down({lat.elements[g]})"
            assert m == lat.poset.down[g]
        # the same family named by its members: equal masks give an order
        # isomorphism, so the names changed nothing but the labels
        old = inclusion_view(lat.elements, principal_masks(lat))
        iso = old.indices_of(view.masks)
        assert sorted(iso) == list(range(old.lattice.n))
        LatticeHom(view.lattice, old.lattice, iso)
        for i in range(lat.n):
            for j in range(lat.n):
                assert view.lattice.leq_index(i, j) == old.lattice.leq_index(
                    iso[i], iso[j]
                )


def _plain_ideal_lattice(lat):
    """The ideal lattice the definitional way: every ideal that
    ideals_bruteforce finds, named down(g) after the member g whose
    down-set it is, ordered by inclusion through make_poset. Returns the
    poset, the ideal of each element and the tables by _plain_tables."""
    masks = ideals_bruteforce(lat)
    down = lat.poset.down
    names = [f"down({lat.elements[down.index(m)]})" for m in masks]
    poset = make_poset(
        names, [mask_of(j for j, b in enumerate(masks) if b & ~a == 0) for a in masks]
    )
    by_name = dict(zip(names, masks))
    return poset, tuple(by_name[e] for e in poset.elements), _plain_tables(poset)


def assert_plain_ideal_lattice(lat):
    view = ideal_view(lat)
    poset, masks, plain = _plain_ideal_lattice(lat)
    assert view.lattice.poset == poset, lat
    assert view.lattice.elements == poset.elements
    assert view.masks == masks
    assert tables(view.lattice) == plain
    return view


def test_ideal_lattice_equals_the_plain_ideal_lattice():
    for lat in lattice_universe(4):
        assert_plain_ideal_lattice(lat)
    # ideal lattices of ideal lattices, three levels deep
    for lat in lattice_universe(3):
        for _ in range(3):
            lat = assert_plain_ideal_lattice(lat).lattice


def renaming_diamond():
    """A diamond whose atoms `a` and `a(1)` sort the other way once they
    are renamed down(a) and down(a(1)), since `(` sorts before `)`."""
    p = order_closure(
        ["0", "a", "a(1)", "1"],
        [("0", "a"), ("0", "a(1)"), ("a", "1"), ("a(1)", "1")],
    )
    return lattice_from_poset(p)


def test_ideal_lattice_whose_names_reorder_takes_the_inclusion_route():
    lat = renaming_diamond()
    assert lat.elements == ("0", "a", "a(1)", "1")
    view = assert_plain_ideal_lattice(lat)
    assert view.lattice.elements == ("down(0)", "down(a(1))", "down(a)", "down(1)")
    # the element order is the canonical one for the new names
    assert view.lattice.poset == make_poset(
        view.lattice.elements, view.lattice.poset.down
    )
    assert view.masks == (0b0001, 0b0101, 0b0011, 0b1111)


def test_ideal_lattice_of_m3_is_refused_with_the_inclusion_witness():
    m3 = m3_candidate()
    with pytest.raises(NotDistributive) as fast:
        ideal_view(m3)
    # the ideals of M3 ordered by inclusion are M3 again, named down(.)
    poset, _, plain = _plain_ideal_lattice(m3)
    slow = DistLattice(poset)
    assert tables(slow) == plain
    assert fast.value.witness == distributivity_witness_bruteforce(slow)


def test_set_operation_route_equals_lattice_from_poset_on_downsets():
    # down-sets are closed under & and |, so their meets and joins are
    # intersections and unions; the twin searches the order
    for p in all_posets_upto(4):
        view = downset_view(p)
        lat, masks = view.lattice, view.masks
        assert tables(lat) == _plain_tables(lat.poset)
        assert tables(lat) == tables(lattice_from_poset(lat.poset))
        for i in range(lat.n):
            for j in range(lat.n):
                assert masks[lat.meet(i, j)] == masks[i] & masks[j]
                assert masks[lat.join(i, j)] == masks[i] | masks[j]


def test_networkx_counts_the_down_sets_as_the_antichains():
    # an independent oracle: the down-sets of a finite poset are in
    # bijection with its antichains (each the maximal elements of one),
    # counted by networkx with the empty antichain included
    import networkx

    rng = random.Random(20261026)
    posets = list(all_posets_upto(4))
    for n in (6, 7, 8) * 3:
        names = [chr(ord("a") + i) for i in range(n)]
        pairs = [(x, y) for i, x in enumerate(names) for y in names[i + 1 :]]
        posets.append(order_closure(names, rng.sample(pairs, rng.randint(0, n + 2))))
    assert len(posets) == 243 + 9
    for p in posets:
        graph = networkx.DiGraph()
        graph.add_nodes_from(range(p.n))
        graph.add_edges_from(
            (i, j) for j in range(p.n) for i in bits(p.down[j]) if i != j
        )
        antichains = sum(1 for _ in networkx.antichains(graph))
        assert len(downset_view(p).masks) == antichains, p


def test_set_operation_route_declines_a_family_not_closed_under_union():
    # the principal ideals of the diamond: down(a) | down(b) is no ideal,
    # and the join is the least ideal above both
    d = diamond()
    view = inclusion_view(d.elements, principal_masks(d))
    lat = view.lattice
    assert view.masks[1] | view.masks[2] not in view.masks
    assert tables(lat) == _plain_tables(lat.poset)
    assert tables(lat) == tables(lattice_from_poset(lat.poset))
    assert view.masks[lat.join(1, 2)] == 0b1111


def test_a_subset_outside_the_family_is_an_invariant_violation():
    view = downset_view(chain(["a", "b"]))
    assert view.masks == (0b00, 0b01, 0b11)
    assert view.indices_of(view.masks) == (0, 1, 2)
    # the first mask that misses is the one named
    with pytest.raises(InvariantViolated, match="mask 0b10 is not a subset"):
        view.indices_of((0b01, 0b10, 0b111))


def test_an_ideal_image_missing_from_the_target_is_an_invariant_violation():
    # the memo's body with the top ideal left out of the target's masks: the
    # image of the top is then no ideal it holds
    lat = lattice_from_poset(chain(["a", "b", "c"]))
    view = ideal_view(lat)
    assert view.masks[-1] == 0b111
    with pytest.raises(
        InvariantViolated, match="^mask 0b111 is not a subset of the lattice$"
    ):
        dlat._ideal_image_assignment.__wrapped__(
            view.masks, lat.poset.down, (0, 1, 2), view.masks[:-1]
        )


def test_principal_embedding_is_iso_on_universe_samples():
    for lat in (TWO, chain3(), diamond()):
        emb = principal_embedding(lat)
        assert sorted(emb.assignment) == list(range(lat.n))


def test_ideal_union_inverts_unit():
    d = diamond()
    view = ideal_view(d)
    double = ideal_view(view.lattice)
    mult = union_hom(d)
    # the principal ideal that each ideal generates one level up
    for i, big in enumerate(double.indices_of(view.lattice.poset.down)):
        assert mult.assignment[big] == i


def test_union_hom_against_pointwise_union():
    for lat in lattice_universe(4):
        mult = union_hom(lat)
        view = ideal_view(lat)
        double = ideal_view(view.lattice)
        for i, big in enumerate(double.masks):
            union = 0
            for k in bits(big):
                union |= view.masks[k]
            assert view.masks[mult.assignment[i]] == union


def test_frame_join_algebra_unit_law():
    for lat in (TWO, chain3(), diamond()):
        alg = counit_hom(lat)
        emb = principal_embedding(lat)
        assert compose_homs(alg, emb).assignment == tuple(range(lat.n))


def test_ideal_functor_respects_identity_and_composition():
    c, d = chain3(), diamond()
    f = LatticeHom(c, d, (0, 1, 3))
    g = LatticeHom(d, TWO, (0, 0, 1, 1))
    assert ideal_functor_hom(identity_hom(c)) == identity_hom(ideal_lattice(c))
    assert ideal_functor_hom(compose_homs(g, f)) == compose_homs(
        ideal_functor_hom(g), ideal_functor_hom(f)
    )


# ---------------------------------------------------------------------------
# prime filters and characters


def test_prime_filter_counts_frozen():
    assert len(prime_filters(TWO)) == 1
    assert len(prime_filters(chain3())) == 2
    assert len(prime_filters(diamond())) == 2


def test_diamond_prime_filter_masks():
    masks = prime_filters(diamond())
    assert masks == (0b1010, 0b1100)  # up-sets of {a} and {b}


def test_fast_route_matches_brute_force():
    for lat in lattice_universe(4):
        fast = prime_filters(lat)
        assert fast == prime_filters_bruteforce(lat)
        # the characters pass hom_violation, which shares no code with the
        # prime-filter check behind both routes above
        ones = tuple(
            sum(v << i for i, v in enumerate(h.assignment))
            for h in homs_to_2_bruteforce(lat)
        )
        assert fast == ones


def test_characters_match_brute_force():
    for lat in (TWO, chain3(), diamond()):
        assert homs_to_2(lat) == homs_to_2_bruteforce(lat)


def test_character_filter_round_trip():
    # the ones of each character are the members of its prime filter
    for lat in lattice_universe(4):
        ones = tuple(
            mask_of(i for i, v in enumerate(h.assignment) if v) for h in homs_to_2(lat)
        )
        assert ones == prime_filters(lat)


# ---------------------------------------------------------------------------
# Birkhoff duality


def test_join_irreducibles_of_diamond_is_antichain():
    assert poset_isomorphic(join_irreducibles(diamond()), antichain(["a", "b"]))


def test_join_irreducibles_requires_distributivity():
    with pytest.raises(NotDistributive):
        join_irreducibles(m3_candidate())


def test_birkhoff_round_trip_posets():
    for p in all_posets_upto(3):
        assert poset_isomorphic(join_irreducibles(downset_lattice(p)), p)


def test_birkhoff_round_trip_lattices():
    for lat in lattice_universe(3):
        assert lattice_isomorphic(downset_lattice(join_irreducibles(lat)), lat)


# ---------------------------------------------------------------------------
# hom enumeration


def test_unique_hom_from_two():
    assert len(all_lattice_homs(TWO, diamond())) == 1


def test_hom_counts_match_characters():
    for lat in (chain3(), diamond()):
        assert len(all_lattice_homs(lat, TWO)) == len(homs_to_2(lat))


def test_chain_to_diamond_hom_count_frozen():
    # bottom and top are pinned; the middle level can land anywhere
    assert len(all_lattice_homs(chain3(), diamond())) == 4


def test_hom_budget_guard():
    # the Boolean lattice on 7 atoms has 7 join-irreducibles: 7^7 monotone
    # map candidates, past the one budget of order.monotone_maps
    boolean = downset_lattice(antichain(list("abcdefg")))
    with pytest.raises(BudgetExceeded, match="^823543 assignments exceed the limit 200000$"):
        all_lattice_homs(boolean, boolean)


def test_homs_into_a_lattice_that_is_not_distributive_are_refused():
    # the Birkhoff dual describes homs only between distributive lattices
    for src, tgt in ((TWO, m3_candidate()), (m3_candidate(), TWO)):
        with pytest.raises(NotDistributive):
            all_lattice_homs(src, tgt)


def test_all_lattice_homs_match_every_assignment_hom_violation_accepts():
    # the route through the Birkhoff dual against the hom equations on every
    # assignment, for each pair of small enough universe lattices, and for
    # each such lattice with its ideal lattice (the coalgebra search)
    lats = lattice_universe(3)

    def agree(pairs):
        count = homs = 0
        for src, tgt in pairs:
            if tgt.n ** src.n > 20_000:
                continue
            expected = [
                f
                for f in product(range(tgt.n), repeat=src.n)
                if hom_violation(src, tgt, f) is None
            ]
            found = [h.assignment for h in all_lattice_homs(src, tgt)]
            assert found == expected, (src, tgt)
            count += 1
            homs += len(found)
        return count, homs

    assert agree(product(lats, repeat=2)) == (508, 3960)
    assert agree((lat, ideal_lattice(lat)) for lat in lats) == (17, 138)


def test_hom_violation_reports_bounds():
    two = TWO
    assert hom_violation(two, two, (1, 1)) is not None
    assert hom_violation(two, two, (0, 1)) is None


@given(st.sampled_from(lattice_universe(3)))
def test_ideal_masks_are_exactly_principal_masks(lat):
    assert ideals_bruteforce(lat) == principal_masks(lat)


@given(
    st.sampled_from([l for l in lattice_universe(3) if l.n > 1]), st.data()
)
def test_principal_ideal_naturality(lat, data):
    # the unit square: the image of a principal ideal is the principal ideal
    # of the image, for every hom into the two-element lattice
    hom = data.draw(st.sampled_from(homs_to_2(lat)))
    image = ideal_functor_hom(hom)
    src, tgt = ideal_view(lat), ideal_view(hom.target)
    for a, principal in enumerate(src.indices_of(lat.poset.down)):
        left = tgt.masks[image.assignment[principal]]
        assert left == hom.target.poset.down[hom.assignment[a]]


# ---------------------------------------------------------------------------
# fast routes against their definitional twins


def _plain_tables(p):
    """Meet and join tables by searching all common bounds, or the first
    (kind, pair) that has no greatest lower or least upper bound."""
    n = p.n
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lower = [k for k in range(n) if p.leq_index(k, i) and p.leq_index(k, j)]
            glb = [g for g in lower if all(p.leq_index(k, g) for k in lower)]
            if not glb:
                return "meet", (p.elements[i], p.elements[j])
            upper = [k for k in range(n) if p.leq_index(i, k) and p.leq_index(j, k)]
            lub = [u for u in upper if all(p.leq_index(u, k) for k in upper)]
            if not lub:
                return "join", (p.elements[i], p.elements[j])
            meet[i][j] = meet[j][i] = glb[0]
            join[i][j] = join[j][i] = lub[0]
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def _lookup_tables(p):
    """Twin of the shape: the meet and join tables by looking each pair up
    among the down-sets and up-sets (down(a ^ b) = down(a) & down(b), up(a
    v b) = up(a) & up(b)), or the first (kind, pair) without one."""
    down, up = p.down, order.transpose(p.down)
    below = {d: k for k, d in enumerate(down)}
    above = {u: k for k, u in enumerate(up)}
    for i in range(p.n):
        for j in range(i, p.n):
            if down[i] & down[j] not in below:
                return "meet", (p.elements[i], p.elements[j])
            if up[i] & up[j] not in above:
                return "join", (p.elements[i], p.elements[j])
    return (
        tuple(tuple(below[a & b] for b in down) for a in down),
        tuple(tuple(above[a & b] for b in up) for a in up),
    )


def _make_poset_loop(elements, down):
    """Twin of make_poset: place the least-named element whose down-set is
    placed, scanning all the others at each step, and re-index bit by bit."""
    order_, placed, remaining = [], 0, set(range(len(elements)))
    while remaining:
        ready = [i for i in remaining if down[i] & ~placed == 1 << i]
        nxt = min(ready, key=lambda i: elements[i])
        order_.append(nxt)
        placed |= 1 << nxt
        remaining.remove(nxt)
    pos = {old: new for new, old in enumerate(order_)}
    new_down = tuple(mask_of(pos[j] for j in bits(down[i])) for i in order_)
    return FinPoset(tuple(elements[i] for i in order_), new_down)


def _complemented_pairwise(lat):
    """Twin of complemented_mask: the elements a with some c, a^c = bottom
    and avc = top."""
    n, meet, join = lat.n, lat.meet, lat.join
    return mask_of(
        a for a in range(n)
        if any(meet(a, c) == lat.bot and join(a, c) == lat.top for c in range(n))
    )


def _distributivity_pairwise(lat):
    """Twin of the shape's verdict: Birkhoff's criterion that every
    join-irreducible is join-prime, pair by pair, and the triple loop's
    witness when it fails."""
    down, irr = lat.poset.down, lat.join_irreducible_mask
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            if down[lat.join(a, b)] & irr & ~(down[a] | down[b]):
                return distributivity_witness_bruteforce(lat)
    return None


def test_the_shape_routes_equal_their_twins():
    # every poset of at most five points, M3 and N5 among them, and every
    # lattice of lattice_universe(4); make_poset gets each order reversed
    posets = list(all_posets_upto(5)[1:]) + [lat.poset for lat in lattice_universe(4)]
    verdicts = set()
    for p in posets:
        n = p.n
        names = p.elements[::-1]
        down = [mask_of(n - 1 - j for j in bits(p.down[n - 1 - i])) for i in range(n)]
        assert make_poset(names, down) == _make_poset_loop(names, down) == p
        expected = _lookup_tables(p)
        try:
            lat = DistLattice(p)
        except NotALattice as exc:
            assert (exc.kind, exc.witness) == expected, p
            verdicts.add("not a lattice")
            continue
        assert tables(lat) == expected, p
        witness = _distributivity_pairwise(lat)
        assert distributivity_witness(lat) == witness, p
        if witness is None:
            assert frame.complemented_mask(lat) == _complemented_pairwise(lat), p
        else:
            with pytest.raises(NotDistributive) as err:
                frame.complemented_mask(lat)
            assert err.value.witness == witness
        verdicts.add(witness is None)
    assert verdicts == {"not a lattice", True, False}


def test_meet_and_join_tables_match_plain_search():
    # from five elements on, a missing join can be the first failure even
    # though common upper bounds exist (a bottom under a bowtie)
    posets = [p for n in range(1, 6) for p in all_posets(n)]
    rejected = 0
    for p in posets:
        expected = _plain_tables(p)
        try:
            lat = DistLattice(p)
        except NotALattice as exc:
            rejected += 1
            assert (exc.kind, exc.witness) == expected, p
        else:
            assert tables(lat) == expected, p
    assert 0 < rejected < len(posets)


def lattices_of_a_lifting_run(monkeypatch):
    """The open frames and ideal lattices that run_suite("lifting",
    max_points=2) builds from cleared caches, one entry per object."""
    built = {}
    for original in (ideal_view, open_frame_view):

        def recording(arg, original=original):
            view = original(arg)
            built[id(view.lattice)] = view.lattice
            return view

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "stonekit":
                if getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, recording)
    clear_caches()
    try:
        rows = list(run_suite("lifting", max_points=2))
    finally:
        clear_caches()
    assert len(rows) == 733 and all(ok for _, _, ok, _ in rows)
    return list(built.values())


def test_every_lattice_has_the_plain_tables_shared_per_order(monkeypatch):
    run = lattices_of_a_lifting_run(monkeypatch)
    assert run
    plain = {}
    for lat in list(lattice_universe(4)) + run:
        assert lat.bot == 0 and lat.top == lat.n - 1
        # and they are the least and the greatest element of the order
        full = (1 << lat.n) - 1
        assert lat.shape.up[lat.bot] == full == lat.poset.down[lat.top]
        down = lat.poset.down
        if down not in plain:
            plain[down] = _plain_tables(lat.poset)
        assert tables(lat) == plain[down], lat
        assert lat.join_irreducible_mask == mask_of(one_lower_cover(lat)), lat
    # the lattices of one order share one shape, which holds the tables
    for pool in (run, lattice_universe(4)):
        first = {}
        for lat in pool:
            other = first.setdefault(lat.poset.down, lat)
            assert lat.shape is other.shape
        assert len(first) < len(pool)


def n5_candidate():
    p = order_closure(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    )
    return DistLattice(p)


def test_birkhoff_distributivity_matches_triple_loop():
    lattices = []
    for n in range(1, 6):
        for p in all_posets(n):
            try:
                lattices.append(DistLattice(p))
            except NotALattice:
                pass
    for lat in lattices:
        assert distributivity_witness(lat) == distributivity_witness_bruteforce(lat)
    # the pool holds labeled copies of M3 and N5, so both verdicts occur
    for bad in (m3_candidate(), n5_candidate()):
        assert any(lattice_isomorphic(bad, lat) for lat in lattices)
        assert distributivity_witness(bad) is not None


def test_ideal_routes_match_brute_force():
    for lat in lattice_universe(4):
        assert set(ideal_view(lat).masks) == set(ideals_bruteforce(lat))


def boolean8():
    return downset_lattice(antichain(["a", "b", "c"]))


@pytest.mark.parametrize(
    "make, mask, message",
    [
        (diamond, 0, "empty"),
        (diamond, 0b10000, "members out of range"),
        (diamond, 0b1111, "contains bottom"),
        (diamond, 0b0010, "not up-closed at '{a}'"),
        (diamond, 0b1110, "not meet-closed at ('{a}', '{b}')"),
        (diamond, 0b1000, "join ('{a}', '{b}') not prime"),
        (boolean8, 0b11100000, "not meet-closed at ('{a,c}', '{b,c}')"),
        (boolean8, 0b10000000, "join ('{a}', '{b,c}') not prime"),
        (m3_candidate, 0b11010, "not meet-closed at ('a', 'c')"),
        (m3_candidate, 0b10010, "join ('b', 'c') not prime"),
    ],
)
def test_violation_messages_name_the_first_failing_pair(make, mask, message):
    assert dlat._prime_filter_violation(make(), mask) == message


def _plain_structure(lat):
    """Bottom, top, meets and joins found by search over the order alone."""
    n, leq = lat.n, lat.leq_index
    bottom = next(z for z in range(n) if all(leq(z, w) for w in range(n)))
    top = next(z for z in range(n) if all(leq(w, z) for w in range(n)))
    meet, join = {}, {}
    for a, b in product(range(n), repeat=2):
        lower = [z for z in range(n) if leq(z, a) and leq(z, b)]
        meet[a, b] = next(z for z in lower if all(leq(w, z) for w in lower))
        upper = [z for z in range(n) if leq(a, z) and leq(b, z)]
        join[a, b] = next(z for z in upper if all(leq(z, w) for w in upper))
    return bottom, top, meet, join


def _hom_violation_plain(src, tgt, f, structure):
    """The first failing homomorphism equation, in the wording of
    hom_violation, against the searched structure of both lattices."""
    e = src.elements
    if len(f) != src.n:
        return "arity"
    src_bottom, src_top, src_meet, src_join = structure[src]
    tgt_bottom, tgt_top, tgt_meet, tgt_join = structure[tgt]
    if f[src_bottom] != tgt_bottom:
        return f"bottom ({e[src_bottom]!r})"
    if f[src_top] != tgt_top:
        return f"top ({e[src_top]!r})"
    for a in range(src.n):
        for b in range(a + 1, src.n):
            if f[src_meet[a, b]] != tgt_meet[f[a], f[b]]:
                return f"meet at ({e[a]!r}, {e[b]!r})"
            if f[src_join[a, b]] != tgt_join[f[a], f[b]]:
                return f"join at ({e[a]!r}, {e[b]!r})"
    return None


def test_hom_violation_matches_its_plain_twin():
    # one lattice per isomorphism class of lattice_universe(3): every
    # assignment from a source of at most 5 elements, and every assignment
    # keeping bottom and top from the 6-element ones (any other stops at
    # the bottom or top equation); the 8-element Boolean lattice is only a
    # target. All assignments of the labeled universe number 34 million
    reps = []
    for lat in lattice_universe(3):
        if not any(lattice_isomorphic(lat, r) for r in reps):
            reps.append(lat)
    assert sorted(r.n for r in reps) == [1, 2, 3, 4, 4, 5, 5, 6, 8]
    structure = {lat: _plain_structure(lat) for lat in reps}
    verdicts = set()
    for src, tgt in product([r for r in reps if r.n <= 6], reps):
        if src.n <= 5:
            assignments = product(range(tgt.n), repeat=src.n)
        else:
            inner = product(range(tgt.n), repeat=src.n - 2)
            assignments = ((tgt.bot,) + middle + (tgt.top,) for middle in inner)
        for f in assignments:
            expected = _hom_violation_plain(src, tgt, f, structure)
            assert hom_violation(src, tgt, f) == expected, (src, tgt, f)
            verdicts.add(expected if expected is None else expected.split()[0])
    assert verdicts == {None, "bottom", "top", "meet", "join"}


# ---------------------------------------------------------------------------
# memo contract: each check and name-free derivation runs once per distinct
# name-free value, and a failure is never stored


def renamed(lat, prefix):
    """The order of lat with each element e renamed prefix + e: the names
    sort as before, so the element order stays."""
    return make_poset([prefix + e for e in lat.elements], lat.poset.down)


def relabelled(lat, prefix):
    """lat renamed by prefix, checked: the tables and the shape stay."""
    return lattice_from_poset(renamed(lat, prefix))


def renested(lat):
    """lat with element k renamed `x` followed by k copies of `(1)`: these
    names sort as the old ones need not, and `down(x(1))` sorts before
    `down(x)`, so ideal_view takes its inclusion_view route."""
    return lattice_from_poset(
        make_poset(["x" + "(1)" * k for k in range(lat.n)], lat.poset.down)
    )


def test_relabelled_copies_share_a_shape_and_other_orders_do_not():
    lat = diamond()
    copy = relabelled(lat, "p")
    assert copy.elements != lat.elements and copy.shape is lat.shape
    # the same names in a chain
    other = lattice_from_poset(chain(lat.elements))
    assert other.elements == lat.elements and other.shape is not lat.shape


def test_a_lattice_built_after_clear_caches_gets_a_new_shape():
    lat = relabelled(diamond(), "p")
    clear_caches()
    try:
        fresh = relabelled(diamond(), "q")
        assert fresh.shape is not lat.shape
        assert relabelled(diamond(), "r").shape is fresh.shape
        # the old shape keys none of the new stored verdicts
        assert fresh.shape in dlat._check_distributive.table
        assert lat.shape not in dlat._check_distributive.table
    finally:
        clear_caches()


def test_failed_hom_check_is_not_stored():
    two = TWO
    # the character of neither atom: it fails the join of the two atoms
    bad = (0, 0, 0, 1)
    for prefix in ("p", "q", "p"):
        lat = relabelled(diamond(), prefix)
        with pytest.raises(InvalidValue) as err:
            LatticeHom(lat, two, bad)
        assert str(err.value) == (
            f"not a lattice homomorphism: fails join at "
            f"('{prefix}{{a}}', '{prefix}{{b}}')"
        )
        assert (lat.shape, two.shape, bad) not in dlat._check_hom.table


def test_failed_ideal_and_prime_filter_checks_are_not_stored():
    # M3 has no ideal lattice, and its atoms' up-sets are no prime filters
    for prefix in ("p", "q", "p"):
        lat = DistLattice(renamed(m3_candidate(), prefix))
        stored = {name: len(t.table) for name, t in module_tables().items()}
        with pytest.raises(NotDistributive):
            ideal_view(lat)
        with pytest.raises(NotDistributive) as err:
            prime_filters(lat)
        assert err.value.witness[2] == f"join ('{prefix}b', '{prefix}c') not prime"
        assert {name: len(t.table) for name, t in module_tables().items()} == stored


def test_failed_check_is_not_raised_inside_the_memo_lookup():
    # a miss runs the check outside any handler, so its error carries no
    # implicit context (no "During handling of ..." with the memo key)
    lat = relabelled(diamond(), "p")
    with pytest.raises(InvalidValue) as err:
        LatticeHom(lat, TWO, (0, 0, 0, 1))
    assert err.value.__context__ is None
    with pytest.raises(NotDistributive) as err:
        dlat._checked(m3_candidate())
    assert err.value.__context__ is None


def test_failed_distributivity_check_is_not_stored():
    m3 = m3_candidate()
    for prefix in ("p", "q", "p"):
        lat = DistLattice(renamed(m3, prefix))
        with pytest.raises(NotDistributive) as err:
            dlat._checked(lat)
        assert err.value.witness == (prefix + "a", prefix + "b", prefix + "c")
    assert m3.shape not in dlat._check_distributive.table


def one_lower_cover(lat):
    """The elements with exactly one lower cover: the join-irreducibles."""
    covers = order.covers(lat.poset.down, order.transpose(lat.poset.down))
    return [j for j in range(lat.n) if sum(1 for _, k in covers if k == j) == 1]


def fresh_prime_filter_masks(lat):
    """The up-sets of the elements with exactly one lower cover, sorted."""
    up = order.transpose(lat.poset.down)
    return sorted(up[j] for j in one_lower_cover(lat))


def test_memoised_prime_filter_masks_equal_fresh_ones():
    lats = lattice_universe(4)
    for lat in lats + tuple(relabelled(lat, "p") for lat in lats):
        assert list(prime_filters(lat)) == fresh_prime_filter_masks(lat)
    for lat in lattice_universe(3):
        copy = renested(lat)
        assert prime_filters(copy) == prime_filters_bruteforce(copy)


def fresh_ideal_functor_assignment(f):
    src = ideal_view(f.source)
    tgt = ideal_view(f.target)
    out = []
    for m in src.masks:
        image = 0
        for a in range(f.source.n):
            if (m >> a) & 1:
                image |= f.target.poset.down[f.assignment[a]]
        out.append(tgt.masks.index(image))
    return tuple(out)


def test_memoised_ideal_functor_homs_equal_fresh_ones():
    homs = list(frame_morphisms(2))
    for f in frame_morphisms(2):
        for rename in (lambda lat: relabelled(lat, "p"), renested):
            source, target = rename(f.source), rename(f.target)
            assign = f.assignment
            if rename is renested:
                # renested reorders the elements: carry the map across by
                # the order isomorphisms
                to_new = lattice_isomorphism(f.source, source).assignment
                from_old = lattice_isomorphism(f.target, target).assignment
                assign = [0] * source.n
                for a, v in enumerate(f.assignment):
                    assign[to_new[a]] = from_old[v]
            homs.append(LatticeHom(source, target, tuple(assign)))
    routes = set()
    for f in homs:
        g = ideal_functor_hom(f)
        assert g.assignment == fresh_ideal_functor_assignment(f)
        assert g.source is ideal_view(f.source).lattice
        routes.add(ideal_view(f.source).masks == f.source.poset.down)
    assert routes == {True, False}


# inclusion_view builds each name-free family once: the masks and the
# ranking of the names fix the lattice, and the names are attached per call

# names that sort in unlike ways once nested: `a(1)` before `a1`, `{a,a(1)}`
# before `{a,a1}`, and a non-ASCII letter after every ASCII one
TRICKY = ("a", "a1", "a(1)", "b", "\u00e4")


def plain_inclusion_view(carrier, masks, names=None):
    """The lattice of sets the definitional way: the inclusion order
    through make_poset, checked by lattice_from_poset."""
    if names is None:
        names = [format_subset(carrier, m) for m in masks]
    down = [mask_of(j for j, b in enumerate(masks) if b & ~a == 0) for a in masks]
    poset = make_poset(names, down)
    by_name = dict(zip(names, masks))
    return dlat.SetLatticeView(
        lattice_from_poset(poset), tuple(by_name[e] for e in poset.elements)
    )


def tricky_families():
    """The opens of every space of at most four points, the points named
    by each rotation of TRICKY, each open named by its members and, in a
    second case, by the members of another open. Each case comes again in
    upper case, which sorts as it did, so that it finds the entry of the
    first."""
    for x in all_spaces_upto(4):
        for shift in range(len(TRICKY)):
            points = (TRICKY[shift:] + TRICKY[:shift])[: x.n]
            for case in (points, tuple(p.upper() for p in points)):
                own = [format_subset(case, m) for m in x.opens]
                yield case, x.opens, None
                yield case, x.opens, own[::-1]


def test_memoised_inclusion_views_equal_fresh_and_plain_ones():
    cases = list(tricky_families())
    table = dlat._inclusion_lattice.table
    # each fresh view is a miss, built from cleared caches
    fresh = []
    for case in cases:
        clear_caches()
        fresh.append(inclusion_view(*case))
        assert len(table) == 1
    clear_caches()
    first = [inclusion_view(*case) for case in cases]
    warm = [inclusion_view(*case) for case in cases]
    # every case shares its entry with its upper-case twin at least
    assert len(table) <= len(cases) // 2
    plain_tables = {}
    for case, f, a, b in zip(cases, fresh, first, warm):
        plain = plain_inclusion_view(*case)
        assert f == a == b == plain, case
        down = plain.lattice.poset.down
        if down not in plain_tables:
            plain_tables[down] = _plain_tables(plain.lattice.poset)
        assert tables(f.lattice) == tables(b.lattice) == plain_tables[down], case
        # a hit shares the stored shape
        assert b.lattice.shape is a.lattice.shape


def test_duplicate_names_are_refused_on_a_hit_and_on_a_miss():
    clear_caches()
    carrier, masks = ("a", "b"), (0b00, 0b01, 0b11)
    with pytest.raises(InvalidValue, match="duplicate element names"):
        inclusion_view(carrier, masks, ["x", "x", "y"])
    assert not dlat._inclusion_lattice.table
    # distinct names ranked as ["x", "x", "y"] is: the next call is a hit
    inclusion_view(carrier, masks, ["x", "y", "z"])
    assert list(dlat._inclusion_lattice.table) == [(masks, (0, 1, 2))]
    # the entry is the element order, the sets and the down-sets; no tables
    assert list(dlat._inclusion_lattice.table.values()) == [
        ((0, 1, 2), masks, (0b001, 0b011, 0b111))
    ]
    with pytest.raises(InvalidValue, match="duplicate element names"):
        inclusion_view(carrier, masks, ["x", "x", "y"])


@pytest.mark.parametrize(
    "masks, error, witness",
    [
        # {a} and {b} have no upper bound in the family
        ((0b00, 0b01, 0b10), NotALattice, ("{1a}", "{1b}")),
        # the two-element subsets of three points, with {} and the whole
        # set, form M3 under inclusion
        ((0b000, 0b011, 0b101, 0b110, 0b111), NotDistributive, None),
    ],
)
def test_a_family_that_is_refused_is_refused_on_every_call(masks, error, witness):
    clear_caches()
    witnesses = []
    for prefix in ("1", "2", "1"):
        carrier = tuple(prefix + e for e in "abc")
        with pytest.raises(error) as err:
            inclusion_view(carrier, masks)
        witnesses.append(err.value.witness)
        # the witness names this call's own elements
        assert all(w.startswith("{" + prefix) for w in err.value.witness)
    assert witnesses[0] == witnesses[2] != witnesses[1]
    if witness is not None:
        assert witnesses[0] == witness
    assert not dlat._inclusion_lattice.table
