"""Finite spaces: validation, specialization, open-set frames, homeomorphism."""

import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from stonekit.dlat import (
    compose_homs,
    downset_lattice,
    lattice_from_poset,
    lattice_isomorphic,
    lattice_isomorphism,
)
from stonekit import spaces
from stonekit.bitsets import bits, format_subset, mask_of
from stonekit.errors import InvalidValue, NotATopology, UniverseMismatch
from stonekit.order import antichain, chain, transpose, up_sets
from stonekit.spaces import (
    ContinuousMap,
    FinSpace,
    clopen_masks,
    closure_of,
    compose_maps,
    continuity_violation,
    discrete_space,
    disjoint_union,
    homeomorphic,
    homeomorphism,
    identity_map,
    indiscrete_space,
    interior_of,
    is_homeomorphism,
    is_t0,
    open_preimage_hom,
    open_frame_view,
    open_set_frame,
    preimage_mask,
    sierpinski,
    space_from_basis,
    subspace,
)
from stonekit.topspace import (
    filter_space,
    hausdorff_reflection,
    t0_quotient,
    ultrafilter_space,
)
from stonekit.frame import spectrum
from stonekit.universes import all_spaces, all_spaces_upto, lattice_universe
from test_dlat import tables


def test_union_axiom_enforced():
    # the opens are the up-sets of the preorder, closed under union by
    # construction: the two open points of the discrete space join
    assert FinSpace(("x", "y"), (0b01, 0b10)).opens == (0b00, 0b01, 0b10, 0b11)


def test_intersection_axiom_enforced():
    # {x,y} and {y,z} as U_x and U_y: y lies in U_x but U_y does not, and
    # the up-sets of that relation miss the intersection {y}
    with pytest.raises(NotATopology, match="relation not transitive"):
        FinSpace(("x", "y", "z"), (0b011, 0b110, 0b100))
    assert 0b010 not in up_sets((0b011, 0b110, 0b100))


def test_empty_and_whole_required():
    # a U_x without x leaves x in no open, so the whole space is not open
    with pytest.raises(NotATopology, match="relation not reflexive at 'x'"):
        FinSpace(("x", "y"), (0b10, 0b10))
    assert up_sets((0b10, 0b10)) == (0b00, 0b10)
    for x in all_spaces_upto(3):
        assert (x.opens[0], x.opens[-1]) == (0, x.full)


def test_opens_must_be_sorted_unique():
    # one up-mask per point, each inside the points; the opens derived
    # from them are distinct and ascending
    with pytest.raises(NotATopology, match="one up-mask per point"):
        FinSpace(("x",), (0b1, 0b0))
    with pytest.raises(NotATopology, match="'x' reaches past the points"):
        FinSpace(("x",), (0b11,))
    for x in all_spaces_upto(3):
        assert list(x.opens) == sorted(set(x.opens))


def _check_closed_pairwise(points, opens):
    """The closure axioms by the pairwise loop over all |opens|^2 pairs: the
    oracle that a family of opens is a topology. None if it is, else the
    first union or intersection that is not open, named."""
    have = set(opens)
    for a in opens:
        for b in opens:
            for kind, c in (("union", a | b), ("intersection", a & b)):
                if c not in have:
                    a_name, b_name = format_subset(points, a), format_subset(points, b)
                    return f"{kind} of {a_name} and {b_name} not open"
    return None


def test_a_family_is_a_topology_exactly_when_its_preorder_gives_it_back():
    # every family of subsets of at most 4 points that holds the empty set
    # and the whole space: the pairwise loop accepts it exactly when the
    # up-sets of its minimal neighbourhoods are the family again
    accepted = []
    messages = set()
    for n in range(5):
        names = tuple("abcd"[:n])
        full = (1 << n) - 1
        inner = list(range(1, full))
        count = 0
        for pick in range(1 << len(inner)):
            opens = tuple(sorted({0, full} | {inner[k] for k in bits(pick)}))
            expected = _check_closed_pairwise(names, opens)
            assert (space_from_basis(names, opens).opens == opens) == (
                expected is None
            ), opens
            if expected is None:
                count += 1
            else:
                messages.add(expected.split()[0])
        accepted.append(count)
    # the pinned topology counts, and both kinds of refusal seen
    assert accepted == [1, 1, 4, 29, 355]
    assert messages == {"union", "intersection"}


def _derived_spaces(x):
    """x and the spaces the package derives from it."""
    yield x
    yield filter_space(x)
    yield spectrum(open_set_frame(x))
    yield t0_quotient(x)[0]
    yield hausdorff_reflection(x)[0]
    yield ultrafilter_space(x)
    yield disjoint_union(x, sierpinski())
    for mask in range(1 << x.n):
        yield subspace(x, mask)[0]


def test_derived_opens_are_a_topology_that_gives_back_the_preorder():
    # the opens of every space are closed under union and intersection,
    # and the minimal neighbourhoods read off them are the stored up-masks
    checked = 0
    for x in all_spaces_upto(4):
        for y in _derived_spaces(x):
            assert _check_closed_pairwise(y.points, y.opens) is None, y
            assert spaces._meets_around(y.n, y.opens) == y.up, y
            checked += 1
    assert checked == 390 * 7 + sum(1 << x.n for x in all_spaces_upto(4))


def test_opens_are_built_once():
    x = FinSpace(("a", "b", "c"), (0b001, 0b011, 0b111))
    assert x.opens == (0b000, 0b001, 0b011, 0b111)
    assert x.opens is x.opens
    # equality and hashing read the preorder, not the opens, and the
    # spaces of one preorder share one tuple of opens
    y = FinSpace(("p", "q", "r"), (0b001, 0b011, 0b111))
    z = FinSpace(("a", "b", "c"), (0b001, 0b011, 0b111))
    assert z == x and hash(z) == hash(x) and y != x
    assert y.opens is x.opens is z.opens
    assert spaces._preorder_opens.table[x.up] is x.opens


def test_sierpinski_shape():
    s = sierpinski()
    assert s.points == ("0", "1")
    assert s.opens == (0, 2, 3)
    assert s.up[s.index("1")] == 0b10
    assert s.up[s.index("0")] == 0b11


def test_discrete_and_indiscrete():
    assert len(discrete_space(["a", "b"]).opens) == 4
    assert indiscrete_space(["a", "b"]).opens == (0, 3)


def test_specialization_of_sierpinski():
    s = sierpinski()
    up = s.up
    # the closed point 0 lies below the open point 1, and not the other way
    assert (up[s.index("0")] >> s.index("1")) & 1
    assert not (up[s.index("1")] >> s.index("0")) & 1


def test_specialization_rejects_non_t0():
    x = indiscrete_space(["a", "b"])
    assert not is_t0(x)
    assert x.up == (0b11, 0b11)


def test_closure_and_interior():
    s = sierpinski()
    assert closure_of(s, 0b10) == 0b11  # the open point is dense
    assert closure_of(s, 0b01) == 0b01  # the closed point stays put
    assert interior_of(s, 0b01) == 0
    assert interior_of(s, 0b10) == 0b10


def test_clopens():
    assert clopen_masks(sierpinski()) == (0, 3)
    assert clopen_masks(discrete_space(["a", "b"])) == (0, 1, 2, 3)


def test_open_set_frame_shapes():
    assert lattice_isomorphic(
        open_set_frame(sierpinski()), downset_lattice(chain(["a", "b"]))
    )
    assert lattice_isomorphic(
        open_set_frame(discrete_space(["a", "b"])),
        downset_lattice(antichain(["a", "b"])),
    )


def test_open_set_frame_names_points():
    frame = open_set_frame(sierpinski())
    assert frame.elements == ("{}", "{1}", "{0,1}")


def test_preimage_hom_of_constant_map():
    s = sierpinski()
    const = ContinuousMap(s, s, (1, 1))
    h = open_preimage_hom(const)
    assert h.apply("{1}") == "{0,1}"
    assert h.apply("{}") == "{}"


def test_preimage_hom_is_contravariant():
    s = sierpinski()
    d = discrete_space(["a", "b"])
    f = ContinuousMap(d, s, (0, 1))
    g = ContinuousMap(s, s, (1, 1))
    lhs = open_preimage_hom(compose_maps(g, f))
    rhs = compose_homs(open_preimage_hom(f), open_preimage_hom(g))
    assert lhs == rhs


def test_continuity_enforced():
    s = sierpinski()
    with pytest.raises(ValueError):
        ContinuousMap(s, s, (1, 0))  # swap pulls {1} back to the non-open {0}


def test_compose_requires_matching_spaces():
    s = sierpinski()
    d = discrete_space(["a", "b"])
    with pytest.raises(UniverseMismatch):
        compose_maps(identity_map(d), identity_map(s))


def test_subspace_of_sierpinski():
    sub, incl = subspace(sierpinski(), 0b10)
    assert sub.points == ("1",)
    assert incl.apply("1") == "1"


def test_disjoint_union_opens():
    x = disjoint_union(sierpinski(), discrete_space(["p"]))
    assert x.n == 3
    assert len(x.opens) == 6


def test_space_from_basis_closes_up():
    x = space_from_basis(["a", "b", "c"], [0b011, 0b110])
    assert 0b010 in x.opens  # the intersection must appear
    assert 0b111 in x.opens


def test_homeomorphism_finds_relabeling():
    a = sierpinski()
    b = FinSpace(("p", "q"), (0b01, 0b11))  # open point listed first
    h = homeomorphism(a, b)
    assert h is not None
    assert h.apply("1") == "p"


def test_homeomorphism_distinguishes_topologies():
    assert not homeomorphic(sierpinski(), discrete_space(["a", "b"]))
    assert not homeomorphic(sierpinski(), indiscrete_space(["a", "b"]))


def homeomorphic_by_bijections(x, y):
    """Twin of homeomorphic: tries every bijection with is_homeomorphism."""
    return x.n == y.n and any(
        continuity_violation(x, y, a) is None
        and is_homeomorphism(ContinuousMap(x, y, a))
        for a in permutations(range(x.n))
    )


def relabelled(x, rng):
    """x with its points moved by a random permutation, under the same names."""
    move = list(range(x.n))
    rng.shuffle(move)
    up = [0] * x.n
    for i, u in enumerate(x.up):
        up[move[i]] = mask_of(move[j] for j in bits(u))
    return FinSpace(x.points, tuple(up))


def test_homeomorphic_matches_the_twin_on_every_pair_of_small_spaces():
    small = all_spaces_upto(3)
    found = 0
    for x in small:
        for y in small:
            assert homeomorphic(x, y) == homeomorphic_by_bijections(x, y), (x, y)
            found += homeomorphic(x, y)
    # the sum of the squares of the homeomorphism class sizes
    assert found == 127


def test_homeomorphic_matches_the_twin_on_four_points():
    rng = random.Random(20261019)
    four = all_spaces(4)
    moved = neighbours = 0
    for i, x in enumerate(four):
        y = relabelled(x, rng)
        h = homeomorphism(x, y)
        assert h is not None and is_homeomorphism(h), (x, y)
        assert homeomorphic_by_bijections(x, y)
        moved += y != x
        nxt = four[(i + 1) % len(four)]
        h = homeomorphism(x, nxt)
        assert (h is not None) == homeomorphic_by_bijections(x, nxt), (x, nxt)
        assert h is None or is_homeomorphism(h)
        neighbours += h is not None
    assert (moved, neighbours) == (319, 17)


def _cover_digraph(networkx, up):
    """The preorder of up-masks as a digraph: i -> j for j covering i, and
    both ways between distinct points above each other. Its reflexive
    transitive closure is the preorder, so two preorders are isomorphic
    exactly when these digraphs are."""
    strict = networkx.DiGraph()
    strict.add_nodes_from(range(len(up)))
    strict.add_edges_from(
        (i, j) for i, u in enumerate(up) for j in bits(u) if not (up[j] >> i) & 1
    )
    graph = networkx.transitive_reduction(strict)
    graph.add_edges_from(
        (i, j) for i, u in enumerate(up) for j in bits(u) if i != j and (up[j] >> i) & 1
    )
    return graph


def test_networkx_agrees_on_lattice_isomorphism_and_homeomorphism():
    # VF2 on the cover digraphs, on every unordered same-size pair of
    # lattices of lattice_universe(3) and of spaces of at most 3 points;
    # an isomorphism found must be one
    import networkx

    lats = lattice_universe(3)
    small = all_spaces_upto(3)
    pools = (
        (lats, lambda lat: transpose(lat.poset.down), lattice_isomorphism),
        (small, lambda x: x.up, homeomorphism),
    )
    counts = []
    for pool, up_of, search in pools:
        graphs = [_cover_digraph(networkx, up_of(v)) for v in pool]
        pairs = found = 0
        for a, v in enumerate(pool):
            for b in range(a, len(pool)):
                w = pool[b]
                if len(graphs[a]) != len(graphs[b]):
                    continue
                f = search(v, w)
                assert (f is not None) == networkx.is_isomorphic(graphs[a], graphs[b]), (v, w)
                if f is not None:
                    g = f.assignment
                    assert sorted(g) == list(range(len(g)))
                    assert [mask_of(g[j] for j in bits(u)) for u in up_of(v)] == [
                        up_of(w)[k] for k in g
                    ]
                    found += 1
                pairs += 1
        counts.append((pairs, found))
    assert counts == [(76, 61), (447, 81)]


def test_preorder_of_indiscrete_is_total():
    up = indiscrete_space(["a", "b"]).up
    assert up == (0b11, 0b11)


def test_open_frame_tables_equal_lattice_from_poset():
    # the opens are closed under & and |, so the frame's meets and joins
    # are intersections and unions; the twin searches the order
    for x in all_spaces_upto(4):
        view = open_frame_view(x)
        assert sorted(view.masks) == list(x.opens)
        lat, masks = view.lattice, view.masks
        plain = lattice_from_poset(lat.poset)
        assert tables(lat) == tables(plain)
        for i in range(lat.n):
            for j in range(lat.n):
                assert masks[lat.meet(i, j)] == masks[i] & masks[j]
                assert masks[lat.join(i, j)] == masks[i] | masks[j]


def _continuity_violation_plain(x, y, assignment):
    """The first reason `assignment` is not a continuous map x -> y, in the
    wording of ContinuousMap, by taking the preimage of every open of y."""
    if len(assignment) != x.n:
        return "assignment length mismatch"
    if any(not 0 <= v < y.n for v in assignment):
        return "assignment value out of range"
    opens = {frozenset(i for i in range(x.n) if (o >> i) & 1) for o in x.opens}
    for o in y.opens:
        members = {v for v in range(y.n) if (o >> v) & 1}
        preimage = frozenset(i for i, v in enumerate(assignment) if v in members)
        if preimage not in opens:
            return f"preimage of {y.set_name(o)} is not open"
    return None


def test_a_map_into_the_empty_space_is_refused():
    empty = FinSpace((), ())
    with pytest.raises(InvalidValue, match="assignment value out of range"):
        ContinuousMap(discrete_space(["a"]), empty, (0,))
    assert ContinuousMap(empty, empty, ()).assignment == ()


def test_continuous_map_errors_match_their_plain_twin():
    # every assignment between spaces of at most three points, with one
    # value out of range on either side and one assignment too short: the
    # same verdict, and a refused monotonicity names an open of y whose
    # preimage is not open
    pool = all_spaces_upto(3)
    verdicts = set()
    for x, y in product(pool, pool):
        values = range(-1, max(y.n, 1) + 1)
        candidates = list(product(values, repeat=x.n)) + [(0,) * (x.n - 1)]
        for assignment in candidates:
            expected = _continuity_violation_plain(x, y, assignment)
            bad = continuity_violation(x, y, assignment)
            try:
                ContinuousMap(x, y, assignment)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == bad, (x, y, assignment)
            if expected is None or not expected.startswith("preimage"):
                assert bad == expected, (x, y, assignment)
            else:
                (named,) = [
                    o
                    for o in y.opens
                    if bad == f"preimage of {y.set_name(o)} is not open"
                ]
                assert preimage_mask(assignment, named) not in x.opens
            verdicts.add(expected if expected is None else expected.split()[0])
    assert verdicts == {None, "assignment", "preimage"}


def space_from_basis_fixpoint(names, basis):
    """The definitional twin: add unions and intersections of pairs of the
    family until a round adds nothing."""
    names = tuple(names)
    full = (1 << len(names)) - 1
    have = {0, full} | set(basis)
    grown = True
    while grown:
        grown = False
        current = list(have)
        for i, a in enumerate(current):
            for b in current[i:]:
                for c in (a | b, a & b):
                    if c not in have:
                        have.add(c)
                        grown = True
    return tuple(sorted(have))


def test_space_from_basis_matches_the_fixpoint_on_every_small_family():
    names = ("a", "b", "c")
    checked = 0
    for size in range(4):
        for family in combinations(range(8), size):
            got = space_from_basis(names, family)
            assert got.opens == space_from_basis_fixpoint(names, family), family
            checked += 1
    assert checked == 1 + 8 + 28 + 56


def test_space_from_basis_matches_the_fixpoint_on_random_bases():
    rng = random.Random(20261018)
    sizes = set()
    for _ in range(200):
        n = rng.randint(0, 7)
        names = tuple(f"p{i}" for i in range(n))
        basis = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
        got = space_from_basis(names, basis)
        assert got.opens == space_from_basis_fixpoint(names, basis), (n, basis)
        sizes.add(len(got.opens))
    assert len(sizes) > 10


def test_space_from_basis_refuses_a_mask_past_the_points():
    with pytest.raises(NotATopology):
        space_from_basis(("a", "b"), [0b100])


def test_subspace_refuses_a_mask_past_the_points():
    with pytest.raises(NotATopology, match="reaches past the 2 points"):
        subspace(sierpinski(), 0b100)


def _is_homeomorphism_by_opens(f):
    """Bijective and carries the open-set family exactly onto the target's:
    the twin of is_homeomorphism."""
    if sorted(f.assignment) != list(range(f.target.n)):
        return False
    return sorted(f.image_mask(o) for o in f.source.opens) == list(f.target.opens)


def test_is_homeomorphism_matches_its_open_image_twin():
    # every continuous map between spaces of at most three points, and
    # every continuous bijection among them
    pool = all_spaces_upto(3)
    verdicts = Counter()
    for x, y in product(pool, pool):
        for assignment in product(range(y.n), repeat=x.n):
            if continuity_violation(x, y, assignment) is not None:
                continue
            f = ContinuousMap(x, y, assignment)
            verdict = is_homeomorphism(f)
            assert verdict == _is_homeomorphism_by_opens(f), f
            verdicts[verdict] += 1
    # the homeomorphisms among all pairs, and the continuous maps that are not
    assert verdicts[True] == 184 and verdicts[False] > 0


def _closure_by_opens(x, mask):
    """Twin of closure_of: remove every open that misses the mask."""
    out = x.full
    for o in x.opens:
        if o & mask == 0:
            out &= ~o
    return out & x.full


def _interior_by_opens(x, mask):
    """Twin of interior_of: the union of the opens inside the mask."""
    out = 0
    for o in x.opens:
        if o & ~mask == 0:
            out |= o
    return out


def test_closure_and_interior_match_their_open_loop_twins():
    for x in all_spaces_upto(4):
        for mask in range(1 << x.n):
            assert closure_of(x, mask) == _closure_by_opens(x, mask), (x, mask)
            assert interior_of(x, mask) == _interior_by_opens(x, mask), (x, mask)


# ---------------------------------------------------------------------------
# memo contract: the preorder and continuity checks run once per distinct
# (up, assignment), and a failure is never stored


def test_failed_continuity_check_is_not_stored():
    for prefix in ("p", "q", "p"):
        x = FinSpace((prefix + "0", prefix + "1"), sierpinski().up)
        with pytest.raises(InvalidValue) as err:
            ContinuousMap(x, x, (1, 0))
        assert str(err.value) == f"preimage of {{{prefix}1}} is not open"
        assert (x.up, x.up, (1, 0)) not in spaces._check_continuous.table


def test_failed_preorder_check_is_not_stored():
    up = (0b10, 0b10)
    for prefix in ("p", "q", "p"):
        names = (prefix + "x", prefix + "y")
        with pytest.raises(NotATopology) as err:
            FinSpace(names, up)
        assert str(err.value) == f"relation not reflexive at '{prefix}x'"
    assert up not in spaces._preorder_opens.table


def test_a_stored_verdict_still_checks_each_map_on_its_own_spaces():
    x = sierpinski()
    discrete = discrete_space(("0", "1"))
    ContinuousMap(discrete, x, (1, 0))
    with pytest.raises(InvalidValue):
        ContinuousMap(x, x, (1, 0))
    with pytest.raises(InvalidValue, match="length"):
        ContinuousMap(x, discrete, (1,))
