"""Finite spaces: validation, specialization, open-set frames, homeomorphism."""

import random
from itertools import combinations, permutations, product

import pytest

from stonekit.dlat import (
    compose_homs,
    downset_lattice,
    lattice_from_poset,
    lattice_isomorphic,
)
from stonekit import spaces
from stonekit.bitsets import bits, mask_of
from stonekit.errors import (
    InvalidValue,
    InvariantViolated,
    NotATopology,
    UniverseMismatch,
)
from stonekit.order import _unvalidated, antichain, chain, up_sets
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
    sierpinski,
    space_from_basis,
    specialization_preorder,
    subspace,
)
from stonekit.universes import all_spaces, all_spaces_upto


def test_union_axiom_enforced():
    with pytest.raises(NotATopology):
        FinSpace(("x", "y"), (0b00, 0b01, 0b10))  # missing the union {x,y}


def test_intersection_axiom_enforced():
    with pytest.raises(NotATopology):
        FinSpace(("x", "y", "z"), (0b000, 0b011, 0b110, 0b111))


def test_empty_and_whole_required():
    with pytest.raises(NotATopology):
        FinSpace(("x",), (0b1,))


def test_opens_must_be_sorted_unique():
    with pytest.raises(NotATopology):
        FinSpace(("x",), (0b1, 0b0))


def _check_closed_pairwise(x):
    """The closure check by the pairwise loop over all |opens|^2 pairs: the
    twin of the minimal-neighbourhood test of spaces._check_closed, and one
    of the (route, twin) pairs of the reference run (ROADMAP item 2)."""
    have = set(x.opens)
    for a in x.opens:
        for b in x.opens:
            if a | b not in have:
                raise NotATopology(
                    f"union of {x.set_name(a)} and {x.set_name(b)} not open",
                    witness=(a, b),
                )
            if a & b not in have:
                raise NotATopology(
                    f"intersection of {x.set_name(a)} and {x.set_name(b)} not open",
                    witness=(a, b),
                )


def _closure_verdict(check, x):
    """None if the check accepts x, else its NotATopology message and witness."""
    try:
        check(x)
    except NotATopology as exc:
        return str(exc), exc.witness
    return None


def test_closure_check_accepts_and_rejects_as_its_pairwise_twin():
    # every family of subsets of at most 4 points that holds the empty set
    # and the whole space; the constructor refuses any other family before
    # the closure check runs
    fast = spaces._check_closed.__wrapped__
    accepted = []
    messages = set()
    for n in range(5):
        names = tuple("abcd"[:n])
        full = (1 << n) - 1
        inner = list(range(1, full))
        count = 0
        for pick in range(1 << len(inner)):
            opens = tuple(sorted({0, full} | {inner[k] for k in bits(pick)}))
            x = _unvalidated(FinSpace, names, opens)
            expected = _closure_verdict(_check_closed_pairwise, x)
            assert _closure_verdict(fast, x) == expected, opens
            # the test is equality with the up-sets of the minimal neighbourhoods
            assert (up_sets(x.min_nbhds) == opens) == (expected is None), opens
            if expected is None:
                count += 1
            else:
                messages.add(expected[0].split()[0])
        accepted.append(count)
    # the pinned topology counts, and both kinds of refusal seen
    assert accepted == [1, 1, 4, 29, 355]
    assert messages == {"union", "intersection"}


def test_closure_check_that_finds_no_pair_is_an_invariant_violation():
    # the Sierpinski opens with a wrong minimal neighbourhood: the fast test
    # fails, and the pairwise loop finds every pair closed
    x = _unvalidated(FinSpace, ("0", "1"), (0b00, 0b10, 0b11))
    x.__dict__["min_nbhds"] = (0b01, 0b10)
    with pytest.raises(InvariantViolated, match="every pair is closed"):
        spaces._check_closed.__wrapped__(x)


def test_min_nbhds_are_built_once():
    x = FinSpace(("a", "b", "c"), (0b000, 0b001, 0b011, 0b111))
    assert x.min_nbhds == (0b001, 0b011, 0b111)
    assert x.min_nbhds is x.min_nbhds
    assert specialization_preorder(x) is x.min_nbhds
    assert [x.min_nbhd(i) for i in range(3)] == list(x.min_nbhds)


def test_sierpinski_shape():
    s = sierpinski()
    assert s.points == ("0", "1")
    assert s.opens == (0, 2, 3)
    assert s.min_nbhd(s.index("1")) == 0b10
    assert s.min_nbhd(s.index("0")) == 0b11


def test_discrete_and_indiscrete():
    assert len(discrete_space(["a", "b"]).opens) == 4
    assert indiscrete_space(["a", "b"]).opens == (0, 3)


def test_specialization_of_sierpinski():
    s = sierpinski()
    up = specialization_preorder(s)
    # the closed point 0 lies below the open point 1, and not the other way
    assert (up[s.index("0")] >> s.index("1")) & 1
    assert not (up[s.index("1")] >> s.index("0")) & 1


def test_specialization_rejects_non_t0():
    x = indiscrete_space(["a", "b"])
    assert not is_t0(x)
    assert specialization_preorder(x) == (0b11, 0b11)


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
    b = FinSpace(("p", "q"), (0, 1, 3))  # open point listed first
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
    return FinSpace(
        x.points, tuple(sorted(mask_of(move[i] for i in bits(o)) for o in x.opens))
    )


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


def test_preorder_of_indiscrete_is_total():
    up = specialization_preorder(indiscrete_space(["a", "b"]))
    assert up == (0b11, 0b11)


def test_open_frame_tables_equal_lattice_from_poset():
    # the opens are closed under & and |, so the frame's meets and joins
    # are intersections and unions; the twin searches the order
    for x in all_spaces_upto(4):
        view = open_frame_view(x)
        assert sorted(view.masks) == list(x.opens)
        lat, masks = view.lattice, view.masks
        plain = lattice_from_poset(lat.poset)
        assert (lat.meet, lat.join) == (plain.meet, plain.join)
        for i in range(lat.n):
            for j in range(lat.n):
                assert masks[lat.meet[i][j]] == masks[i] & masks[j]
                assert masks[lat.join[i][j]] == masks[i] | masks[j]


def _continuity_violation_plain(x, y, assignment):
    """The first reason `assignment` is not a continuous map x -> y, in the
    wording of ContinuousMap, by comparing point sets."""
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
    empty = FinSpace((), (0,))
    with pytest.raises(InvalidValue, match="assignment value out of range"):
        ContinuousMap(discrete_space(["a"]), empty, (0,))
    assert ContinuousMap(empty, empty, ()).assignment == ()


def test_continuous_map_errors_match_their_plain_twin():
    # every assignment between spaces of at most three points, with one
    # value out of range on either side and one assignment too short
    spaces = all_spaces_upto(3)
    verdicts = set()
    for x, y in product(spaces, spaces):
        values = range(-1, max(y.n, 1) + 1)
        candidates = list(product(values, repeat=x.n)) + [(0,) * (x.n - 1)]
        for assignment in candidates:
            expected = _continuity_violation_plain(x, y, assignment)
            assert continuity_violation(x, y, assignment) == expected
            try:
                ContinuousMap(x, y, assignment)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected, (x, y, assignment)
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
    return FinSpace(names, tuple(sorted(have)))


def test_space_from_basis_matches_the_fixpoint_on_every_small_family():
    names = ("a", "b", "c")
    checked = 0
    for size in range(4):
        for family in combinations(range(8), size):
            got = space_from_basis(names, family)
            assert got == space_from_basis_fixpoint(names, family), family
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
        assert got == space_from_basis_fixpoint(names, basis), (n, basis)
        sizes.add(len(got.opens))
    assert len(sizes) > 10


def test_space_from_basis_refuses_a_mask_past_the_points():
    with pytest.raises(NotATopology):
        space_from_basis(("a", "b"), [0b100])


# ---------------------------------------------------------------------------
# memo contract: the closure and continuity checks run once per distinct
# (opens, assignment), and a failure is never stored


def test_failed_continuity_check_is_not_stored():
    for prefix in ("p", "q", "p"):
        x = FinSpace((prefix + "0", prefix + "1"), sierpinski().opens)
        with pytest.raises(InvalidValue) as err:
            ContinuousMap(x, x, (1, 0))
        assert str(err.value) == f"preimage of {{{prefix}1}} is not open"
        assert (x.opens, x.opens, (1, 0)) not in spaces._check_continuous.table


def test_failed_closure_check_is_not_stored():
    opens = (0b000, 0b011, 0b110, 0b111)
    for prefix in ("p", "q", "p"):
        names = tuple(prefix + e for e in "xyz")
        with pytest.raises(NotATopology) as err:
            FinSpace(names, opens)
        assert str(err.value) == (
            f"intersection of {{{prefix}x,{prefix}y}} and "
            f"{{{prefix}y,{prefix}z}} not open"
        )
    assert opens not in spaces._check_closed.table


def test_a_stored_verdict_still_checks_each_map_on_its_own_spaces():
    x = sierpinski()
    discrete = discrete_space(("0", "1"))
    ContinuousMap(discrete, x, (1, 0))
    with pytest.raises(InvalidValue):
        ContinuousMap(x, x, (1, 0))
    with pytest.raises(InvalidValue, match="length"):
        ContinuousMap(x, discrete, (1,))
