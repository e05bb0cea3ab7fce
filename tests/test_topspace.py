"""Open-prime-filter monad, separation quotients, compactification square."""

import pytest
from hypothesis import given, settings, strategies as st

from stonekit import dlat, frame, spaces, topspace
from stonekit.bitsets import bits, mask_of
from stonekit.catengine import AlgebraInstance, check_algebra
from stonekit.errors import InvariantViolated, NoCanonicalAlgebra
from stonekit.dlat import (
    TWO,
    LatticeHom,
    SetLatticeView,
    ideal_functor_hom,
    ideal_lattice,
    lattice_from_poset,
    prime_filters,
    principal_embedding,
    union_hom,
)
from stonekit.frame import (
    SpectrumView,
    comultiplication_hom,
    filter_space_of,
    gamma_coalgebra,
    spatiality_hom,
    spectrum,
    spectrum_map,
    spectrum_view,
)
from stonekit.memo import clear_caches
from stonekit.instances import FILTER_MONAD_ON_SPACES, filter_algebra_structures
from stonekit.spaces import (
    ContinuousMap,
    compose_maps,
    discrete_space,
    disjoint_union,
    homeomorphic,
    identity_map,
    indiscrete_space,
    is_homeomorphism,
    is_t0,
    open_frame_view,
    open_preimage_hom,
    open_set_frame,
    sierpinski,
)
from stonekit.order import chain
from stonekit.topspace import (
    canonical_algebra,
    compactification_square,
    filter_map,
    filter_space,
    filter_space_view,
    hausdorff_reflection,
    is_sober,
    mult_map,
    neighborhood_filter,
    open_frame_of_filters_iso,
    pairing_map,
    sobrification,
    t0_quotient,
    _principal_filter,
    _ultrafilter_search,
    _ultrafilter_violation,
    ultrafilter_comparison,
    ultrafilter_space,
    unit_map,
)
from stonekit.universes import all_continuous_maps, all_spaces, all_spaces_upto


def test_filter_space_of_sierpinski():
    assert homeomorphic(filter_space(sierpinski()), sierpinski())


def test_filter_space_of_indiscrete_is_a_point():
    assert filter_space(indiscrete_space(["a", "b"])).n == 1


def test_filter_space_of_discrete_pair():
    assert homeomorphic(
        filter_space(discrete_space(["a", "b"])), discrete_space(["a", "b"])
    )


def test_filter_points_name_their_contents():
    fs = filter_space(sierpinski())
    assert fs.points == ("up({0,1})", "up({1})")


def test_neighborhood_filters_frozen():
    s = sierpinski()
    assert neighborhood_filter(s, "0") == 0b100
    assert neighborhood_filter(s, "1") == 0b110


def test_indiscrete_points_share_their_filter():
    x = indiscrete_space(["a", "b"])
    assert neighborhood_filter(x, "a") == neighborhood_filter(x, "b")


def test_filter_validation_messages():
    # a mask over the opens that is no prime filter of the open frame is no
    # point of F X: one holding the empty set, one not up-closed, and the
    # empty one; the message names the opens it holds
    view = filter_space_view(sierpinski())
    assert view.carrier == ("{}", "{1}", "{0,1}")
    for members, named in ((0b111, "{{},{1},{0,1}}"), (0b010, "{{1}}"), (0, "{}")):
        with pytest.raises(InvariantViolated) as raised:
            view.indices_of(view.filters + (members,))
        assert str(raised.value) == f"{named} is not a prime filter"


def test_unit_is_continuous_and_injective_on_t0():
    s = sierpinski()
    eta = unit_map(s)
    assert len(set(eta.assignment)) == s.n


def test_monad_laws_small_spaces():
    for x in all_spaces_upto(2):
        fx = filter_space(x)
        mu = mult_map(x)
        assert compose_maps(mu, unit_map(fx)) == identity_map(fx)
        assert compose_maps(mu, filter_map(unit_map(x))) == identity_map(fx)
        assert compose_maps(mu, mult_map(fx)) == compose_maps(mu, filter_map(mu))


def test_unit_naturality_on_all_small_maps():
    spaces = all_spaces_upto(2)
    for x in spaces:
        for y in spaces:
            for f in all_continuous_maps(x, y):
                assert compose_maps(filter_map(f), unit_map(x)) == compose_maps(
                    unit_map(y), f
                )


def test_mult_naturality_on_sierpinski_endos():
    s = sierpinski()
    for f in all_continuous_maps(s, s):
        lhs = compose_maps(mult_map(s), filter_map(filter_map(f)))
        rhs = compose_maps(filter_map(f), mult_map(s))
        assert lhs == rhs


def test_functoriality_of_filter_map():
    s = sierpinski()
    d = discrete_space(["a", "b"])
    f = ContinuousMap(d, s, (0, 1))
    g = ContinuousMap(s, s, (1, 1))
    assert filter_map(compose_maps(g, f)) == compose_maps(filter_map(g), filter_map(f))
    assert filter_map(identity_map(s)) == identity_map(filter_space(s))


# ---------------------------------------------------------------------------
# canonical algebras


def test_canonical_algebra_on_sierpinski():
    s = sierpinski()
    alg = AlgebraInstance(FILTER_MONAD_ON_SPACES, s, canonical_algebra(s))
    for check in check_algebra(alg):
        assert check.ok, str(check)


def test_no_algebra_on_indiscrete_pair():
    with pytest.raises(NoCanonicalAlgebra) as exc:
        canonical_algebra(indiscrete_space(["a", "b"]))
    assert set(exc.value.witness) == {"a", "b"}


def test_no_algebra_on_four_point_non_t0():
    x = disjoint_union(indiscrete_space(["a", "b"]), discrete_space(["c", "d"]))
    assert not is_t0(x)
    with pytest.raises(NoCanonicalAlgebra):
        canonical_algebra(x)


def test_algebra_structures_unique_iff_t0():
    for x in all_spaces_upto(2):
        found = filter_algebra_structures(x)
        if is_t0(x):
            assert found == (canonical_algebra(x),)
        else:
            assert found == ()


def test_every_map_between_t0_spaces_is_an_algebra_morphism():
    spaces = [x for x in all_spaces_upto(2) if is_t0(x)]
    for x in spaces:
        for y in spaces:
            ax, ay = canonical_algebra(x), canonical_algebra(y)
            for f in all_continuous_maps(x, y):
                assert compose_maps(f, ax) == compose_maps(ay, filter_map(f))


# ---------------------------------------------------------------------------
# separation quotients


def test_t0_quotient_of_indiscrete():
    q_space, q = t0_quotient(indiscrete_space(["a", "b"]))
    assert q_space.n == 1
    assert q.assignment == (0, 0)


def test_t0_quotient_is_identity_like_on_t0():
    s = sierpinski()
    q_space, q = t0_quotient(s)
    assert is_homeomorphism(q)
    assert q_space.points == ("{0}", "{1}")


def test_t0_quotient_universality():
    x = disjoint_union(indiscrete_space(["a", "b"]), discrete_space(["c"]))
    q_space, q = t0_quotient(x)
    targets = [s for s in all_spaces_upto(2) if is_t0(s)]
    for z in targets:
        for f in all_continuous_maps(x, z):
            lifts = [
                g
                for g in all_continuous_maps(q_space, z)
                if compose_maps(g, q) == f
            ]
            assert len(lifts) == 1


def test_sober_iff_t0_at_finite_scale():
    for x in all_spaces(3):
        assert is_sober(x) == is_t0(x)


def test_sobrification_of_t0_space_is_identity_up_to_homeo():
    s = sierpinski()
    sober, unit = sobrification(s)
    assert is_homeomorphism(unit)


def test_sobrification_collapses_indiscrete():
    sober, unit = sobrification(indiscrete_space(["a", "b"]))
    assert sober.n == 1
    assert unit.assignment == (0, 0)


def test_filter_space_is_sobrification_of_t0_quotient():
    for x in all_spaces(2):
        q_space, _ = t0_quotient(x)
        sober, _ = sobrification(q_space)
        assert homeomorphic(filter_space(x), sober)


# ---------------------------------------------------------------------------
# pairing


def test_pairing_is_homeomorphism_small():
    for x in all_spaces_upto(2):
        assert is_homeomorphism(pairing_map(x))


def test_pairing_naturality_small():
    from stonekit.dlat import ideal_functor_hom

    spaces = all_spaces_upto(2)
    for x in spaces:
        for y in spaces:
            for f in all_continuous_maps(x, y):
                # transported filter map must agree with the spectral route
                lhs = compose_maps(pairing_map(y), filter_map(f))
                rhs_map = spectrum_map(ideal_functor_hom(open_preimage_hom(f)))
                rhs = compose_maps(rhs_map, pairing_map(x))
                assert lhs == rhs


def test_open_frame_of_filters_iso_small():
    for x in all_spaces_upto(2):
        h = open_frame_of_filters_iso(x)
        assert sorted(h.assignment) == list(range(h.target.n))


# ---------------------------------------------------------------------------
# Hausdorff reflection and the compactification square


def test_hausdorff_reflection_examples():
    r, _ = hausdorff_reflection(sierpinski())
    assert r.n == 1
    r2, _ = hausdorff_reflection(discrete_space(["a", "b"]))
    assert r2.n == 2
    mixed = disjoint_union(sierpinski(), discrete_space(["p"]))
    r3, proj = hausdorff_reflection(mixed)
    assert r3.n == 2
    assert proj.assignment == (0, 0, 1)


def test_hausdorff_reflection_is_idempotent():
    for x in all_spaces_upto(2):
        r, _ = hausdorff_reflection(x)
        rr, again = hausdorff_reflection(r)
        assert is_homeomorphism(again)


def test_hausdorff_universality_to_discrete():
    x = disjoint_union(sierpinski(), discrete_space(["p"]))
    r, proj = hausdorff_reflection(x)
    for d in (discrete_space(["0"]), discrete_space(["0", "1"])):
        for f in all_continuous_maps(x, d):
            lifts = [
                g
                for g in all_continuous_maps(r, d)
                if compose_maps(g, proj) == f
            ]
            assert len(lifts) == 1


def test_compactification_square_on_samples():
    for x in (
        sierpinski(),
        discrete_space(["a", "b"]),
        indiscrete_space(["a", "b"]),
        disjoint_union(sierpinski(), discrete_space(["p"])),
    ):
        report = compactification_square(x)
        assert report.ok
        assert report.spectral_side.n == report.reflection_side.n


@pytest.mark.parametrize("x", [sierpinski(), discrete_space(["a", "b"])])
def test_a_prime_filter_missing_from_a_spectrum_is_an_invariant_violation(
    monkeypatch, x
):
    # every spectrum these constructions read loses its last point
    def short(lat):
        view = spectrum_view(lat)
        return type(view)(view.space, view.filters[:-1], view.sigma, view.carrier)

    monkeypatch.setattr(topspace, "spectrum_view", short)
    with pytest.raises(InvariantViolated, match="is not a prime filter"):
        sobrification(x)
    with pytest.raises(InvariantViolated, match="is not a prime filter"):
        pairing_map(x)
    # the square reports a missing character as no comparison
    report = compactification_square(x)
    assert report.comparison is None and not report.ok


def _with_a_lone_last_mask(view):
    """The view with its last element (mask) or point (prime filter) standing
    for its highest member alone. Every position stays, so a construction
    that also reads the masks by position (union_hom) reaches its lookup;
    and the union of all the masks is still the last one's set, which the
    view no longer holds."""
    if isinstance(view, SetLatticeView):
        masks = view.masks
        return SetLatticeView(view.lattice, masks[:-1] + (_highest(masks[-1]),))
    filters = view.filters[:-1] + (_highest(view.filters[-1]),)
    return SpectrumView(view.space, filters, view.sigma, view.carrier)


def _highest(mask):
    return 1 << mask.bit_length() - 1


def _lookup_sites():
    """Each construction that finds masks among the elements or points of a
    derived view, its argument, and the view, by name and argument, that it
    finds them in. Only that one view is altered: union_hom and
    comultiplication_hom read two ideal views, and the masks they find in
    one come from the other."""
    abc = lattice_from_poset(chain(["a", "b", "c"]))
    s = sierpinski()
    collapse = LatticeHom(abc, TWO, (0, 1, 1))
    # onto the points of the Sierpinski space, from a space of two others
    onto = ContinuousMap(discrete_space(["p", "q"]), s, (0, 1))
    opens = open_set_frame(s)
    return [
        (principal_embedding, abc, "ideal_view", abc),
        (union_hom, abc, "ideal_view", abc),
        (ideal_functor_hom, collapse, "ideal_view", TWO),
        (spectrum_map, collapse, "spectrum_view", abc),
        (spatiality_hom, abc, "open_frame_view", spectrum(abc)),
        (comultiplication_hom, abc, "ideal_view", ideal_lattice(abc)),
        (gamma_coalgebra, abc, "ideal_view", abc),
        (open_preimage_hom, onto, "open_frame_view", onto.source),
        (unit_map, s, "filter_space_view", s),
        (filter_map, onto, "filter_space_view", s),
        (mult_map, s, "filter_space_view", s),
        (sobrification, s, "spectrum_view", opens),
        (pairing_map, s, "spectrum_view", ideal_lattice(opens)),
        (open_frame_of_filters_iso, s, "ideal_view", opens),
    ]


LOOKUP_SITES = _lookup_sites()


@pytest.mark.parametrize(
    "construct, arg, name, of", LOOKUP_SITES, ids=[s[0].__name__ for s in LOOKUP_SITES]
)
def test_a_mask_missing_from_a_view_is_an_invariant_violation(
    monkeypatch, construct, arg, name, of
):
    # the view that the construction finds its masks in no longer holds its
    # last one; clearing the memos keeps a result of the full view from
    # hiding the miss
    full = getattr(topspace, name)

    def short(x):
        return _with_a_lone_last_mask(full(x)) if x == of else full(x)

    for module in (dlat, frame, spaces, topspace):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, short)
    clear_caches()
    with pytest.raises(
        InvariantViolated, match=" is not (a subset of the lattice|a prime filter)$"
    ):
        construct(arg)
    clear_caches()


def test_a_mask_that_is_no_open_prime_filter_is_an_invariant_violation():
    view = filter_space_view(sierpinski())
    assert view.indices_of(view.filters) == tuple(range(len(view.filters)))
    with pytest.raises(InvariantViolated, match="^{} is not a prime filter$"):
        view.indices_of((0,))


def test_compactification_of_sierpinski_is_a_point():
    report = compactification_square(sierpinski())
    assert report.spectral_side.n == 1


# ---------------------------------------------------------------------------
# ultrafilters


def test_ultrafilter_space_is_the_space_itself():
    for x in (sierpinski(), discrete_space(["a", "b"]), indiscrete_space(["a", "b"])):
        assert ultrafilter_space(x) == x


def test_ultrafilter_axioms_are_checked():
    principal = {a for a in range(4) if a & 0b01}
    assert _ultrafilter_violation(principal, 2) is None
    assert _ultrafilter_violation(principal | {0}, 2) == "proper"
    assert _ultrafilter_violation({0b01}, 2) == "up-closed"
    assert _ultrafilter_violation({0b01, 0b10, 0b11}, 2) == "meet-closed"
    assert _ultrafilter_violation({0b11}, 2) == "maximal"


def test_ultrafilter_search_finds_exactly_the_singletons():
    # the filter of supersets of {a,b} holds neither {a} nor its complement
    assert _ultrafilter_violation(_principal_filter(0b011, 3), 3) == "maximal"
    assert _ultrafilter_search(3) == (0b001, 0b010, 0b100)


def test_ultrafilter_space_rejects_a_search_beyond_the_points(monkeypatch):
    import stonekit.topspace as topspace

    monkeypatch.setattr(topspace, "_ultrafilter_search", lambda n: (0b01, 0b11))
    with pytest.raises(InvariantViolated):
        ultrafilter_space(discrete_space(["a", "b"]))


def test_ultrafilter_comparison_small():
    for x in all_spaces_upto(2):
        assert ultrafilter_comparison(x)


@settings(max_examples=40)
@given(st.sampled_from(all_spaces(3)))
def test_filter_space_count_equals_t0_classes(x):
    # eta is onto: filters biject with minimal-neighborhood classes
    assert filter_space(x).n == len(set(x.up))


@settings(max_examples=40)
@given(st.sampled_from(all_spaces(3)))
def test_unit_laws_on_random_three_point_spaces(x):
    fx = filter_space(x)
    mu = mult_map(x)
    assert compose_maps(mu, unit_map(fx)) == identity_map(fx)
    assert compose_maps(mu, filter_map(unit_map(x))) == identity_map(fx)


def _filter_space_view_by_prime_filters(x):
    """F X by the prime filters of the open frame (dlat.prime_filters),
    converted to masks over x.opens: the twin of the neighbourhood-filter
    route of filter_space_view, and one of the (route, twin) pairs of the
    reference run (ROADMAP item 2)."""
    frame = open_frame_view(x)
    pos = {o: i for i, o in enumerate(x.opens)}
    filters = tuple(
        sorted(
            mask_of(pos[frame.masks[p]] for p in bits(members))
            for members in prime_filters(frame.lattice)
        )
    )
    return filter_space_of(tuple(x.set_name(o) for o in x.opens), filters)


def test_filter_space_view_equals_its_prime_filter_twin(monkeypatch):
    # every space of at most 5 points, each route counted so that the
    # comparison cannot pass without running both
    calls = {"neighbourhoods": 0, "prime filters": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        topspace,
        "_neighborhood_filters",
        counted("neighbourhoods", topspace._neighborhood_filters),
    )
    monkeypatch.setitem(
        globals(), "prime_filters", counted("prime filters", prime_filters)
    )
    clear_caches()
    pool = all_spaces_upto(5)
    try:
        for x in pool:
            fast = filter_space_view.__wrapped__(x)
            twin = _filter_space_view_by_prime_filters(x)
            assert fast.filters == twin.filters, x
            assert fast.sigma == twin.sigma, x
            assert fast.carrier == twin.carrier, x
            assert fast.space == twin.space, x
    finally:
        clear_caches()
    assert len(pool) == 7332
    assert calls == {"neighbourhoods": 7332, "prime filters": 7332}


def test_networkx_agrees_on_the_t0_classes_and_the_preorder():
    # an oracle outside the package: imported here, so that a missing
    # networkx fails this test instead of skipping it
    import networkx

    pool = all_spaces_upto(4)
    assert len(pool) == 390
    for x in pool:
        # i below j when every open around i holds j, read off the opens
        specialization = networkx.DiGraph()
        specialization.add_nodes_from(range(x.n))
        specialization.add_edges_from(
            (i, j)
            for i in range(x.n)
            for j in range(x.n)
            if all((o >> j) & 1 for o in x.opens if (o >> i) & 1)
        )
        classes = networkx.condensation(specialization)
        assert classes.number_of_nodes() == filter_space(x).n, x
        nbhds = networkx.DiGraph()
        nbhds.add_nodes_from(range(x.n))
        nbhds.add_edges_from((i, j) for i in range(x.n) for j in bits(x.up[i]))
        closed = networkx.transitive_closure(nbhds, reflexive=True)
        preorder = tuple(mask_of(closed.successors(i)) for i in range(x.n))
        assert preorder == x.up, x
        assert set(closed.edges) == set(specialization.edges), x
        # the T0 quotient identifies exactly the points that networkx
        # condenses, and orders its classes by the condensation's closure
        quotient, q = t0_quotient(x)
        mapping = classes.graph["mapping"]
        for i in range(x.n):
            for j in range(x.n):
                same = mapping[i] == mapping[j]
                assert (q.assignment[i] == q.assignment[j]) == same, x
        node = {q.assignment[i]: mapping[i] for i in range(x.n)}
        below = networkx.transitive_closure(classes, reflexive=True)
        assert quotient.up == tuple(
            mask_of(l for l in range(quotient.n) if below.has_edge(node[k], node[l]))
            for k in range(quotient.n)
        ), x


def _filter_violation_pairwise(x, members):
    """The open prime filter check by pairwise loops over the opens: the
    twin of the prime filters of the open frame behind F X."""
    opens = x.opens
    pos = {o: i for i, o in enumerate(opens)}
    if members == 0:
        return "empty"
    if members >> len(opens):
        return "members out of range"
    if members & 1:
        return "contains the empty set"
    chosen = [opens[i] for i in range(len(opens)) if (members >> i) & 1]
    for a in chosen:
        for b in opens:
            if a & ~b == 0 and not (members >> pos[b]) & 1:
                return f"not up-closed at {x.set_name(b)}"
    for a in chosen:
        for b in chosen:
            if not (members >> pos[a & b]) & 1:
                return f"not meet-closed at {x.set_name(a & b)}"
    for a in opens:
        for b in opens:
            if (members >> pos[a | b]) & 1 and not (
                (members >> pos[a]) & 1 or (members >> pos[b]) & 1
            ):
                return f"union {x.set_name(a | b)} in filter but no side is"
    return None


def test_filter_space_holds_exactly_the_masks_the_pairwise_twin_accepts():
    # F X has a point for each prime filter, none missing and none extra
    verdicts = set()
    for x in all_spaces_upto(3):
        # every member mask over the opens, and as many reaching past them
        accepted = []
        for members in range(1 << (len(x.opens) + 1)):
            expected = _filter_violation_pairwise(x, members)
            if expected is None:
                accepted.append(members)
            verdicts.add(expected if expected is None else expected.split()[0])
        assert filter_space_view(x).filters == tuple(accepted), x
    assert verdicts == {None, "empty", "members", "contains", "not", "union"}
