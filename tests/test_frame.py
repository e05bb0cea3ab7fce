"""Way-below, stable compactness, regularity, spectra, the ideal comonad."""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from stonekit import frame, instances
from stonekit.bitsets import mask_of
from stonekit.memo import clear_caches
from stonekit.cli import main
from stonekit.dlat import (
    TWO,
    DistLattice,
    LatticeHom,
    SetLatticeView,
    all_lattice_homs,
    compose_homs,
    downset_lattice,
    homs_to_2,
    ideal_view,
    lattice_from_poset,
    lattice_isomorphic,
    principal_embedding,
)
from stonekit.documents import loads
from stonekit.errors import BudgetExceeded, InvariantViolated
from stonekit.frame import (
    center_lattice,
    CenterView,
    center_view,
    comultiplication_hom,
    comultiplication_via_functor,
    complemented_mask,
    corestrict_to_center,
    counit_hom,
    filter_space_of,
    gamma_coalgebra,
    is_boolean,
    is_compact,
    is_regular,
    is_spatial,
    is_stably_compact,
    pseudocomplement,
    spatiality_hom,
    spectrum,
    spectrum_map,
    spectrum_view,
    stably_compact_report,
    WayBelowRelation,
    way_below,
    way_below_bruteforce,
    well_inside_masks,
)
from stonekit.catengine import AlgebraInstance, check_algebra
from stonekit.instances import (
    IDEAL_MONAD_ON_LOCALES,
    coalgebra_structures,
    frame_morphisms,
    is_proper_hom,
    run_suite,
)
from stonekit.order import (
    _unvalidated,
    antichain,
    chain,
    make_poset,
    order_closure,
    transpose,
)
from stonekit.spaces import (
    discrete_space,
    homeomorphic,
    open_frame_view,
    open_set_frame,
    sierpinski,
    space_from_basis,
)
from stonekit.topspace import filter_space_view
from stonekit.universes import all_spaces, all_spaces_upto, lattice_universe
from test_dlat import tables
from test_memo import VIEWS, module_tables


def diamond():
    return downset_lattice(antichain(["a", "b"]))


def chain3():
    return downset_lattice(chain(["a", "b"]))


def six():
    """Downsets of (a < b, c separate): smallest center strictly between."""
    return downset_lattice(order_closure(["a", "b", "c"], [("a", "b")]))


# ---------------------------------------------------------------------------
# way-below


def test_way_below_collapses_to_order_on_samples():
    for lat in (TWO, chain3(), diamond(), six()):
        assert way_below_bruteforce(lat).below == lat.poset.down


def test_way_below_reads_the_order_and_nothing_else():
    lat = downset_lattice(order_closure(list("abcde"), [("a", "b"), ("c", "d")]))
    assert lat.n == 18
    # meet and join tables withheld: the definitional route fails on them
    tableless = _unvalidated(DistLattice, lat.poset)
    assert way_below(tableless).below == way_below_bruteforce(lat).below
    with pytest.raises(AttributeError):
        way_below_bruteforce(tableless)


def way_below_calls(monkeypatch, run):
    """The lattices `run` passes to frame.way_below, one per shape."""
    seen = {}

    def recording(lat):
        seen.setdefault(lat.shape, lat)
        return way_below(lat)

    clear_caches()
    monkeypatch.setattr(frame, "way_below", recording)
    try:
        run()
    finally:
        monkeypatch.undo()
        clear_caches()
    return list(seen.values())


def test_way_below_equals_its_definitional_twin(monkeypatch):
    lats = list(lattice_universe(4))
    for name, max_points in (("comonad-k", 3), ("lifting", 4)):
        reached = way_below_calls(
            monkeypatch, lambda: list(run_suite(name, max_points=max_points))
        )
        assert reached, name
        lats += reached
    for lat in lats:
        assert way_below(lat) == way_below_bruteforce(lat), lat.elements


def test_a_way_below_oracle_that_drops_a_pair_fails_the_degeneracy_suite(
    monkeypatch,
):
    def dropped(lat):
        wb = way_below_bruteforce(lat)
        # bottom is no longer way below top
        below = list(wb.below)
        below[lat.top] &= ~(1 << lat.bot)
        return WayBelowRelation(lat, tuple(below))

    monkeypatch.setattr(instances, "way_below_bruteforce", dropped)
    rows = list(run_suite("degeneracy"))
    failed = {law for _, law, ok, _ in rows if not ok}
    assert failed == {"degeneracy.way-below-is-order"}


def test_way_below_pairs_readable():
    wb = way_below(chain3())
    assert wb.holds("{}", "{a}")
    assert wb.holds("{a}", "{a}")
    assert not wb.holds("{a,b}", "{a}")


def test_every_universe_lattice_is_compact():
    assert all(is_compact(lat) for lat in lattice_universe(3))


def test_universe_is_stably_compact():
    for lat in lattice_universe(3):
        report = stably_compact_report(lat)
        assert report.ok, report.witness


def test_stably_compact_bool():
    assert is_stably_compact(diamond())


# ---------------------------------------------------------------------------
# regularity and the center


def test_pseudocomplement_in_chain():
    c = chain3()
    assert pseudocomplement(c, c.index("{a}")) == c.bot
    assert pseudocomplement(c, c.bot) == c.top
    assert pseudocomplement(c, c.top) == c.bot


def test_well_inside_chain_frozen():
    # only bottom sits well inside the middle level
    c = chain3()
    inside = well_inside_masks(c)
    assert inside[c.index("{a}")] == 1 << c.bot
    assert inside[c.top] == (1 << c.n) - 1


def test_regularity_examples():
    assert not is_regular(chain3())
    assert is_regular(diamond())
    assert is_regular(TWO)


def test_regular_iff_boolean_on_universe():
    for lat in lattice_universe(3):
        assert is_regular(lat) == is_boolean(lat)


def test_center_of_chain_is_two():
    assert lattice_isomorphic(center_lattice(chain3()), TWO)


def test_center_of_six_frozen():
    center = center_view(six())
    assert center.lattice.n == 4
    assert set(center.lattice.elements) == {"{}", "{c}", "{a,b}", "{a,b,c}"}


def test_center_of_boolean_is_everything():
    assert center_lattice(diamond()) == diamond()


def _center_rebuilt(lat):
    """The center built from the complemented elements as a subposet."""
    center = lattice_from_poset(lat.poset.restrict(complemented_mask(lat)))
    inclusion = LatticeHom(center, lat, tuple(lat.index(e) for e in center.elements))
    return CenterView(center, inclusion)


def test_center_of_a_boolean_lattice_is_itself_as_rebuilt():
    boolean = [lat for lat in lattice_universe(4) if is_boolean(lat)]
    assert sorted(lat.n for lat in boolean) == [1, 2, 4, 8, 16]
    for lat in boolean + [open_set_frame(discrete_space("abcdef"))]:
        view = center_view(lat)
        assert view.lattice == lat
        assert_same_center(view, _center_rebuilt(lat))


def assert_same_center(view, rebuilt):
    assert view == rebuilt
    assert tables(view.lattice) == tables(rebuilt.lattice)


def test_center_of_every_universe_lattice_equals_the_rebuilt_route():
    for lat in lattice_universe(4):
        assert_same_center(center_view(lat), _center_rebuilt(lat))


def test_center_couniversality_by_enumeration():
    target = six()
    incl = center_view(target).inclusion
    for source in (TWO, diamond(), downset_lattice(antichain(list("abc")))):
        assert is_boolean(source)
        for hom in all_lattice_homs(source, target):
            through = corestrict_to_center(hom)
            assert through is not None  # Boolean images land in the center
            assert compose_homs(incl, through) == hom
            # inclusion is injective, so the factorization is forced
            assert all(
                incl.assignment[v] == hom.assignment[i]
                for i, v in enumerate(through.assignment)
            )


def test_corestriction_fails_outside_center():
    c = chain3()
    mid = LatticeHom(c, c, tuple(range(c.n)))
    assert corestrict_to_center(mid) is None


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_of_two_is_a_point():
    assert spectrum(TWO).n == 1


def test_spectrum_of_trivial_lattice_is_empty():
    one = downset_lattice(antichain([]))
    assert spectrum(one).n == 0


def test_spectrum_of_chain_is_sierpinski():
    assert homeomorphic(spectrum(chain3()), sierpinski())


def test_spectrum_of_diamond_is_discrete_pair():
    assert homeomorphic(spectrum(diamond()), discrete_space(["a", "b"]))


def test_spectrum_points_name_their_filters():
    view = spectrum_view(chain3())
    assert view.space.points == ("up({a,b})", "up({a})")
    assert view.space.opens == (0, 2, 3)


def test_the_opens_of_a_space_of_filters_are_its_basic_opens():
    # the space is built from the inclusion order of its filters, so its
    # up-sets must be exactly the basic opens sigma
    views = [spectrum_view(lat) for lat in lattice_universe(4)]
    views += [filter_space_view(x) for x in all_spaces_upto(4)]
    assert len(views) == 243 + 390
    for view in views:
        assert sorted(set(view.sigma)) == list(view.space.opens), view
        assert view.space == space_from_basis(view.space.points, view.sigma)


def test_other_filters_get_the_topology_their_basic_opens_generate():
    # {a,b} and {b,c} are incomparable, so the up-sets of inclusion are
    # discrete, and they hold the empty set that the basic opens miss
    view = filter_space_of(("a", "b", "c"), (0b011, 0b110))
    assert view.sigma == (0b01, 0b11, 0b10)
    assert view.space.opens == (0, 1, 2, 3)
    assert view.space == space_from_basis(view.space.points, view.sigma)


def test_a_mask_that_is_no_prime_filter_is_an_invariant_violation():
    view = spectrum_view(chain3())
    assert view.filters == (0b100, 0b110)
    assert view.indices_of(view.filters) == (0, 1)
    with pytest.raises(InvariantViolated, match="^{{a}} is not a prime filter$"):
        view.indices_of((0b100, 0b010, 0b001))
    # a pulled-back filter that no point holds is named by the source's
    # elements as well
    identity = LatticeHom(chain3(), chain3(), (0, 1, 2))
    with pytest.raises(InvariantViolated, match="^{{a,b}} is not a prime filter$"):
        frame._spectrum_assignment.__wrapped__(identity, view.filters, {})


def _assert_named_by_lowest_member(carrier, space, filters, up):
    """Point k is up(j) for j the lowest bit of filters[k], and the filter is
    exactly the up-set up[j] of that generator."""
    assert len(set(space.points)) == len(space.points)
    for name, m in zip(space.points, filters):
        j = (m & -m).bit_length() - 1
        assert name == f"up({carrier[j]})"
        assert m == up[j]


def test_spectrum_points_are_named_by_their_generators():
    for lat in lattice_universe(4):
        view = spectrum_view(lat)
        _assert_named_by_lowest_member(
            lat.elements, view.space, view.filters, transpose(lat.poset.down)
        )


def test_filter_points_are_named_by_their_generators():
    for x in all_spaces(3):
        view = filter_space_view(x)
        up = [
            mask_of(k for k, o in enumerate(x.opens) if u & ~o == 0) for u in x.opens
        ]
        carrier = [x.set_name(o) for o in x.opens]
        _assert_named_by_lowest_member(carrier, view.space, view.filters, up)


DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

# outputs of the subcommands that print derived names, as they were when
# ideals and filters were named by their members (format_subset)
MEMBER_NAMED_OUTPUTS = {
    ("ideals", "chain3.lattice"): """# ideals: 3 ideals of 3 elements, all principal
type: "lattice"
name: "ideals of chain3"
elements: ["{0}", "{0,m}", "{0,m,1}"]
leq: [["{0}", "{0,m}"], ["{0,m}", "{0,m,1}"]]
""",
    ("spectrum", "chain3.lattice"): """# spectrum: 2 points, 3 opens
type: "space"
name: "spectrum of chain3"
points: ["{1}", "{m,1}"]
opens: [[], ["{m,1}"], ["{1}", "{m,1}"]]
""",
    ("ideals", "diamond.lattice"): """# ideals: 4 ideals of 4 elements, all principal
type: "lattice"
name: "ideals of diamond"
elements: ["{0}", "{0,a}", "{0,b}", "{0,a,b,1}"]
leq: [["{0}", "{0,a}"], ["{0}", "{0,b}"], ["{0,a}", "{0,a,b,1}"], ["{0,b}", "{0,a,b,1}"]]
""",
    ("spectrum", "diamond.lattice"): """# spectrum: 2 points, 4 opens
type: "space"
name: "spectrum of diamond"
points: ["{a,1}", "{b,1}"]
opens: [[], ["{a,1}"], ["{b,1}"], ["{a,1}", "{b,1}"]]
""",
    ("filters", "sierpinski.space"): """# filters: 2 filters, 3 opens
type: "space"
name: "filters of sierpinski"
points: ["{{0,1}}", "{{1},{0,1}}"]
opens: [[], ["{{1},{0,1}}"], ["{{0,1}}", "{{1},{0,1}}"]]
""",
    ("sobrify", "sierpinski.space"): """# sobrification: 2 -> 2 points, already sober
type: "space"
name: "sobrification of sierpinski"
points: ["{{0,1}}", "{{1},{0,1}}"]
opens: [[], ["{{1},{0,1}}"], ["{{0,1}}", "{{1},{0,1}}"]]
""",
    ("cechstone", "sierpinski.space"): """# cechstone "sierpinski": both sides: 1 point, ISO
type: "space"
name: "compactification of sierpinski"
points: ["{{{{0,1}},{{1},{0,1}}}}"]
opens: [[], ["{{{{0,1}},{{1},{0,1}}}}"]]
""",
}


@pytest.mark.parametrize(
    "command, document", sorted(MEMBER_NAMED_OUTPUTS), ids="-".join
)
def test_derived_documents_differ_only_by_relabelling(capsys, command, document):
    code = main([command, str(DATA / document)])
    out = capsys.readouterr().out
    before = MEMBER_NAMED_OUTPUTS[command, document]
    assert code == 0
    assert out.splitlines()[0] == before.splitlines()[0]
    kind, name, new = loads(out)
    old_kind, old_name, old = loads(before)
    assert (kind, name) == (old_kind, old_name)
    if kind == "lattice":
        assert lattice_isomorphic(new, old)
    else:
        assert homeomorphic(new, old)


def test_point_characters_enumerate_homs():
    # the character of point k sends a to 1 exactly when the basic open of
    # a holds k, and these characters are the homs into 2, in point order
    for lat in lattice_universe(4):
        view = spectrum_view(lat)
        characters = tuple(
            tuple((view.sigma[a] >> k) & 1 for a in range(lat.n))
            for k in range(len(view.space.points))
        )
        assert characters == tuple(h.assignment for h in homs_to_2(lat))


def test_spatiality_on_universe_samples():
    for lat in lattice_universe(3):
        assert is_spatial(lat)


def test_spatiality_hom_sends_elements_to_basic_opens():
    lat = chain3()
    h = spatiality_hom(lat)
    assert h.apply("{}") == "{}"
    assert sorted(h.assignment) == list(range(lat.n))


# ---------------------------------------------------------------------------
# ideal comonad


def test_comultiplication_pointwise_frozen():
    d = diamond()
    view = ideal_view(d)
    double = ideal_view(view.lattice)
    c = comultiplication_hom(d)
    (a,) = view.indices_of((0b0011,))
    c_of_a = double.masks[c.assignment[a]]
    # ideals whose join lands under {a}: just bottom and the principal of {a}
    member_masks = {view.masks[k] for k in range(view.lattice.n) if (c_of_a >> k) & 1}
    assert member_masks == {0b0001, 0b0011}


def test_comultiplication_reads_joins_off_the_top_bit():
    """Twin of the fast route: c(I) by its definition, the ideals whose
    join (computed with join_mask) lands in I."""
    lattices = 0
    for lat in lattice_universe(4):
        view = ideal_view(lat)
        double = ideal_view(view.lattice)
        c = comultiplication_hom(lat)
        assert all(m.bit_length() - 1 == lat.join_mask(m) for m in view.masks)
        for k, ideal in enumerate(view.masks):
            definitional = mask_of(
                j for j, m in enumerate(view.masks) if (ideal >> lat.join_mask(m)) & 1
            )
            assert double.masks[c.assignment[k]] == definitional
        lattices += 1
    assert lattices == 243


def test_comultiplication_routes_agree():
    for lat in (TWO, chain3(), diamond(), six()):
        assert comultiplication_hom(lat) == comultiplication_via_functor(lat)


def test_counit_after_comultiplication_is_identity():
    for lat in (chain3(), diamond()):
        view = ideal_view(lat)
        counit_level_up = counit_hom(view.lattice)
        assert compose_homs(counit_level_up, comultiplication_hom(lat)).assignment == tuple(
            range(view.lattice.n)
        )


def test_gamma_equals_principal_embedding_at_finite_scale():
    for lat in (TWO, chain3(), diamond(), six()):
        assert gamma_coalgebra(lat) == principal_embedding(lat)


def test_gamma_is_a_coalgebra():
    for lat in lattice_universe(3):
        alg = AlgebraInstance(IDEAL_MONAD_ON_LOCALES, lat, gamma_coalgebra(lat))
        for check in check_algebra(alg):
            assert check.ok, str(check)


def test_broken_coalgebra_reported():
    c = chain3()
    view = ideal_view(c)
    gamma = gamma_coalgebra(c)
    squash = list(gamma.assignment)
    squash[c.index("{a}")] = gamma.assignment[c.bot]  # middle level to bottom ideal
    structure = LatticeHom(c, view.lattice, tuple(squash))
    # the counit law of the coalgebra is the unit law of the locale algebra
    unit, _ = check_algebra(AlgebraInstance(IDEAL_MONAD_ON_LOCALES, c, structure))
    assert not unit.ok
    assert unit.name.endswith(": unit")


def test_gamma_unique_by_exhaustive_search():
    for lat in (TWO, chain3(), diamond()):
        found = coalgebra_structures(lat)
        assert found == (gamma_coalgebra(lat),)


def test_coalgebra_search_budget():
    # the Boolean lattice on 7 atoms and its ideal lattice have 7
    # join-irreducibles each: 7^7 candidates, past the one budget of
    # order.monotone_maps
    boolean = downset_lattice(antichain(list("abcdefg")))
    with pytest.raises(BudgetExceeded, match="^823543 assignments exceed the limit 200000$"):
        coalgebra_structures(boolean)


def test_all_finite_homs_are_proper():
    lats = [TWO, chain3(), diamond()]
    for src in lats:
        for tgt in lats:
            for hom in all_lattice_homs(src, tgt):
                assert is_proper_hom(hom)


@given(st.sampled_from(lattice_universe(3)))
def test_way_below_matches_order_universewide(lat):
    assert way_below_bruteforce(lat).below == lat.poset.down


# ---------------------------------------------------------------------------
# memo contract: the filter-space opens and the spectrum_map assignments are
# computed once per name-free input; each check runs once per distinct key


def relabelled(lat, prefix):
    """lat with each element e renamed prefix + e; the shape stays."""
    return lattice_from_poset(
        make_poset([prefix + e for e in lat.elements], lat.poset.down)
    )


def test_memoised_filter_space_opens_equal_fresh_ones():
    lats = lattice_universe(4)
    for lat in lats + tuple(relabelled(lat, "p") for lat in lats):
        view = spectrum_view(lat)
        sigma = tuple(
            mask_of(k for k, m in enumerate(view.filters) if (m >> a) & 1)
            for a in range(lat.n)
        )
        assert view.sigma == sigma
        assert view.space.opens == tuple(sorted(set(sigma)))
        assert view.space.points == tuple(
            f"up({lat.elements[(m & -m).bit_length() - 1]})" for m in view.filters
        )


def fresh_spectrum_assignment(h):
    src = spectrum_view(h.target).filters
    tgt = spectrum_view(h.source).filters
    out = []
    for fm in src:
        pulled = mask_of(a for a, v in enumerate(h.assignment) if (fm >> v) & 1)
        out.append(tgt.index(pulled))
    return tuple(out)


def test_memoised_spectrum_maps_equal_fresh_ones():
    homs = list(frame_morphisms(2))
    homs += [
        LatticeHom(relabelled(h.source, "p"), relabelled(h.target, "q"), h.assignment)
        for h in frame_morphisms(2)
    ]
    for h in homs:
        f = spectrum_map(h)
        assert f.assignment == fresh_spectrum_assignment(h)
        assert f.source is spectrum(h.target) and f.target is spectrum(h.source)


def _structure(lat):
    return lat.poset.down


# the name-free value each memo stands for, spelt out from the arguments
# without shapes, so that a shape given to two equal lattices apart would
# show up as one value checked twice
NAME_FREE_VALUE = {
    "_order_shape": lambda p: p.down,
    "_check_distributive": _structure,
    "_check_hom": lambda s, t, f: (_structure(s), _structure(t), f),
    "prime_filters": _structure,
    "_ideal_image_assignment": lambda *masks: masks,
    # each name replaced by its place among the sorted names
    "_inclusion_lattice": lambda masks, names: (
        masks,
        tuple(sorted(names).index(e) for e in names),
    ),
    "_preorder_opens": lambda x: x.up,
    "_check_continuous": lambda x, y, f: (x.up, y.up, f),
    "_filter_opens": lambda n, filters: (n, filters),
    "_spectrum_assignment": lambda h, filters, point_of: (
        _structure(h.source),
        _structure(h.target),
        h.assignment,
    ),
    "positions": lambda masks: masks,
    "shared": lambda values: values,
}


def test_each_name_free_value_is_checked_once(monkeypatch):
    tables = module_tables()
    assert len(tables) == 22 and not VIEWS & set(NAME_FREE_VALUE)
    assert sorted(set(tables) - VIEWS) == sorted(NAME_FREE_VALUE)
    memos = [tables[name] for name in NAME_FREE_VALUE]
    clear_caches()
    runs = {memo.__name__: [] for memo in memos}
    for memo in memos:

        def counted(*args, inner=memo.__wrapped__, name=memo.__name__):
            runs[name].append(NAME_FREE_VALUE[name](*args))
            return inner(*args)

        monkeypatch.setattr(memo, "__wrapped__", counted)
    try:
        rows = list(run_suite("lifting", max_points=2))
        assert len(rows) == 733 and all(ok for _, _, ok, _ in rows)
        for memo in memos:
            values = runs[memo.__name__]
            assert values, memo.__name__
            assert len(values) == len(set(values)), memo.__name__
            assert len(memo.table) == len(values), memo.__name__
    finally:
        clear_caches()


def test_the_derived_names_of_a_law_run_are_one_string_per_value():
    clear_caches()
    try:
        assert len(list(run_suite("lifting", max_points=2))) == 733
        lattices = [*ideal_view.table.values(), *open_frame_view.table.values()]
        names = [name for view in lattices for name in view.lattice.elements]
        spaces = spectrum_view.table.values()
        names += [name for view in spaces for name in view.space.points]
        distinct = set(names)
        # the views repeat their names, so sharing them is not vacuous
        assert len(names) > 2 * len(distinct) > 0
        assert len({id(name) for name in names}) == len(distinct)
    finally:
        clear_caches()


def _assert_derived_table(make, table, shared):
    read, fresh = make(), make()
    assert getattr(read, table) is shared
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert "{" not in repr(read)


def test_views_of_equal_masks_share_one_position_table():
    abc = lattice_from_poset(chain(["a", "b", "c"]))
    xyz = lattice_from_poset(chain(["x", "y", "z"]))
    ideals = ideal_view(abc), ideal_view(xyz)
    assert ideals[0].masks == ideals[1].masks and ideals[0] != ideals[1]
    assert ideals[0].element_of is ideals[1].element_of
    spectra = spectrum_view(abc), spectrum_view(xyz)
    assert spectra[0].filters == spectra[1].filters == (0b100, 0b110)
    assert spectra[0].point_of is spectra[1].point_of
    # the table is derived: a view that has read it equals, hashes and
    # prints as one that has not
    _assert_derived_table(
        lambda: SetLatticeView(abc, ideals[0].masks), "element_of", ideals[0].element_of
    )
    _assert_derived_table(
        lambda: filter_space_of(abc.elements, spectra[0].filters),
        "point_of",
        spectra[0].point_of,
    )
    # a mask outside the shared table is reported in each view's own terms
    for view in ideals:
        with pytest.raises(InvariantViolated) as raised:
            view.indices_of((0b010,))
        assert str(raised.value) == "mask 0b10 is not a subset of the lattice"
    for view, members in zip(spectra, ("{a,b}", "{x,y}")):
        with pytest.raises(InvariantViolated) as raised:
            view.indices_of((0b011,))
        assert str(raised.value) == f"{members} is not a prime filter"
