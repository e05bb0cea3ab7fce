"""Document parsing, validation diagnostics, and byte-exact round trips."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from stonekit.documents import dumps, load_lattice, load_space, loads
from stonekit.errors import CycleError, NotDistributive, ParseError
from stonekit.spaces import sierpinski
from stonekit.universes import all_spaces_upto, lattice_universe

SIERPINSKI_DOC = """\
type: "space"
name: "sierpinski"
points: ["0", "1"]
opens: [[], ["1"], ["0", "1"]]
"""

DIAMOND_DOC = """\
type: "lattice"
name: "diamond"
elements: ["0", "a", "b", "1"]
leq: [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]
"""

M3_DOC = """\
type: "lattice"
name: "m3"
elements: ["0", "a", "b", "c", "1"]
leq: [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]]
"""


def test_space_document_loads():
    name, x = load_space(SIERPINSKI_DOC)
    assert name == "sierpinski"
    assert x == sierpinski().__class__(("0", "1"), (0b11, 0b10))
    assert x.opens == (0, 2, 3)


def test_space_opens_are_generators():
    """The closure under unions and intersections is applied at load."""
    sparse = 'type: "space"\nname: "s"\npoints: ["0", "1"]\nopens: [["1"]]\n'
    _, from_generators = load_space(sparse)
    _, from_full = load_space(SIERPINSKI_DOC)
    assert from_generators == from_full


def test_lattice_document_loads_and_closes_leq():
    name, lat = load_lattice(DIAMOND_DOC)
    assert name == "diamond"
    assert lat.n == 4
    assert lat.leq_index(lat.index("0"), lat.index("1"))


def test_leq_pairs_need_not_be_covers():
    redundant = DIAMOND_DOC.replace(
        ']]', '], ["0", "1"]]'
    )
    _, lat = load_lattice(redundant)
    _, plain = load_lattice(DIAMOND_DOC)
    assert lat == plain


def test_nondistributive_lattice_is_rejected_with_witness():
    with pytest.raises(NotDistributive) as excinfo:
        load_lattice(M3_DOC)
    assert excinfo.value.witness == ("a", "b", "c")


def test_cyclic_order_is_rejected():
    doc = 'type: "lattice"\nname: "c"\nelements: ["a", "b"]\nleq: [["a", "b"], ["b", "a"]]\n'
    with pytest.raises(CycleError):
        load_lattice(doc)


def test_comments_and_blank_lines_are_skipped():
    doc = "# leading comment\n\n" + SIERPINSKI_DOC + "\n# trailing\n"
    _, x = load_space(doc)
    assert x.n == 2


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("type\n", "expected 'key: value'", 1),
        ('type: "space"\ntype: "space"\n', "duplicate key", 2),
        ('type: "space"\nname: [broken\n', "bad JSON", 2),
        ('type: "group"\n', "unknown document type", 1),
        ('type: "space"\nname: 3\n', "must be a string", 2),
        ('type: "space"\nname: "x"\npoints: [1]\nopens: []\n', "list of strings", 3),
        (
            'type: "space"\nname: "x"\npoints: ["p"]\nopens: [["q"]]\n',
            "unknown point",
            4,
        ),
        (
            'type: "space"\nname: "x"\npoints: ["p", "p"]\nopens: []\n',
            "duplicate point",
            3,
        ),
        (
            'type: "lattice"\nname: "x"\nelements: ["a"]\nleq: [["a", "z"]]\n',
            "unknown element",
            4,
        ),
        (
            'type: "lattice"\nname: "x"\nelements: ["a"]\nleq: ["a"]\n',
            "list of [low, high] pairs",
            4,
        ),
        (
            'type: "lattice"\nname: "x"\nelements: ["a"]\nleq: []\nextra: 1\n',
            "unexpected key",
            5,
        ),
    ],
)
def test_malformed_documents_report_the_line(text, fragment, line):
    with pytest.raises(ParseError) as excinfo:
        loads(text)
    assert fragment in excinfo.value.message
    assert excinfo.value.line == line


def test_missing_keys_are_reported():
    with pytest.raises(ParseError) as excinfo:
        loads('type: "space"\nname: "x"\npoints: []\n')
    assert "missing key 'opens'" in excinfo.value.message


def test_wrong_kind_is_reported():
    with pytest.raises(ParseError):
        load_space(DIAMOND_DOC)
    with pytest.raises(ParseError):
        load_lattice(SIERPINSKI_DOC)


def test_dumps_rejects_other_types():
    with pytest.raises(TypeError):
        dumps(42, "x")


@given(st.sampled_from(lattice_universe(3)))
@settings(max_examples=24, deadline=None)
def test_lattice_round_trip_is_byte_exact(lat):
    text = dumps(lat, "probe")
    name, back = load_lattice(text)
    assert name == "probe" and back == lat
    assert dumps(back, name) == text


@given(st.sampled_from(all_spaces_upto(3)))
@settings(max_examples=35, deadline=None)
def test_space_round_trip_is_byte_exact(x):
    text = dumps(x, "probe")
    name, back = load_space(text)
    assert name == "probe" and back == x
    assert dumps(back, name) == text
