"""End-to-end command tests: documents in, reports out, exit codes."""

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stonekit import dlat
from stonekit.cli import main
from stonekit.instances import LAW_SUITES
from stonekit.memo import clear_caches

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_space(capsys):
    code, out, err = run(capsys, "validate", str(DATA / "sierpinski.space"))
    assert code == 0 and err == ""
    assert out.splitlines()[0] == '# space "sierpinski": 2 points, 3 opens, T0'
    assert 'opens: [[], ["1"], ["0", "1"]]' in out


def test_validate_lattice(capsys):
    code, out, err = run(capsys, "validate", str(DATA / "diamond.lattice"))
    assert code == 0
    assert out.splitlines()[0] == '# lattice "diamond": 4 elements, Boolean, distributive'


def test_validate_rejects_nondistributive(capsys):
    code, out, err = run(capsys, "validate", str(DATA / "m3.lattice"))
    assert code == 1 and out == ""
    assert "distributivity fails at triple ('a', 'b', 'c')" in err


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "validate", str(DATA / "nope.lattice"))
    assert code == 2
    assert "error:" in err


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.space"
    bad.write_text('type: "space"\nname: [oops\n')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 2" in err


def test_spectrum_of_diamond_is_two_point_discrete(capsys):
    code, out, err = run(capsys, "spectrum", str(DATA / "diamond.lattice"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# spectrum: 2 points, 4 opens"
    assert 'name: "spectrum of diamond"' in out


def test_ideals_of_chain(capsys):
    code, out, err = run(capsys, "ideals", str(DATA / "chain3.lattice"))
    assert code == 0
    assert out.splitlines()[0] == "# ideals: 3 ideals of 3 elements, all principal"


def test_filters_of_sierpinski(capsys):
    code, out, err = run(capsys, "filters", str(DATA / "sierpinski.space"))
    assert code == 0
    assert out.splitlines()[0] == "# filters: 2 filters, 3 opens"


def test_sobrify_reports_already_sober(capsys):
    code, out, err = run(capsys, "sobrify", str(DATA / "sierpinski.space"))
    assert code == 0
    assert out.splitlines()[0] == "# sobrification: 2 -> 2 points, already sober"


def test_t0_and_hausdorff(tmp_path, capsys):
    doc = 'type: "space"\nname: "blob"\npoints: ["x", "y"]\nopens: []\n'
    path = tmp_path / "blob.space"
    path.write_text(doc)
    code, out, _ = run(capsys, "t0", str(path))
    assert code == 0 and out.splitlines()[0] == "# t0: 2 -> 1 points"
    code, out, _ = run(capsys, "hausdorff", str(path))
    assert code == 0 and out.splitlines()[0] == "# hausdorff: 2 -> 1 points, discrete"


def test_center_of_chain_is_trivial(capsys):
    code, out, err = run(capsys, "center", str(DATA / "chain3.lattice"))
    assert code == 0
    assert out.splitlines()[0] == "# center: 2 of 3 elements complemented"


def test_waybelow_report(capsys):
    code, out, err = run(capsys, "waybelow", str(DATA / "chain3.lattice"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '# waybelow of "chain3": 6 pairs; stably compact: yes; regular: no'
    assert "0 << m" in lines and "m << 1" in lines


def divisor_lattice_document(n: int) -> str:
    """The divisors of n under divisibility, listed in string order (not a
    linear extension) and ordered by their covers."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    names = sorted(f"d{d}" for d in divisors)
    covers = [
        [f"d{d}", f"d{d * p}"] for d in divisors for p in (2, 3, 5, 7) if n % (d * p) == 0
    ]
    return (
        f'type: "lattice"\nname: "divisors of {n}"\n'
        f"elements: {json.dumps(names)}\nleq: {json.dumps(covers)}\n"
    )


@pytest.mark.parametrize(
    "n, lines, digest",
    [
        # 18 elements, not Boolean
        (180, 109, "6b818c8ee1ad9f4948284b5bde4ba32531a351298eec175993aa047242e60fc3"),
        # 16 elements, Boolean
        (210, 82, "0b875d1db85a773f081d579d246247fd8efc7738c37958bbed055df1b403b9ee"),
    ],
)
def test_waybelow_report_is_pinned(tmp_path, capsys, n, lines, digest):
    # the relation, the order of its pairs and the report flags, as the
    # subset enumeration printed them
    path = tmp_path / f"divisors{n}.lattice"
    path.write_text(divisor_lattice_document(n))
    code, out, err = run(capsys, "waybelow", str(path))
    assert code == 0 and err == ""
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cechstone_of_sierpinski_collapses_to_a_point(capsys):
    code, out, err = run(capsys, "cechstone", str(DATA / "sierpinski.space"))
    assert code == 0
    assert out.splitlines()[0] == '# cechstone "sierpinski": both sides: 1 point, ISO'


def test_export_dot_sierpinski(capsys):
    code, out, err = run(capsys, "export", "dot", str(DATA / "sierpinski.space"))
    assert code == 0
    assert '"0" -> "1";' in out
    assert out.count("->") == 1
    assert 'label="opens: {}, {1}, {0,1}";' in out


def test_export_dot_diamond_has_four_cover_edges(capsys):
    code, out, err = run(capsys, "export", "dot", str(DATA / "diamond.lattice"))
    assert code == 0
    assert out.count("->") == 4


def test_export_dot_chain_has_two_cover_edges(capsys):
    code, out, err = run(capsys, "export", "dot", str(DATA / "chain3.lattice"))
    assert code == 0
    assert out.count("->") == 2


@pytest.mark.parametrize("suite", ["monad-f", "monad-i", "pairing", "ultrafilter"])
def test_law_suites_pass_at_small_sizes(capsys, suite):
    code, out, err = run(
        capsys, "laws", "--suite", suite, "--max-points", "2", "--max-lattice", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].endswith("0 failures")
    body = lines[:-1]
    assert body and all("\tPASS" in line for line in body)
    assert all(len(line.split("\t")) == 3 for line in body)


# rows and SHA-256 of the sorted rows of each suite at default sizes; the
# rows do not depend on the hash seed or on what the caches already hold
SUITE_PINS = {
    "adjunction-os": (986, "a6216e3226289904168a5af9a648ae3014436fba4654285bc475020b98f1e129"),
    "cechstone": (2149, "a490fd2967aa9be5b37e922f238fd9706e383f9a0205a8f0de1a943d371c4eb2"),
    "comonad-k": (1016, "7ff678cef04b2b33f7607f5a782b61835867a1af21ac87d11c0fc074ec2251c0"),
    "degeneracy": (965, "19e1529982bbad5d882fdb1cad4837f0486c5239b665e2637054656988eddd66"),
    "lifting": (897, "d2e5354d656fb2fcaffc633120cef2e695974fda492d2256135e279246d6b0f4"),
    "monad-f": (314, "d2d998a4083e18150790b64f98107aa8ca21ad5cc1b5ce3471793ea3294039b2"),
    "monad-i": (1662, "7f124c9a2106d73b4baefcd99cc614156a463625e81ac52793929acb636940e2"),
    "pairing": (209, "9e011aa499f489925c0caa3b8bf8bc139c943cb56b788b94d99a6ee8715fa05b"),
    "ultrafilter": (70, "95a0ccb03ad5c3e9af3a22dfd29a108154588e5e2ec67b3ce362a3657d495704"),
}


def test_every_suite_is_pinned():
    assert sorted(SUITE_PINS) == sorted(LAW_SUITES)


@pytest.mark.parametrize("suite", sorted(SUITE_PINS))
def test_law_suite_rows_are_pinned(capsys, suite):
    code, out, err = run(capsys, "laws", "--suite", suite)
    assert code == 0 and err == ""
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    count, digest = SUITE_PINS[suite]
    assert out.splitlines()[-1] == f"# {suite}: {count} checks, 0 failures"
    assert len(rows) == count
    assert hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest() == digest


def test_monad_f_covers_all_29_three_point_topologies(capsys):
    code, out, err = run(capsys, "laws", "--suite", "monad-f", "--max-points", "3")
    assert code == 0
    object_laws = [
        line
        for line in out.splitlines()
        if line.startswith("space") and "(3 points" in line
    ]
    spaces = {line.split("\t")[0] for line in object_laws}
    assert len(spaces) == 29
    assert all("\tPASS" in line for line in object_laws)


def test_budget_guard_exits_2(capsys):
    code, out, err = run(capsys, "laws", "--suite", "monad-f", "--max-points", "6")
    assert code == 2
    assert "guard rail" in err
    code, out, err = run(capsys, "laws", "--suite", "monad-i", "--max-lattice", "17")
    assert code == 2
    assert "guard rail" in err


def test_sampling_at_five_points_is_seeded(capsys):
    code1, out1, _ = run(
        capsys, "laws", "--suite", "ultrafilter", "--max-points", "5", "--seed", "3"
    )
    code2, out2, _ = run(
        capsys, "laws", "--suite", "ultrafilter", "--max-points", "5", "--seed", "3"
    )
    code3, out3, _ = run(
        capsys, "laws", "--suite", "ultrafilter", "--max-points", "5", "--seed", "4"
    )
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3


def test_validate_round_trips_its_own_output(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(DATA / "diamond.lattice"))
    assert code == 0
    echoed = tmp_path / "echo.lattice"
    echoed.write_text(out)
    code2, out2, _ = run(capsys, "validate", str(echoed))
    assert code2 == 0 and out2 == out


def test_an_empty_lattice_document_ends_in_one_invalid_line(tmp_path, capsys):
    doc = tmp_path / "empty.lattice"
    doc.write_text('type: "lattice"\nname: "empty"\nelements: []\nleq: []\n')
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 1 and out == ""
    assert err == "invalid: the lattice has no elements\n"


# a few names that collide, sort in unlike ways or are not ASCII, and any
# short text besides
NAMES = st.sampled_from(["a", "b", "a(1)", "\u00e4", "\u540d", "", " "]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=3
)
JUNK = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=3)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
    | st.lists(st.integers(), max_size=2)
)


@st.composite
def documents(draw):
    """The text of a lattice or space document on at most six names: well
    formed or not, with cycles, empty lists, values of the wrong type,
    keys missing or unknown and lines that are no `key: value`. Each fault
    is drawn for part of the documents only, so that many reach the lattice
    and topology checks."""

    def sometimes():
        # a middle value: hypothesis draws the ends of a range more often
        return draw(st.integers(0, 3)) == 2

    kind = draw(st.sampled_from(["lattice", "space"]))
    names = draw(st.lists(NAMES, max_size=6, unique=not sometimes()))
    known = names or ["a"]
    pick = st.sampled_from(known) | NAMES if sometimes() else st.sampled_from(known)
    # pairs drawn upward along the list give an order, any pairs a cycle
    pairs = draw(st.lists(st.tuples(pick, pick), max_size=6))
    if not sometimes():
        pairs = [sorted(p, key=known.index) for p in pairs if set(p) <= set(known)]
    entries = {"type": kind, "name": draw(NAMES)}
    if kind == "lattice":
        entries.update(elements=names, leq=[list(p) for p in pairs])
    else:
        opens = draw(st.lists(st.lists(pick, max_size=3), max_size=6))
        entries.update(points=names, opens=opens)
    if sometimes():
        key = draw(st.sampled_from(sorted(entries)))
        if draw(st.booleans()):
            entries[key] = draw(JUNK)
        else:
            del entries[key]
    if sometimes():
        entries[draw(st.sampled_from(["opens", "leq", "colour"]))] = draw(JUNK)
    lines = [f"{k}: {json.dumps(v, ensure_ascii=False)}" for k, v in entries.items()]
    if sometimes():
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=4)))
    return "\n".join(lines) + "\n"


@given(documents())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_validate_ends_every_document_in_a_documented_exit(tmp_path, text):
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(path)])
    assert code in (0, 1, 2), text
    if code:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, text
    else:
        assert err.getvalue() == "" and out.getvalue().startswith("# "), text


def _duplicate_names(tmp_path):
    path = tmp_path / "twice.lattice"
    path.write_text('type: "lattice"\nname: "x"\nelements: ["a", "a"]\nleq: []\n')
    return path


def _latin1(tmp_path):
    path = tmp_path / "latin1.space"
    path.write_bytes('type: "space"\nname: "café"\n'.encode("latin-1"))
    return path


@pytest.mark.parametrize(
    "make, fragment",
    [
        (_duplicate_names, "duplicate element name 'a'"),
        (_latin1, "not UTF-8"),
        (lambda tmp_path: tmp_path, "Is a directory"),
    ],
    ids=["duplicate-names", "not-utf8", "directory"],
)
def test_unreadable_input_exits_2_with_one_line(tmp_path, capsys, make, fragment):
    code, out, err = run(capsys, "validate", str(make(tmp_path)))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_waybelow_on_64_elements_exits_2_with_one_line(tmp_path, capsys):
    # the Boolean lattice of subsets of a 6-element set, by its covers
    names = [f"s{m}" for m in range(64)]
    covers = [
        [names[m], names[m | 1 << k]]
        for m in range(64)
        for k in range(6)
        if not (m >> k) & 1
    ]
    path = tmp_path / "b6.lattice"
    path.write_text(
        'type: "lattice"\nname: "b6"\n'
        f"elements: {json.dumps(names)}\nleq: {json.dumps(covers)}\n"
    )
    code, out, err = run(capsys, "waybelow", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2^64 subsets" in err


def _child(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "stonekit.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        **kwargs,
    )


def test_closed_stdout_ends_quietly_with_exit_2():
    # the rows outgrow the pipe buffer, so the child writes after the close
    child = _child("laws", "--suite", "lifting", "--max-points", "4")
    first = child.stdout.readline()
    child.stdout.close()
    try:
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert first.startswith(b"space 1/")
    assert err == b""
    assert child.returncode == 2


def test_degeneracy_past_the_way_below_cap_exits_2_before_any_row():
    # --force raises the pool guard rails, not the cap of the way-below
    # oracle that the suite runs on every pool lattice
    child = _child("laws", "--suite", "degeneracy", "--max-lattice", "23", "--force")
    try:
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode == 2
    assert out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --max-lattice 23 exceeds the way-below cap")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cechstone_on_eight_discrete_points_fits_in_one_gib(tmp_path):
    points = [f"p{i}" for i in range(8)]
    path = tmp_path / "discrete8.space"
    path.write_text(
        'type: "space"\nname: "discrete8"\n'
        f"points: {json.dumps(points)}\nopens: {json.dumps([[p] for p in points])}\n"
    )
    child = _child("cechstone", str(path), preexec_fn=_limit_address_space)
    try:
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode == 0, err.decode()[-2000:]
    assert out.decode().splitlines()[0] == (
        '# cechstone "discrete8": both sides: 8 points, ISO'
    )
    assert len(out) < 100_000


# a child that swaps meet and join in every ideal lattice that ideal_view
# builds, then runs the CLI on its own arguments. The package derives the
# tables of every lattice from its order, so the child builds the mutant
# itself, and gives it a shape of its own (a negative id, which the package
# never hands out): under the shape of its order, every check that a true
# lattice passed first would hide the swap
SWAPPED_IDEAL_TABLES = """
import sys
from functools import lru_cache
from itertools import count

from stonekit import cli, dlat

original = dlat.ideal_view
shapes = count(-1, -1)


@lru_cache(maxsize=None)
def swapped(lat):
    view = original(lat)
    i = view.lattice
    mutant = object.__new__(dlat.DistLattice)
    mutant.__dict__.update(
        poset=i.poset, meet=i.join, join=i.meet, shape=next(shapes)
    )
    return dlat.SetLatticeView(mutant, view.masks)


for module in list(sys.modules.values()):
    if getattr(module, "__name__", "").startswith("stonekit"):
        if getattr(module, "ideal_view", None) is original:
            module.ideal_view = swapped
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_suite_map_failing_its_check_ends_in_one_invalid_line():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.Popen(
        [sys.executable, "-c", SWAPPED_IDEAL_TABLES]
        + ["laws", "--suite", "monad-i", "--max-points", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    lines = err.decode().splitlines()
    assert child.returncode == 1
    assert "Traceback" not in err.decode()
    assert len(lines) == 1
    assert lines[0].startswith("invalid: not a lattice homomorphism: fails ")


def test_a_missing_prime_filter_ends_laws_in_one_invalid_line(capsys, monkeypatch):
    # every lattice loses its last prime filter, so a construction that
    # looks one up misses it
    masks = dlat._prime_filter_masks
    clear_caches()
    monkeypatch.setattr(dlat, "_prime_filter_masks", lambda lat: masks(lat)[:-1])
    try:
        code, out, err = run(capsys, "laws", "--suite", "lifting")
    finally:
        clear_caches()
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid: mask ") and "is not a prime filter" in lines[0]
