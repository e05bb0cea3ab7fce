"""End-to-end command tests: documents in, reports out, exit codes."""

import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stonekit import dlat
from stonekit.cli import _build_parser, _quote, _space_dot, main
from stonekit.instances import LAW_SUITES
from stonekit.memo import clear_caches
from stonekit.universes import all_spaces, all_spaces_upto

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


@pytest.mark.parametrize(
    "value, reason",
    [
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        ("[" + "7" * 5_000 + "]", "integer too long"),
    ],
    ids=["nested-100000-deep", "integer-of-5000-digits"],
)
def test_json_past_the_interpreter_limits_ends_in_one_error_line(tmp_path, value, reason):
    # json.loads raises RecursionError and ValueError here, not JSONDecodeError
    bad = tmp_path / "bad.space"
    bad.write_text(f'type: "space"\nname: "x"\npoints: ["p"]\nopens: {value}\n')
    done = subprocess.run(
        [sys.executable, "-m", "stonekit.cli", "validate", str(bad)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: line 4: bad JSON value for 'opens': {reason}\n"


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


def space_dot_edges_by_search(x):
    """Twin of the edge lines of `export dot` on a space, by a triple loop
    over the specialization preorder: a two-way edge for each pair of
    equivalent points, an arrow for each pair with no point strictly between."""
    up = x.up
    lines = []
    for i in range(x.n):
        for j in range(x.n):
            if i == j or not (up[i] >> j) & 1:
                continue
            if (up[j] >> i) & 1:
                if i < j:
                    lines.append(
                        f"  {_quote(x.points[i])} -> {_quote(x.points[j])} [dir=both];"
                    )
                continue
            strict = any(
                k != i and k != j and (up[i] >> k) & 1 and (up[k] >> j) & 1
                and not (up[k] >> i) & 1 and not (up[j] >> k) & 1
                for k in range(x.n)
            )
            if not strict:
                lines.append(f"  {_quote(x.points[i])} -> {_quote(x.points[j])};")
    return lines


def test_space_export_edges_match_the_triple_loop():
    spaces = all_spaces_upto(4) + tuple(random.Random(18).sample(all_spaces(5), 300))
    two_way = 0
    for x in spaces:
        lines = [line for line in _space_dot("x", x).splitlines() if "->" in line]
        assert lines == space_dot_edges_by_search(x), x
        two_way += any(line.endswith("[dir=both];") for line in lines)
    # the non-T0 spaces reach the two-way branch: 147 of them on <= 4 points
    assert two_way >= 147


def test_export_dot_diamond_has_four_cover_edges(capsys):
    code, out, err = run(capsys, "export", "dot", str(DATA / "diamond.lattice"))
    assert code == 0
    assert out.count("->") == 4


def test_export_dot_chain_has_two_cover_edges(capsys):
    code, out, err = run(capsys, "export", "dot", str(DATA / "chain3.lattice"))
    assert code == 0
    assert out.count("->") == 2


COMPUTE_COMMANDS = (
    ("validate",),
    ("spectrum",),
    ("ideals",),
    ("filters",),
    ("sobrify",),
    ("t0",),
    ("hausdorff",),
    ("center",),
    ("waybelow",),
    ("cechstone",),
    ("export", "dot"),
)


def _discrete_document(n):
    points = [f"p{i}" for i in range(n)]
    return (
        f'type: "space"\nname: "discrete{n}"\n'
        f"points: {json.dumps(points)}\nopens: {json.dumps([[p] for p in points])}\n"
    )


# two points a, b with the same neighbourhoods, below c, and d apart
NON_T0_DOCUMENT = """type: "space"
name: "twins"
points: ["a", "b", "c", "d"]
opens: [["a", "b"], ["a", "b", "c"], ["d"]]
"""

GENERATED_DOCUMENTS = {
    "discrete6.space": _discrete_document(6),
    "discrete8.space": _discrete_document(8),
    "twins.space": NON_T0_DOCUMENT,
}

# SHA-256 of [exit code, stdout, stderr] as JSON, for every compute
# subcommand and `export dot` on each document; a wrong-kind document pins
# its refusal
OUTPUT_PINS = {
    "chain3.lattice": {
        "validate": "3961fe3bff002fc2d2f257adea22e08126e75034aa0ca2b96a0ff602f5bc185f",
        "spectrum": "20faf2b83e01c3d57cd9c69e37456fdb4fc3fd100cb97894f9c48b1cf9e60c35",
        "ideals": "c54d513c022037ffecd87b669db074776e6b6418f0cb11268093cff4b43addb0",
        "filters": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "sobrify": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "t0": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "hausdorff": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "center": "0a99728644bf508742af508a2f9d1598a58b68a579fd3b6ba705e5b41fb3ca27",
        "waybelow": "e6ff73f6f9604a2f3d2e96497199008ba574a0cd3bb79a2a538cea11c077602d",
        "cechstone": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "export dot": "9c48742d7cb75b09ff675c916da155c6bf34406dc2a9b763f848120c25cc3aec",
    },
    "diamond.lattice": {
        "validate": "0e2388346aacda0202ac3aa9a39de06d012c326f317d3a8235d77d21f742d499",
        "spectrum": "d17a65b27ec7fcf21fcd17fa381bb88e2e42f9cfc5fd3a20a51d5fe4ece9b683",
        "ideals": "59ad0aa534144eaf6c2e265e4e41a45c63c6ece7af6fd06502578edcf338c3d5",
        "filters": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "sobrify": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "t0": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "hausdorff": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "center": "8138c1e681f32fe84c19a60a2bd8f96d2f089105fdb029380b7f056895efbeac",
        "waybelow": "ad4c24538b38b78988bf39f315e12ad5940aab7f8cc7f33ec93692048c9899a1",
        "cechstone": "c4a7c37d7294b3faad7b3a4a6a96dcba7baac3de15cdeb53aeb002aecbe49868",
        "export dot": "5d74a4b9177b1a64a07fd9e562eca2cca0e4bf26206ef8aa07daa27ec27a8c87",
    },
    "m3.lattice": {
        "validate": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "spectrum": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "ideals": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "filters": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "sobrify": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "t0": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "hausdorff": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "center": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "waybelow": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "cechstone": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
        "export dot": "ce3b78e5fec9bffe4a8d82bedfe4e7cf66388f837210ec84e1453c85c6eb33ff",
    },
    "sierpinski.space": {
        "validate": "61e9de8e911f90a5eaa6fc0ad38dca776f61c0e3513f0cf0b54d03bbc5feab74",
        "spectrum": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "ideals": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "filters": "1e5bd49c3bd78ce1ad00bd1083f3921768aff16be9182d4bb57490a0e118a13b",
        "sobrify": "13be558823d1b0e8cccdcac26a9ad990b799ab571dd64bb4530c44780a9ca537",
        "t0": "6729bf63c4a305fe47f175356cff14dde55788fe161ce8ac645347501d80f2b3",
        "hausdorff": "90a0eb379f34b30f95c722c6f79b6fdf49f11dcb19489ca3fb3fcd2c3784b6b7",
        "center": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "waybelow": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "cechstone": "8ffd53101cca99b18b316367b0fc75973149aea2638df5e1096317c15cb298e4",
        "export dot": "5ee45987716e653fc973205d610744a812dc7bb2ad484f2baf71e53a22450021",
    },
    "discrete6.space": {
        "validate": "ef293cdd6c84a768ebc234de083ffcc18c8074cc9c3dac129608b95fd53ea2cc",
        "spectrum": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "ideals": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "filters": "b19b41eb5320fbe15ab81b851c0749aa9156d1698b0266abce205e8d7c569c9a",
        "sobrify": "c3f2be3f7ab1b613b1dda91ecef9a16d2c068cb22794853fd25620b5c9ea184a",
        "t0": "185b295e81f54565cd7bfad74aa72aee56eba9642f322d157540d387a938c15b",
        "hausdorff": "a5de379a27682052924723df47ae56cef6e04caf5f70126ffbc8b4763ea9f4cc",
        "center": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "waybelow": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "cechstone": "0d6cdce216dd4603e8cd41ebc362a58f5d16fe39832e2004ef9c19daefe9488b",
        "export dot": "b09c86b53a96aeaa9f3fa72eadaa298ceae15a811758c361d6fa450eb7077660",
    },
    "discrete8.space": {
        "validate": "fcb34e70abde268031b90f49ed72e32399e16f4939361d2776fddb68030d1ac7",
        "spectrum": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "ideals": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "filters": "288ccea2f9a1c90e25c702d965c2c580cdc7b0e70f84a4fa9d1a01dd2c383fe5",
        "sobrify": "fdb6cba9122b18fa9125d1543fba6e202130ff9c6f70e4b9abfb79c55c19b92d",
        "t0": "20ed119dcfb5079159536b158d31accb0648b5aebb075ca42b5b7066c120096e",
        "hausdorff": "04567f6bff8ff14ac0ce4eb91087f34170cf738d2c72413c4f11615b56c7e63e",
        "center": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "waybelow": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "cechstone": "0c35431e08c7efd2db5b7b4f334ba2b8d32bf323cbc4d3e14eb102fb4c95781f",
        "export dot": "d1ae7f0b037100375d6a1cb069efd534bdcfd45eb6c3cc598a4fbcb2acd302f9",
    },
    "twins.space": {
        "validate": "ff061eebabdac8366b313a81a6d7974427689fe9d5c9146f6f94ef97a8c4c6f3",
        "spectrum": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "ideals": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "filters": "8d91972d3ba670704f6b221bc912b9d44be998b487103b2600b84a7196bb7629",
        "sobrify": "b14438827fdeb188f5f808ae37bbb7fe9d4225d2c6fd5e7c9a171c2acdc7ac0f",
        "t0": "7c2bfb2c8ec48e2e5e12e2c5a4f8076e027e33a96475dd4cb36039c1d89824c9",
        "hausdorff": "1b4854d6087a471d003f024a183273a533862ed4e8294522dde6d2d022160cfa",
        "center": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "waybelow": "4b5096467bda27d6ac7b53836b259b037ac549c76235adcef131fe8f9d550c65",
        "cechstone": "483c15b2ab757158682b66e56c48263250882203d3bb592d055d6a31f66d9aff",
        "export dot": "b7ad47a5a84033e77eaf320f7bdcba306a193463f9a95bd9d49e88abbabcb71b",
    },
}


def test_every_compute_subcommand_is_pinned():
    (subcommands,) = [
        a.choices for a in _build_parser()._actions if isinstance(a.choices, dict)
    ]
    assert sorted(c[0] for c in COMPUTE_COMMANDS) == sorted(set(subcommands) - {"laws"})
    documents = sorted(p.name for p in DATA.iterdir()) + sorted(GENERATED_DOCUMENTS)
    assert sorted(OUTPUT_PINS) == sorted(documents)
    for pins in OUTPUT_PINS.values():
        assert sorted(pins) == sorted(" ".join(c) for c in COMPUTE_COMMANDS)


@pytest.mark.parametrize("document", sorted(OUTPUT_PINS))
def test_compute_subcommand_output_is_pinned(tmp_path, capsys, document):
    path = DATA / document
    if document in GENERATED_DOCUMENTS:
        path = tmp_path / document
        path.write_text(GENERATED_DOCUMENTS[document])
    got = {}
    for command in COMPUTE_COMMANDS:
        record = json.dumps(run(capsys, *command, str(path)))
        got[" ".join(command)] = hashlib.sha256(record.encode()).hexdigest()
    assert got == OUTPUT_PINS[document]


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


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("monad-f", "--max-points", "-1"),
        ("monad-i", "--max-lattice", "0"),
        ("comonad-k", "--max-lattice", "0"),
        ("degeneracy", "--max-lattice", "-3"),
    ],
)
def test_a_bound_that_empties_a_pool_exits_2_before_any_row(capsys, suite, flag, value):
    # an empty pool would pass every row of its kind vacuously
    code, out, err = run(capsys, "laws", "--suite", suite, flag, value)
    assert code == 2 and out == ""
    pool = "space" if flag == "--max-points" else "lattice"
    assert err == f"error: {flag} {value} leaves the {pool} pool empty\n"


def test_the_smallest_pools_still_check_something(capsys):
    code, out, err = run(capsys, "laws", "--suite", "monad-f", "--max-points", "0")
    assert code == 0 and out.splitlines()[-1] == "# monad-f: 8 checks, 0 failures"
    code, out, err = run(capsys, "laws", "--suite", "monad-i", "--max-lattice", "1")
    assert code == 0 and "lattice 1/1 (1 elements)" in out


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


@pytest.mark.parametrize("name", ["two\nlines", 'say "hi"', "back\\slash", "café"])
def test_every_summary_writes_the_name_as_documents_do(tmp_path, capsys, name):
    # a raw line break in a summary comment split it in two, so validating
    # the output again failed on the second half
    body = {
        "lattice": 'elements: ["0", "1"]\nleq: [["0", "1"]]\n',
        "space": 'points: ["a"]\nopens: [[], ["a"]]\n',
    }
    headers = []
    for kind, rest in body.items():
        path = tmp_path / kind
        path.write_text(f'type: "{kind}"\nname: {json.dumps(name)}\n{rest}')
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0 and err == ""
        headers.append(out.splitlines()[0])
        path.write_text(out)
        assert run(capsys, "validate", str(path)) == (0, out, "")
        command = {"lattice": "waybelow", "space": "cechstone"}[kind]
        code, out, err = run(capsys, command, str(path))
        assert code == 0 and err == ""
        headers.append(out.splitlines()[0])
    quoted = json.dumps(name)
    assert headers == [
        f"# lattice {quoted}: 2 elements, Boolean, distributive",
        f"# waybelow of {quoted}: 3 pairs; stably compact: yes; regular: yes",
        f"# space {quoted}: 1 points, 2 opens, T0",
        f"# cechstone {quoted}: both sides: 1 point, ISO",
    ]


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


def test_filters_on_twelve_discrete_points_fits_in_one_gib_and_20_s(tmp_path):
    # F X reads the minimal neighbourhoods, not the open frame of 4,096
    # opens, and a space is checked as a preorder on its 12 points
    points = [f"p{i}" for i in range(12)]
    path = tmp_path / "discrete12.space"
    path.write_text(
        'type: "space"\nname: "discrete12"\n'
        f"points: {json.dumps(points)}\nopens: {json.dumps([[p] for p in points])}\n"
    )
    child = _child("filters", str(path), preexec_fn=_limit_address_space)
    try:
        out, err = child.communicate(timeout=20)
    finally:
        child.kill()
    assert child.returncode == 0, err.decode()[-2000:]
    assert out.decode().splitlines()[0] == "# filters: 12 filters, 4096 opens"


# a child that swaps meet and join in every ideal lattice that ideal_view
# builds, then runs the CLI on its own arguments. The package derives the
# shape of every lattice, which holds its tables, from its order, so the
# child builds the mutant itself, with a Shape of its own that holds the
# swapped tables
SWAPPED_IDEAL_TABLES = """
import sys
from functools import lru_cache

from stonekit import cli, dlat

original = dlat.ideal_view


@lru_cache(maxsize=None)
def swapped(lat):
    view = original(lat)
    i = view.lattice.shape
    mutant = object.__new__(dlat.DistLattice)
    object.__setattr__(mutant, "poset", view.lattice.poset)
    shape = dlat.Shape(i.up, i.join, i.meet, i.irreducible, i.irreducibles, i.dual)
    object.__setattr__(mutant, "shape", shape)
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
    masks = dlat.prime_filters.__wrapped__
    clear_caches()
    # the memo calls __wrapped__ on a miss, so every importer sees the fault
    monkeypatch.setattr(dlat.prime_filters, "__wrapped__", lambda lat: masks(lat)[:-1])
    try:
        code, out, err = run(capsys, "laws", "--suite", "lifting")
    finally:
        clear_caches()
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid: {") and lines[0].endswith(" is not a prime filter")
