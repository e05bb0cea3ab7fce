"""Tests of the benchmark itself: generator, oracles, tracing, manifest.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import docgen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_generator_is_deterministic_per_seed():
    first, again, other = docgen.make_batch(7), docgen.make_batch(7), docgen.make_batch(8)
    assert first == again
    assert [d.text for d in first] != [d.text for d in other]
    # the seed changes the documents, never the shape of the batch
    assert [(d.command, d.filename) for d in first] == [
        (d.command, d.filename) for d in other
    ]


def test_small_documents_match_the_cli(tmp_path):
    docs = [d for d in docgen.make_batch(5) if d.filename.endswith(("-16.space", "-32.lattice"))]
    assert docs
    docgen.write_batch(docs, str(tmp_path))
    for doc in docs:
        p = run.run_process([doc.command, str(tmp_path / doc.filename)], False, 60)
        assert oracles.check_doc_run(doc.summary, p.code, p.lines, p.stderr, p.timed_out) == (0, False)
        assert p.ready_s is not None and 0 < p.ready_s < p.wall_s


def _law_rows():
    return [f"space {i}/5 (2 points, 3 opens)\tdemo.law\tPASS" for i in range(1, 6)]


def _law_verdict(rows, code=0, stderr="", trailer=None):
    pinned = _law_rows()
    lines = rows + [trailer or f"# demo: {len(pinned)} checks, 0 failures"]
    return oracles.check_law_run(
        "demo", len(pinned), oracles.rows_digest(pinned), code, lines, stderr, False
    )


def test_law_oracle_accepts_the_pinned_rows_in_any_order():
    assert _law_verdict(list(reversed(_law_rows()))) == (0, False)


def test_law_oracle_rejects_a_dropped_row():
    assert _law_verdict(_law_rows()[1:]) == (5, True)


def test_law_oracle_rejects_a_flipped_verdict():
    rows = _law_rows()
    rows[2] = rows[2].replace("PASS", "FAIL")
    assert _law_verdict(rows, code=1, trailer="# demo: 5 checks, 1 failures") == (5, True)


def test_law_oracle_counts_a_crash_as_failed_not_wrong():
    crash = "Traceback (most recent call last):\n  ...\nOverflowError: boom\n"
    assert _law_verdict(_law_rows()[:2], code=1, stderr=crash) == (5, False)


def test_doc_oracle_rejects_a_count_off_by_one():
    doc = next(d for d in docgen.make_batch(1) if d.command == "filters")
    count = int(doc.summary.split()[2])
    off = doc.summary.replace(f": {count} filters", f": {count + 1} filters")
    assert off != doc.summary
    assert oracles.check_doc_run(doc.summary, 0, [off, "type: ..."], "", False) == (1, True)
    assert oracles.check_doc_run(doc.summary, 0, [doc.summary], "", False) == (0, False)


def test_known_waybelow_failure_is_in_every_batch():
    doc = docgen.make_batch(11)[-1]
    assert doc.command == "waybelow" and "729 pairs" in doc.summary


def test_traced_self_times_add_up_to_the_traced_wall_time():
    p = run.run_process(["laws", "--suite", "monad-f"], True, 120)
    assert p.code == 0 and p.trace is not None
    fns = p.trace["functions"]
    self_sum = sum(e["self_s"] for e in fns.values())
    assert abs(self_sum - p.trace["root_s"]) < 1e-6 * max(1.0, p.trace["root_s"])
    in_main = p.trace["process_s"] - p.trace["ready_s"]
    assert 0.9 * in_main <= self_sum <= in_main
    assert p.trace["process_s"] < p.wall_s
    layers = tracer.layer_totals(fns)
    assert layers["cli"]["calls"] == 1
    assert layers["catengine"]["calls"] > 0 and layers["universes"]["calls"] > 0


def test_manifest_lists_every_metric_and_workload():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.per_layer_units()
