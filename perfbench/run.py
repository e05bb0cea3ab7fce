"""End-to-end and per-layer benchmark of the stonekit command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
Each workload run starts fresh ``stonekit`` processes one at a time and
waits for each to exit (a closed loop with one client), so no process
inherits another's ``lru_cache`` views.  A run repeats the workload while
another repetition still fits in ``--seconds`` and reports the median of
each metric over the repetitions.  Every verdict is checked against a
known answer (see ``oracles.py``).

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run first repeats the workload once untraced, then traced: each
process wraps the package's public functions (see ``tracer.py``), and the
metrics are per-layer calls, self times and cache counts, plus the
tracing overhead against the untraced repetition.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when any answer contradicts its oracle; verdicts that end without an
answer (a crash, a timeout, a non-zero exit) count in ``failed``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(HERE, "shim.py")
sys.path.insert(0, HERE)

import docgen  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
from shim import READY, TRACE  # noqa: E402

# the whole run, builds aside, must end within 180 s
HARD_LIMIT_S = 170.0

LAW_WORKLOADS = {
    # suite, CLI arguments, pinned row count, digest of the sorted rows
    "laws-lifting-p4": (
        "lifting",
        ["laws", "--suite", "lifting", "--max-points", "4"],
        2891,
        "fe8b358af24ddeb05c4a6d65d459d7ddc8cec7e291c1b97752edc80b393a1a49",
    ),
}
WORKLOADS = tuple(LAW_WORKLOADS) + ("compute-docs",)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

COMPOSE = ("compose_maps", "compose_homs", "compose_monotone")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {
        "universes.self_s": "s",
        "universes.calls": "count",
        "universes.items": "count",
        "construction.self_s": "s",
        "construction.calls": "count",
        "construction.lattice_from_poset.calls": "count",
        "construction.lattice_from_poset.self_s": "s",
        "construction.distributivity_witness.self_s": "s",
        "construction.make_poset.calls": "count",
        "construction.compose.calls": "count",
        "construction.compose.self_s": "s",
    }
    for view in tracer.VIEWS:
        units[f"views.{view}.hits"] = "count"
        units[f"views.{view}.misses"] = "count"
        units[f"views.{view}.build_s"] = "s"
    units.update(
        {
            "views.ideals_bruteforce.self_s": "s",
            "views.self_s": "s",
            "views.hit_ratio": "ratio",
            "derived.self_s": "s",
            "derived.calls": "count",
            "catengine.self_s": "s",
            "catengine.calls": "count",
            "documents.loads.self_s": "s",
            "documents.dumps.self_s": "s",
            "cli.self_s": "s",
            "cli.rows": "count",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
            "trace.spans_s": "s",
            "trace.spans": "count",
        }
    )
    return units


# ---------------------------------------------------------------------------
# one process


@dataclass
class Process:
    code: int
    lines: List[str]
    stderr: str
    timed_out: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    ready_s: Optional[float]  # spawn to CLI ready
    first_line_s: Optional[float]  # spawn to first line of standard output
    trace: Optional[dict]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # one hash order for every run, so that each process does the same work
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(cli_args: Sequence[str], trace: bool, timeout: float) -> Process:
    """Run one CLI process to completion, reading all of its output."""
    cmd = [sys.executable, SHIM] + (["--trace"] if trace else []) + list(cli_args)
    expired = threading.Event()
    spawn_mono = time.monotonic()
    spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )

    def kill() -> None:
        expired.set()
        proc.kill()

    killer = threading.Timer(max(timeout, 0.1), kill)
    killer.start()
    errors: List[str] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    lines: List[str] = []
    first_line = None
    try:
        for line in proc.stdout:
            if first_line is None:
                first_line = time.perf_counter()
            lines.append(line.rstrip("\n"))
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = errors[0] if errors else ""
    ready = trace_summary = None
    for line in stderr.splitlines():
        if line.startswith(READY + " "):
            ready = float(line.split()[1]) - spawn_mono
        elif line.startswith(TRACE + " "):
            trace_summary = json.loads(line[len(TRACE) + 1:])
    return Process(
        code=proc.returncode,
        lines=lines,
        stderr=stderr,
        timed_out=expired.is_set(),
        wall_s=end - spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        ready_s=ready,
        first_line_s=None if first_line is None else first_line - spawn,
        trace=trace_summary,
    )


# ---------------------------------------------------------------------------
# one repetition of a workload


@dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: bool = False
    rows: int = 0
    traces: List[dict] = field(default_factory=list)

    def add(self, p: Process, setup_s: Optional[float]) -> None:
        self.cpu_s += p.cpu_s
        self.setup_s += p.wall_s if setup_s is None else setup_s
        self.peak_rss_mb = max(self.peak_rss_mb, p.rss_mb)
        self.rows += len(p.lines)
        if p.trace is not None:
            self.traces.append(p.trace)

    def end_to_end(self) -> Dict[str, float]:
        busy = self.wall_s - self.setup_s
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "setup_s": self.setup_s,
            "checks_per_s": self.attempted / busy if busy > 0 else 0.0,
            "peak_rss_mb": self.peak_rss_mb,
        }


class Deadline:
    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> float:
        return HARD_LIMIT_S - self.elapsed()


def law_rep(name: str, trace: bool, deadline: Deadline) -> Rep:
    suite, args, rows, digest = LAW_WORKLOADS[name]
    start = time.perf_counter()
    p = run_process(args, trace, deadline.left())
    rep = Rep(wall_s=time.perf_counter() - start, attempted=rows)
    rep.add(p, p.first_line_s)
    rep.failed, rep.wrong = oracles.check_law_run(
        suite, rows, digest, p.code, p.lines, p.stderr, p.timed_out
    )
    return rep


def docs_rep(docs: Sequence[docgen.Doc], folder: str, trace: bool, deadline: Deadline) -> Rep:
    rep = Rep(attempted=len(docs))
    start = time.perf_counter()
    for i, doc in enumerate(docs):
        path = os.path.join(folder, doc.filename)
        p = run_process([doc.command, path], trace, deadline.left())
        rep.add(p, p.ready_s)
        failed, wrong = oracles.check_doc_run(
            doc.summary, p.code, p.lines, p.stderr, p.timed_out
        )
        rep.failed += failed
        rep.wrong |= wrong
        if p.timed_out:
            rep.failed += len(docs) - i - 1  # out of time: the rest count as failed
            break
    rep.wall_s = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(rep: Rep, untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    merged = tracer.merge(rep.traces)
    fns = merged["functions"]
    layers = tracer.layer_totals(fns)

    def fn(name: str, key: str) -> float:
        return fns.get(name, {}).get(key, 0)

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    m: Dict[str, float] = {
        "universes.self_s": layer("universes", "self_s"),
        "universes.calls": layer("universes", "calls"),
        "universes.items": sum(e["items"] for e in fns.values() if e["layer"] == "universes"),
        "construction.self_s": layer("construction", "self_s"),
        "construction.calls": layer("construction", "calls"),
        "construction.lattice_from_poset.calls": fn("lattice_from_poset", "calls"),
        "construction.lattice_from_poset.self_s": fn("lattice_from_poset", "self_s"),
        "construction.distributivity_witness.self_s": fn("distributivity_witness", "self_s"),
        "construction.make_poset.calls": fn("make_poset", "calls"),
        "construction.compose.calls": sum(fn(c, "calls") for c in COMPOSE),
        "construction.compose.self_s": sum(fn(c, "self_s") for c in COMPOSE),
    }
    hits = misses = 0
    for view in tracer.VIEWS:
        m[f"views.{view}.hits"] = fn(view, "hits")
        m[f"views.{view}.misses"] = fn(view, "misses")
        m[f"views.{view}.build_s"] = fn(view, "build_s")
        hits += fn(view, "hits")
        misses += fn(view, "misses")
    m.update(
        {
            "views.ideals_bruteforce.self_s": fn("ideals_bruteforce", "self_s"),
            "views.self_s": layer("views", "self_s"),
            "views.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "derived.self_s": layer("derived", "self_s"),
            "derived.calls": layer("derived", "calls"),
            "catengine.self_s": layer("catengine", "self_s"),
            "catengine.calls": layer("catengine", "calls"),
            "documents.loads.self_s": fn("loads", "self_s"),
            "documents.dumps.self_s": fn("dumps", "self_s"),
            "cli.self_s": layer("cli", "self_s"),
            "cli.rows": rep.rows,
            "trace.wall_s": rep.wall_s,
            "trace.overhead_s": rep.wall_s - untraced_wall_s,
            "trace.spans_s": merged["root_s"],
            "trace.spans": merged["spans"],
        }
    )
    return m


def medians(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---------------------------------------------------------------------------
# running a workload


def check_checkout() -> Optional[str]:
    """Why the program cannot be benchmarked here, or None."""
    if not os.path.isfile(os.path.join(SRC, "stonekit", "cli.py")):
        return f"no stonekit package under {SRC}"
    probe = subprocess.run(
        [sys.executable, "-c", "import stonekit.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        return "cannot import stonekit.cli: " + probe.stderr.strip().splitlines()[-1]
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = Deadline()
    folder = None
    try:
        if workload == "compute-docs":
            docs = docgen.make_batch(seed)
            folder = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
            docgen.write_batch(docs, folder)

            def one(traced: bool) -> Rep:
                return docs_rep(docs, folder, traced, deadline)
        else:

            def one(traced: bool) -> Rep:
                return law_rep(workload, traced, deadline)

        plain: List[Rep] = []
        traced: List[Rep] = []
        limit = min(seconds, HARD_LIMIT_S)
        while True:
            began = deadline.elapsed()
            if trace and not plain:
                plain.append(one(False))  # the reference for the overhead
                continue
            (traced if trace else plain).append(one(trace))
            if deadline.elapsed() * 2 - began > limit:
                break  # another repetition as long as this one would not fit
    finally:
        if folder is not None:
            shutil.rmtree(folder, ignore_errors=True)

    reps = plain + traced
    if trace:
        untraced = statistics.median(r.wall_s for r in plain)
        values = medians([layer_metrics(r, untraced) for r in traced])
        units = per_layer_units()
    else:
        values = medians([r.end_to_end() for r in plain])
        units = END_TO_END
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "correct": not any(r.wrong for r in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "repetitions": len(reps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stonekit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    reps = result.pop("repetitions")
    print(f"workload {args.workload}, seed {args.seed}, {reps} repetitions, "
          f"trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"failed_frac {frac:.6g} ratio ({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
