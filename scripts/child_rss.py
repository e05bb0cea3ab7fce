"""Peak resident memory, wall time and CPU time of one stonekit command,
read in its own process.

Usage::

    python3 -S scripts/child_rss.py --runs 10 ROOT [ROOT ...] -- laws --suite lifting --max-points 4

Each run forks this small parent and execs ``python3 -m stonekit.cli ARGS``
with ``PYTHONPATH=ROOT/src`` and standard output sent to /dev/null, then
reads the child's ``ru_maxrss`` and CPU time from ``os.wait4``. Linux
carries a parent's RSS high-water mark into a child it execs, so a large
parent, such as a benchmark harness that has imported its own modules,
hides any peak of the child below its own; started with ``-S`` this
parent stays far below the command's peak. The roots take turns, their
order rotated by one each run, so slow drift of a shared machine reaches
them alike.

Each child runs under an address-space cap of MAX_AS_MB (``RLIMIT_AS``)
and is killed after TIMEOUT_S, so a run on a huge input ends instead of
hanging the machine. Every run has an outcome: ``exit 0`` or ``exit 1``
(a verdict), ``refused`` (exit 2: a usage, parse or budget error),
``out of memory`` (a ``MemoryError`` under the cap) or ``killed`` (the
timeout, or another signal).

The last line of standard output is one JSON object: per root, the peak
(MB), wall time (s), CPU time (s) and outcome of every run, and the
medians of the three numbers.
"""

import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time

# the longest one run may take, and the address space one child may map
TIMEOUT_S = 60.0
MAX_AS_MB = 1024


def _outcome(status, timed_out, stderr):
    if timed_out or os.WIFSIGNALED(status):
        return "killed"
    code = os.waitstatus_to_exitcode(status)
    if code == 2:
        return "refused"
    if code == 1 and b"MemoryError" in stderr:
        return "out of memory"
    return f"exit {code}"


def run_once(root, args):
    """The peak RSS in MB, the wall and CPU time in s and the outcome of
    one command under root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, "-m", "stonekit.cli", *args]
    with tempfile.TemporaryFile() as errors:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                cap = MAX_AS_MB << 20
                resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(errors.fileno(), 2)
                os.execve(sys.executable, argv, env)
            finally:
                os._exit(127)
        timed_out = False
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.perf_counter() - start > TIMEOUT_S and not timed_out:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
            time.sleep(0.005)
        wall = time.perf_counter() - start
        errors.seek(0)
        outcome = _outcome(status, timed_out, errors.read())
    cpu = usage.ru_utime + usage.ru_stime
    return usage.ru_maxrss / 1024, wall, cpu, outcome


def _summary(values):
    return {"median": round(statistics.median(values), 4), "runs": values}


def main(argv):
    if "--" not in argv or argv[:1] != ["--runs"]:
        raise SystemExit(__doc__.split("\n\n")[1])
    split = argv.index("--")
    runs, roots, args = int(argv[1]), argv[2:split], argv[split + 1 :]
    results = {root: [] for root in roots}
    for i in range(runs):
        for root in roots[i % len(roots) :] + roots[: i % len(roots)]:
            results[root].append(run_once(root, args))
    report = {}
    for root, rows in results.items():
        peaks, walls, cpus, outcomes = zip(*rows)
        report[root] = {
            "peak_rss_mb": _summary([round(p, 3) for p in peaks]),
            "wall_s": _summary([round(w, 4) for w in walls]),
            "cpu_s": _summary([round(c, 4) for c in cpus]),
            "outcomes": list(outcomes),
        }
    print(json.dumps({"command": args, "roots": report}))


if __name__ == "__main__":
    main(sys.argv[1:])
