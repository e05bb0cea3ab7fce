"""Peak resident memory of one stonekit command, read in its own process.

Usage::

    python3 -S scripts/child_rss.py --runs 10 ROOT [ROOT ...] -- laws --suite lifting --max-points 4

Each run forks this small parent and execs ``python3 -m stonekit.cli ARGS``
with ``PYTHONPATH=ROOT/src`` and standard output sent to /dev/null, then
reads the child's ``ru_maxrss`` from ``os.wait4``. Linux carries a
parent's RSS high-water mark into a child it execs, so a large parent,
such as a benchmark harness that has imported its own modules, hides any
peak of the child below its own; started with ``-S`` this parent stays
far below the command's peak. The roots take turns, their order rotated
by one each run, so slow drift of a shared machine reaches them alike.
The last line of standard output is one JSON object: per root, the peak
(MB) and wall time (s) of every run and their medians.
"""

import json
import os
import statistics
import sys
import time


def run_once(root, args):
    """The peak RSS in MB and the wall time in s of one command under root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, "-m", "stonekit.cli", *args]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.execve(sys.executable, argv, env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code not in (0, 1):
        raise SystemExit(f"{root}: {' '.join(args)} exited {code}")
    return usage.ru_maxrss / 1024, wall


def main(argv):
    if "--" not in argv or argv[:1] != ["--runs"]:
        raise SystemExit(__doc__.split("\n\n")[1])
    split = argv.index("--")
    runs, roots, args = int(argv[1]), argv[2:split], argv[split + 1 :]
    peaks = {root: [] for root in roots}
    walls = {root: [] for root in roots}
    for i in range(runs):
        for root in roots[i % len(roots) :] + roots[: i % len(roots)]:
            peak, wall = run_once(root, args)
            peaks[root].append(round(peak, 3))
            walls[root].append(round(wall, 4))
    report = {
        root: {
            "peak_rss_mb": {"median": round(statistics.median(peaks[root]), 3), "runs": peaks[root]},
            "wall_s": {"median": round(statistics.median(walls[root]), 4), "runs": walls[root]},
        }
        for root in roots
    }
    print(json.dumps({"command": args, "roots": report}))


if __name__ == "__main__":
    main(sys.argv[1:])
