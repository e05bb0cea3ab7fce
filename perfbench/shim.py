"""Start the stonekit CLI in this process the way the benchmark measures it.

Usage: ``python3 perfbench/shim.py [--trace] CLI-ARGS...`` with the
package's ``src`` directory on ``PYTHONPATH``.

The shim imports ``stonekit.cli``, writes ``perfbench-ready <t>`` to
stderr, where ``t`` is ``time.monotonic()`` once the CLI is ready to parse
its arguments, and runs ``stonekit.cli.main``.  Standard output is line
buffered, as on a terminal, so that the parent sees each law row when it
is written.  With ``--trace`` the shim wraps the package's public
functions first and, after ``main`` returns, writes ``perfbench-trace``
and a JSON summary of the spans to stderr.  The exit code is ``main``'s.
"""

import json
import os
import sys
import time

READY = "perfbench-ready"
TRACE = "perfbench-trace"


def main(argv) -> int:
    started = time.perf_counter()
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    import stonekit.cli

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sys.stdout.reconfigure(line_buffering=True)
    ready = time.perf_counter()
    sys.stderr.write(f"{READY} {time.monotonic()!r}\n")
    sys.stderr.flush()
    code = stonekit.cli.main(argv)
    sys.stdout.flush()
    finished = time.perf_counter()
    if tracer is not None:
        summary = tracer.summary()
        summary["ready_s"] = ready - started
        summary["process_s"] = finished - started
        sys.stderr.write(f"{TRACE} {json.dumps(summary)}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
