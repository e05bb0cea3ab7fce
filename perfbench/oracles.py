"""Known answers for the benchmark's verdicts.

A law run must exit 0, print the pinned number of TSV rows, end with the
suite's trailer and match a SHA-256 digest of its sorted rows.  The pins
are those of the exhaustive pools at the parameters the workloads use; a
change that checks fewer instances, or checks them differently, changes
the digest.

A document answer must be the summary line computed by ``docgen`` from the
generating poset.

Each check returns ``(failed, wrong)``: how many of the verdicts it covers
failed, and whether the program printed an answer that contradicts the
known one.  A crash, a timeout or a non-zero exit fails verdicts without
being a wrong answer.
"""

import hashlib
from typing import Sequence, Tuple

TRACEBACK = "Traceback (most recent call last)"


def rows_digest(rows: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def check_law_run(
    suite: str,
    expected_rows: int,
    expected_digest: str,
    code: int,
    stdout_lines: Sequence[str],
    stderr: str,
    timed_out: bool,
) -> Tuple[int, bool]:
    """Verdict of one ``stonekit laws`` process against its pins."""
    rows = [line for line in stdout_lines if not line.startswith("#")]
    trailer = [line for line in stdout_lines if line.startswith("#")]
    completed = not timed_out and TRACEBACK not in stderr and code in (0, 1)
    exact = (
        len(rows) == expected_rows
        and rows_digest(rows) == expected_digest
        and trailer == [f"# {suite}: {expected_rows} checks, 0 failures"]
    )
    wrong = completed and (not exact or any("\tFAIL" in row for row in rows))
    ok = completed and code == 0 and exact
    return (0 if ok else expected_rows), wrong


def check_doc_run(
    expected_summary: str,
    code: int,
    stdout_lines: Sequence[str],
    stderr: str,
    timed_out: bool,
) -> Tuple[int, bool]:
    """Verdict of one compute-subcommand process on a generated document."""
    answered = not timed_out and TRACEBACK not in stderr and code == 0
    right = bool(stdout_lines) and stdout_lines[0] == expected_summary
    return (0 if answered and right else 1), answered and not right
