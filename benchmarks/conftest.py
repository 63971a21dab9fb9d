"""Shared helpers for the per-table/per-figure benchmark suite.

Every benchmark (a) regenerates its table/figure's data, (b) prints the
rows (captured into ``bench_output.txt`` for EXPERIMENTS.md), and (c)
asserts the qualitative reproduction targets from DESIGN.md.
"""

import os

#: every emit() block of the session, written to bench_artifacts.txt
_ARTIFACTS = []


def emit(title, lines):
    """Print a labelled block and record it for bench_artifacts.txt.

    pytest captures stdout of passing tests, so the printed copy is
    only visible with ``-s``; the recorded copy is always written next
    to ``bench_output.txt`` at session end.
    """
    block = [f"=== {title} ==="] + list(lines)
    print()
    for line in block:
        print(line)
    _ARTIFACTS.append("\n".join(block))


def pytest_sessionfinish(session, exitstatus):
    if not _ARTIFACTS:
        return
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "bench_artifacts.txt")
    with open(path, "w") as fh:
        fh.write("Benchmark data blocks — every table/figure series this "
                 "session regenerated.\n\n")
        fh.write("\n\n".join(_ARTIFACTS))
        fh.write("\n")
