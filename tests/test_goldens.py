"""CLI outputs against the committed golden digests.

Replays the first job of each benchmark workload at its default seed through
``longpred.cli.main`` and compares every file it writes with the sha256
digests in ``bench/goldens.json``, so a change that moves any output byte
fails here and not only in a benchmark run.  The benchmark modules are used
read-only.  Ops declared with a known-defect exit code are skipped: they
write nothing to compare.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from run import execute, load_goldens, load_program  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, jobs  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_first_job_matches_goldens(workload, tmp_path):
    cli = load_program()
    goldens = load_goldens()
    ops = [op for op in next(jobs(workload, DEFAULT_SEED)) if op.known_defect_exit is None]
    assert ops
    for op in ops:
        assert op.key in goldens, f"{op.label} has no golden"
        rec = execute(cli, op, tmp_path, goldens)
        assert rec.completed, (op.label, rec.problems, rec.stderr[-2000:])
