"""CLI outputs against the committed golden digests.

Replays the first job of each benchmark workload at its default seed through
``longpred.cli.main`` and compares every file it writes with the sha256
digests in ``bench/goldens.json``, so a change that moves any output byte
fails here and not only in a benchmark run.  The benchmark modules are used
read-only.  Ops declared with a known-defect exit code are skipped there, as
they have no golden; the one such op, model_zoo's ``arma/coeffs``, is run on
its own and its files are compared with the cell-by-cell reference writer.
"""

import sys
from pathlib import Path

import pytest

import longpred.cli

from _oracles import read_csv, reference_write_csv

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


def test_arma_coeffs_bytes_match_the_reference_writer(tmp_path, monkeypatch):
    # its MA column runs down to about 1e-188 and its acvf ends in exact zeros
    (op,) = [op for op in next(jobs("model_zoo", DEFAULT_SEED)) if op.label == "arma/coeffs"]
    calls, write_csv = [], longpred.cli.write_csv

    def recording_write_csv(path, schema, comments, columns, rows):
        rows = list(rows)
        calls.append((path, schema, comments, columns, rows))
        return write_csv(path, schema, comments, columns, rows)

    monkeypatch.setattr(longpred.cli, "write_csv", recording_write_csv)
    config = tmp_path / "op.cfg"
    config.write_text(op.config, encoding="utf-8")
    assert longpred.cli.main(op.argv(str(tmp_path / "out"), str(config))) == 0
    assert sorted(path.name for path, *_ in calls) == sorted(op.outputs)
    for path, *args in calls:
        want = reference_write_csv(tmp_path / f"ref_{path.name}", *args)
        assert path.read_bytes() == want.read_bytes(), path.name
    ma = [float(row[1]) for row in read_csv(tmp_path / "out" / "coeffs_ma.csv")[2]]
    acvf = [float(row[1]) for row in read_csv(tmp_path / "out" / "coeffs_acvf.csv")[2]]
    assert 0.0 < min(ma) < 1e-100 and acvf[-1] == 0.0
    # a_j = 1 - 0.9 z exactly: unsigned zeros past lag 1
    ar = [row[1] for row in read_csv(tmp_path / "out" / "coeffs_ar.csv")[2]]
    assert [float(v) for v in ar[:2]] == [1.0, -0.9] and set(ar[2:]) == {"0"}
