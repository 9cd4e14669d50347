#!/usr/bin/env python3
"""longpred benchmark: closed-loop CLI workloads with verified outputs.

Run one workload::

    python3 bench/run.py --workload mc_many_short --seed 1 --seconds 35 --trace 0

Run every workload, each in its own process, and print a table::

    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 1]

Re-record the output digests of the default seed (only when a change is
meant to alter output bytes, and then say which)::

    python3 bench/run.py --record-goldens

A run imports the program from ``src/`` next to this directory, builds the
workload's ops from ``--seed`` (see ``workloads.py``), calls
``longpred.cli.main`` in-process for each op, one at a time, and checks every
op's outputs (see ``checks.py``).  One untimed op warms the process up; the
run then stops at the first job boundary after ``--seconds`` seconds.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

* ``ops_per_s``: completed ops per second of one job, each op of the job
  timed by the median of its repeats in the run (see ``ops_per_s``).  Ops
  that fail count as attempted, not completed; their time counts.
* ``peak_rss_mb``: peak resident memory of this process.
* ``setup_s``: median wall time of fresh interpreters, started between ops
  across the run, that each import ``longpred``, build the CLI parser and
  load a config: the cold cost of every CLI invocation.

Two more end-to-end figures are printed and recorded but not in the JSON
line: ``failed_ratio`` (``failed / attempted``; 0 on two workloads, so no
relative bound applies to it) and ``op_p50_s``, the median wall time of all
attempted ops with its sample count.  The median of a mixed op population
falls between clusters of op types, and on model_zoo it varied by more than
the largest bound between runs, so it is not gated.

An op fails if it exits non-zero, raises or fails a check, and every failed
op makes the run incorrect, except an op that fails with the exit code of
its known defect (``Op.known_defect_exit``): that one counts in ``failed``
only.

``--trace 1`` runs each job twice, untraced and traced (see ``tracing.py``),
and reports the per-layer metrics together with the tracer's own cost.
Every run writes its record (run context, every op, every failure) to
``.bench_out/`` and the traced spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from checks import check_outputs
from workloads import DEFAULT_SEED, GOLDEN_JOBS, WORKLOADS, jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = BENCH / "goldens.json"

DEFAULT_SECONDS = 35.0
SETUP_SAMPLES = 15
_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import longpred.cli as cli; "
               "from longpred.config import load_config; cli.build_parser(); "
               "load_config(sys.argv[2])")
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ``longpred.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "longpred" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'longpred'}")
    sys.path.insert(0, str(SRC))
    import longpred.cli

    if Path(longpred.cli.__file__).resolve().parent != (SRC / "longpred").resolve():
        raise ProgramMissing(f"imported longpred from {longpred.cli.__file__}, not {SRC}")
    return longpred.cli


@dataclass
class OpRecord:
    label: str
    key: str
    seconds: float
    exit_code: int | None
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # name -> sha256
    stderr: str = ""
    known_defect: bool = False  # failed with the exit code of its known defect

    @property
    def achieved_bound(self) -> str | None:
        """The certified bound a failed op reports on stderr, if it reports one."""
        m = re.search(r"achieved[_ ]bound\W+(\S+)", self.stderr)
        return m.group(1) if m else None

    @property
    def completed(self) -> bool:
        return self.exit_code == 0 and not self.problems

    @property
    def wrong(self) -> bool:
        return not self.completed and not self.known_defect


def execute(cli, op, work: Path, goldens: dict) -> OpRecord:
    out = work / "out"
    if out.exists():
        shutil.rmtree(out)
    config_path = work / "op.cfg"
    if op.config:
        config_path.write_text(op.config, encoding="utf-8")
    argv = op.argv(str(out), str(config_path))
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises is a failed op; keep the run going
        code = None
        stderr.write(traceback.format_exc())
    seconds = perf_counter() - t0
    rec = OpRecord(op.label, op.key, seconds, code, stderr=stderr.getvalue().strip(),
                   known_defect=code is not None and code == op.known_defect_exit)
    if code != 0:
        rec.problems.append(f"exit code {code}")
    else:
        rec.files, rec.problems = check_outputs(out, op.outputs, goldens.get(op.key),
                                                rec.notes)
    return rec


def run_jobs(cli, workload: str, seed: int, seconds: float, work: Path, goldens: dict,
             max_jobs: int | None = None, after_op=lambda: None):
    """Run whole jobs until ``seconds`` have passed (or ``max_jobs`` jobs),
    calling ``after_op`` between ops, outside their timing."""
    records: list[OpRecord] = []
    t_start = perf_counter()
    for i, job in enumerate(jobs(workload, seed)):
        if max_jobs is not None and i >= max_jobs:
            break
        if max_jobs is None and records and perf_counter() - t_start >= seconds:
            break
        for op in job:
            records.append(execute(cli, op, work, goldens))
            after_op()
    return records


def run_traced(cli, workload: str, seed: int, seconds: float, work: Path, goldens: dict,
               tracer) -> tuple[list[OpRecord], list[OpRecord]]:
    """Run each job untraced and traced, alternating which goes first, so
    drift in the machine's speed falls on both sides; ``seconds`` in all."""
    plain: list[OpRecord] = []
    traced: list[OpRecord] = []
    t_start = perf_counter()
    for i, job in enumerate(jobs(workload, seed)):
        if plain and perf_counter() - t_start >= seconds:
            break
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                plain += [execute(cli, op, work, goldens) for op in job]
                continue
            with tracer:
                for op in job:
                    tracer.op = len(traced)
                    traced.append(execute(cli, op, work, goldens))
    return plain, traced


def ops_per_s(records: list[OpRecord], job_size: int) -> float:
    """Completed ops per second of a job whose every op takes its median time.

    Records hold whole jobs, so record ``i`` is op ``i % job_size`` of its job.
    A shared host's speed changes by up to 1.7x from one second to the next;
    the median of each op's repeats keeps a few slow seconds from moving the
    figure, and the same op mix is timed whatever the run length.
    """
    job_s = sum(statistics.median(r.seconds for r in records[i::job_size])
                for i in range(job_size))
    return sum(r.completed for r in records) * job_size / len(records) / job_s


class SetupTimer:
    """Times fresh interpreters that import ``longpred``, build the CLI parser
    and load a config.  Called between ops, it takes a sample when one is
    due, so the samples spread over the run: the host's speed changes from
    one second to the next, and samples taken back to back share one speed.
    """

    def __init__(self, config_text: str, work: Path, seconds: float) -> None:
        config = work / "setup.cfg"
        config.write_text(config_text, encoding="utf-8")
        self._cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(config)]
        self._interval = seconds / SETUP_SAMPLES
        self.times: list[float] = []
        self._run()  # the first run only writes bytecode caches
        self._due = perf_counter()

    def _run(self) -> float:
        t0 = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(self._cmd, check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    def __call__(self) -> None:
        if perf_counter() >= self._due:
            self.times.append(self._run())
            self._due = perf_counter() + self._interval

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(self._run())
        return statistics.median(self.times)


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_context() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        "loadavg_1m_before": os.getloadavg()[0],
    }


def load_goldens() -> dict:
    """op key -> {file name: sha256}, over every workload's default seed."""
    if not GOLDENS.is_file():
        return {}
    data = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return {key: entry["files"] for w in data.values() for key, entry in w["ops"].items()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_program()
    goldens = load_goldens()
    context = run_context()
    work = OUT / f"{workload}-{seed}-t{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "context": context}
    first_job = next(jobs(workload, seed))
    first, job_size = first_job[0], len(first_job)
    # one untimed op first: the first numpy calls of a process run slower
    execute(cli, first, work, goldens)
    if not trace:
        setup = SetupTimer(first.config or "kind = frac_noise\n", work, seconds)
        ops = run_jobs(cli, workload, seed, seconds, work, goldens, after_op=setup)
        phases = [ops]
        metrics = {
            "ops_per_s": _metric(ops_per_s(ops, job_size), "1/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024.0, "MB"),
            "setup_s": _metric(setup.median(), "s"),
        }
        record["op_p50_s"] = statistics.median(r.seconds for r in ops)
        record["wall_ops_per_s"] = sum(r.completed for r in ops) / sum(r.seconds for r in ops)
        record["setup_samples_s"] = setup.times
    else:
        from tracing import Tracer

        tracer = Tracer()
        untraced, traced = run_traced(cli, workload, seed, seconds, work, goldens, tracer)
        phases = [untraced, traced]
        metrics = {k: _metric(v, u) for k, (v, u) in tracer.layer_metrics(len(traced)).items()}
        base, with_trace = ops_per_s(untraced, job_size), ops_per_s(traced, job_size)
        metrics["trace.untraced_ops_per_s"] = _metric(base, "1/s")
        metrics["trace.ops_per_s"] = _metric(with_trace, "1/s")
        metrics["trace.overhead_ops_per_s"] = _metric(with_trace - base, "1/s")
        record["layer_failures"] = tracer.failures
        record["trace_hook_errors"] = tracer.counts.get("trace.hook_errors", 0)
        tracer.write_spans(OUT / f"{workload}-{seed}.spans.tsv")
    all_ops = [r for phase in phases for r in phase]
    failed = sum(not r.completed for r in all_ops)
    context["loadavg_1m_after"] = os.getloadavg()[0]
    record.update({
        "ops": [asdict(r) | {"completed": r.completed, "achieved_bound": r.achieved_bound}
                for r in all_ops],
        "op_samples": len(phases[-1]),
        "failed_ratio": failed / len(all_ops),
        "result": {"correct": not any(r.wrong for r in all_ops),
                   "attempted": len(all_ops), "failed": failed, "metrics": metrics},
    })
    (OUT / f"{workload}-{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_summary(record: dict) -> None:
    res = record["result"]
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{res['attempted']} ops attempted, {res['failed']} failed, "
          f"correct {str(res['correct']).lower()}")
    print(f"  {'failed_ratio':34s} {record['failed_ratio']:.6g} ratio")
    if "op_p50_s" in record:
        print(f"  {'op_p50_s':34s} {record['op_p50_s']:.6g} s (n={record['op_samples']})")
    for r in record["ops"]:
        if not r["completed"]:
            kind = "known defect" if r["known_defect"] else "WRONG"
            print(f"  failed op ({kind}) {r['label']} after {r['seconds']:.3f} s: "
                  f"{'; '.join(r['problems'])}; achieved_bound {r['achieved_bound']}; "
                  f"stderr: {r['stderr'][-300:]!r}")
    noted = [r for r in record["ops"] if r["notes"]]
    if noted:
        print(f"  {len(noted)} ops with notes, first {noted[0]['label']}: {noted[0]['notes'][0]}")
    for f in record.get("layer_failures", []):
        print(f"  raised in {f['span']}: {f['type']}: {f['message']} "
              f"(achieved_bound {f['achieved_bound']})")
    if record.get("trace_hook_errors"):
        print(f"  {record['trace_hook_errors']:g} traced calls did not match their counter's "
              "signature; their counts are missing")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    ctx = record["context"]
    print(f"  context: python {ctx['python']}, numpy {ctx['numpy']}, nproc {ctx['nproc']}, "
          f"git {ctx['git_sha']}, load {ctx['loadavg_1m_before']:.2f} -> "
          f"{ctx['loadavg_1m_after']:.2f}, threads {ctx['thread_env']}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; prints one table of every metric."""
    rows = []
    for workload in WORKLOADS:
        for t in (0, 1) if trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(t)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            rows.append(json.loads((OUT / f"{workload}-{seed}-t{t}.json").read_text()))
    ok = True
    for rec in rows:
        res = rec["result"]
        ok &= res["correct"]
        head = f"{rec['workload']} (trace {int(rec['trace'])})"
        print(f"{head}: correct {str(res['correct']).lower()}, attempted {res['attempted']}, "
              f"failed {res['failed']}")
        print(f"  {'failed_ratio':26s} {rec['failed_ratio']:.6g} ratio")
        if "op_p50_s" in rec:
            print(f"  {'op_p50_s':26s} {rec['op_p50_s']:.6g} s (n={rec['op_samples']})")
        for name, m in res["metrics"].items():
            if not rec["trace"] or name.startswith("trace."):
                print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def record_goldens() -> int:
    cli = load_program()
    data = {}
    for workload in WORKLOADS:
        work = OUT / f"goldens-{workload}"
        work.mkdir(parents=True, exist_ok=True)
        ops = run_jobs(cli, workload, DEFAULT_SEED, 0.0, work, {},
                       max_jobs=GOLDEN_JOBS[workload])
        digests = {r.key: {"label": r.label, "files": r.files} for r in ops if r.completed}
        bad = [r for r in ops if r.wrong]
        if bad:
            print(f"{workload}: {len(bad)} ops failed their checks; goldens not written",
                  file=sys.stderr)
            return 1
        data[workload] = {"seed": DEFAULT_SEED, "jobs": GOLDEN_JOBS[workload],
                          "ops": dict(sorted(digests.items()))}
        print(f"{workload}: {len(digests)} distinct ops recorded, "
              f"{sum(not r.completed for r in ops)} failed ops without golden")
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--record-goldens", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if args.record_goldens:
            return record_goldens()
        if args.all:
            return run_all(args.seed, args.seconds, bool(args.trace))
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
