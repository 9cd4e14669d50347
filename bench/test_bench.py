"""Tests of the benchmark itself: op generation, metric names, layer coverage.

Run with ``python -m pytest bench``.
"""

import itertools
import json
import re
from pathlib import Path

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, Op, jobs

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Every per-layer metric the benchmark defines; each is reported or listed
# in NOT_REPORTED with the reason.
LAYER_METRICS = """
sim.simulate_s sim.empirical_s sim.simulate_calls sim.samples sim.samples_per_s
sim.simulations_per_plan sim.path_bytes
fit.levinson_s fit.levinson_calls fit.solve_toeplitz_s fit.solve_toeplitz_calls
fit.order_sum fit.ops fit.failed
predict.wk_s predict.wk_calls predict.wk_ops
mse.weights_s mse.decomposition_s mse.decomposition_calls mse.floor_s
special.log_gamma_diff_calls special.self_s
asymptotics.improvement_ratio_s asymptotics.rate_fit_s
process.acvf.frac_noise_s process.acvf.farima_s process.acvf.generic_s
process.coeffs_s process.calls process.terms process.failed process.failed_s
process.recompute_ratio
cli.coeffs_s cli.fit_s cli.figure1_s cli.figure2_s cli.figure3_s cli.rates_s
cli.montecarlo_s config.load_s csvio.write_s csvio.bytes svgplot.chart_s
""".split()
NOT_REPORTED = {"cli.figure1_s": "no workload runs figure1, so it would read 0 everywhere"}

# Small versions of every command the workloads run, over every model kind.
SMALL_OPS = [
    Op("montecarlo", "montecarlo", ("--d", "0.3", "--k", "10", "--reps", "40"),
       "h_grid = 1,2\n"),
    Op("rates", "rates", ("--d", "0.3"), "k_grid = 8,16,32,64,128\n"),
    Op("figure3", "figure3", ("--d", "0.3", "--k", "20", "--svg"), "h_max = 3\n"),
    Op("fit", "fit", ("--d", "0.3", "--k", "30")),
    Op("figure2", "figure2", ("--svg",), "d_grid = 0.2,0.4\nk_grid = 4,8\n"),
    Op("farima/coeffs", "coeffs", ("--n", "50"), "kind = farima\nd = 0.2\nar = 0.3\n"),
    Op("arma/montecarlo", "montecarlo", ("--k", "5", "--reps", "40"),
       "kind = arma\nar = 0.5\nsim_method = ma_truncation\n"),
    Op("white_noise/fit", "fit", ("--k", "5"), "kind = white_noise\n"),
]


def _first_jobs(workload, seed, n=3):
    return list(itertools.islice(jobs(workload, seed), n))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_ops(workload):
    assert _first_jobs(workload, 7) == _first_jobs(workload, 7)
    assert _first_jobs(workload, 7) != _first_jobs(workload, 8)


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS


def test_metric_names():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + LAYER_METRICS:
        assert NAME.fullmatch(name), name


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    cli = run.load_program()
    work = tmp_path_factory.mktemp("bench")
    tracer = Tracer()
    with tracer:
        records = []
        for i, op in enumerate(SMALL_OPS):
            tracer.op = i
            records.append(run.execute(cli, op, work, {}))
    return cli, tracer, records


def test_small_ops_pass_their_checks(traced):
    _, _, records = traced
    assert [(r.label, r.problems) for r in records if not r.completed] == []


def test_layer_metrics_reported_or_dropped(traced):
    _, tracer, records = traced
    produced = tracer.layer_metrics(len(records))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    trace_only = {"trace.untraced_ops_per_s", "trace.ops_per_s", "trace.overhead_ops_per_s"}
    assert {k: u for k, (_, u) in produced.items()} == {
        k: u for k, u in declared.items() if k not in trace_only}
    for name in LAYER_METRICS:
        assert (name in produced) != (name in NOT_REPORTED), name
    assert produced["sim.simulations_per_plan"][0] >= 1.0


def test_tracer_restores_every_name(traced):
    cli, _, _ = traced
    import longpred
    import longpred.mse

    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli._COMMANDS["rates"], "__wrapped__")
    assert not hasattr(longpred.mse.acvf, "__wrapped__")
    assert not hasattr(longpred.levinson_durbin, "__wrapped__")


def test_failed_op_is_wrong_unless_known_defect(tmp_path):
    cli = run.load_program()
    bad = Op("fit", "fit", ("--k", "not-a-number"))
    rec = run.execute(cli, bad, tmp_path, {})
    assert rec.exit_code not in (0, None) and rec.wrong
    known = Op("fit", "fit", ("--k", "not-a-number"), known_defect_exit=rec.exit_code)
    rec = run.execute(cli, known, tmp_path, {})
    assert not rec.completed and not rec.wrong
    model_zoo = next(jobs("model_zoo", 1))
    assert [op.label for op in model_zoo if op.known_defect_exit] == ["arma/coeffs"]
