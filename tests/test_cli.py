import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longpred
from longpred import cli
from longpred.cli import _COMMANDS, _config_from_args, build_parser, main
from longpred.config import load_config, parse_config_file
from longpred.errors import ConfigError
from longpred.process import ProcessModel, acvf, ar_coeffs

from _oracles import empirical_mse, per_row_paths, read_csv


def run(args):
    return main([str(a) for a in args])


def rows_as_floats(path, cols=None):
    _, columns, rows = read_csv(path)
    if cols is None:
        data = [[float(v) if v else np.nan for v in row] for row in rows]
        return columns, np.array(data)
    idx = [columns.index(c) for c in cols]
    return np.array([[float(row[i]) for i in idx] for row in rows])


def test_coeffs_round_trip(tmp_path):
    out = tmp_path / "o"
    assert run(["coeffs", "--out", out, "--d", "0.3", "--n", "50"]) == 0
    for kind, seq in [("ar", ar_coeffs), ("ma", None), ("acvf", None)]:
        path = out / f"coeffs_{kind}.csv"
        assert path.exists()
    model = ProcessModel.frac_noise(0.3)
    cols, arr = rows_as_floats(out / "coeffs_ar.csv")
    assert cols == ["j", "value"]
    # 17 significant digits round-trip exactly
    assert np.array_equal(arr[:, 1], ar_coeffs(model, 50).prefix(50))
    cols, arr = rows_as_floats(out / "coeffs_acvf.csv")
    assert np.array_equal(arr[:, 1], acvf(model, 50).prefix(50))


def test_fit_output(tmp_path):
    out = tmp_path / "o"
    assert run(["fit", "--out", out, "--d", "0.4", "--k", "1"]) == 0
    arr = rows_as_floats(out / "fitted_ar.csv", ["j", "phi", "a_fit"])
    assert arr[1, 1] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert arr[0, 2] == 1.0


def test_figure1_values_and_svg(tmp_path):
    out = tmp_path / "o"
    assert run(["figure1", "--out", out, "--svg"]) == 0
    arr = rows_as_floats(out / "figure1.csv", ["d", "constant"])
    assert len(arr) == 50
    assert np.all(np.diff(arr[:, 1]) > 0)  # increasing in d
    svg = (out / "figure1.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_figure1_small_d_ratio(tmp_path):
    out = tmp_path / "o"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("d_grid = 0.001\n")
    assert run(["figure1", "--config", cfgfile, "--out", out]) == 0
    arr = rows_as_floats(out / "figure1.csv", ["d", "constant"])
    assert arr[0, 1] / arr[0, 0] ** 2 == pytest.approx(1.0, abs=0.01)


def test_figure2_flags(tmp_path):
    out = tmp_path / "o"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("d_grid = 0.25,0.4,0.45\nk_grid = 8,32,64\n")
    assert run(["figure2", "--config", cfgfile, "--out", out, "--svg"]) == 0
    _, cols, raw = read_csv(out / "figure2.csv")
    assert cols == ["d", "k", "r", "r_ge_half"]
    for row in raw:
        d, k, r = float(row[0]), float(row[1]), float(row[2])
        assert 0.0 <= r <= 1.0
        assert row[3] == ("true" if r >= 0.5 else "false")
        if d >= 0.4 and k > 20:
            assert row[3] == "true"
    assert (out / "figure2.svg").exists()


def _x_tick_labels(svg):
    # x tick labels sit 18 px below the plot area, centred on their ticks
    from longpred.svgplot import _H, _MB
    return re.findall(rf'<text x="[0-9.]+" y="{_H - _MB + 18}" text-anchor="middle">'
                      r"([^<]*)</text>", svg)


@pytest.mark.parametrize("command, grid, label", [
    ("figure2", "d_grid = 0.3,0.45\nk_grid = 8\n", "8"),  # log x axis
    ("figure1", "d_grid = 0.3\n", "0.3"),                 # linear x axis
], ids=("figure2_log_k", "figure1_linear_d"))
def test_single_valued_x_axis_gets_one_tick(tmp_path, command, grid, label):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(grid)
    out = tmp_path / "o"
    assert run([command, "--config", cfgfile, "--out", out, "--svg"]) == 0
    assert _x_tick_labels((out / f"{command}.svg").read_text()) == [label]


def test_figure3_default_cell_and_ordering(tmp_path):
    out = tmp_path / "o"
    assert run(["figure3", "--out", out]) == 0
    comments, _, _ = read_csv(out / "figure3.csv")
    assert any("d=0.4" in c for c in comments)
    assert any("k: 80" in c for c in comments)
    arr = rows_as_floats(out / "figure3.csv", ["h", "mmse", "tpmse", "llspe"])
    assert len(arr) == 40
    assert np.all(arr[:, 1] <= arr[:, 3] + 1e-14)  # mmse <= llspe
    assert np.all(arr[:, 3] <= arr[:, 2] + 1e-14)  # llspe <= tpmse
    sigma0 = acvf(ProcessModel.frac_noise(0.4), 0)[0]
    assert np.all(arr[:, 1:] < sigma0)
    assert arr[0, 1] == pytest.approx(1.0)


def test_rates_summary(tmp_path):
    out = tmp_path / "o"
    assert run(["rates", "--out", out]) == 0
    arr = rows_as_floats(out / "rates_summary.csv",
                         ["d", "slope", "k_excess_over_constant"])
    assert len(arr) == 4  # two d values, two methods
    assert np.all(arr[:, 1] > -1.1) and np.all(arr[:, 1] < -0.9)
    # constant recovery holds for the truncation rows
    _, cols, raw = read_csv(out / "rates_summary.csv")
    for row in raw:
        if row[1] == "truncated_wk":
            assert 0.9 <= float(row[-1]) <= 1.1


def test_rates_rejects_non_fractional_model(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("kind = white_noise\n")
    assert run(["rates", "--config", cfgfile, "--out", tmp_path / "o"]) == 1


def test_montecarlo_z_scores(tmp_path):
    out = tmp_path / "o"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("h_grid = 1,5\nreps = 400\nk = 20\n")
    assert run(["montecarlo", "--config", cfgfile, "--out", out,
                "--seed", "12"]) == 0
    arr = rows_as_floats(out / "montecarlo.csv", ["k", "h", "z"])
    assert len(arr) == 4  # two horizons, two methods
    assert np.all(np.abs(arr[:, 2]) <= 3.0)


def test_montecarlo_keys_each_row_stream_once(tmp_path, monkeypatch):
    # one draw per row serves every horizon: a circulant run keys each
    # row's stream once and builds no array of paths
    from longpred import sim
    keyed, simulated = [], []
    streams = sim._streams

    def counted(seed, start, stop):
        keyed.extend(range(start, stop))
        return streams(seed, start, stop)

    monkeypatch.setattr(sim, "_streams", counted)
    monkeypatch.setattr(sim, "simulate", simulated.append)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("h_grid = 5,1,2\nreps = 60\nk = 10\n")
    assert run(["montecarlo", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
    assert sorted(keyed) == list(range(60))
    assert simulated == []


def _dump_draws(tmp_path, monkeypatch, config):
    """Rows keyed and lengths simulated by ``montecarlo`` without and with
    ``dump_paths`` (h = 2, 1 at k = 10, 60 replications, seed 7), the dumped
    paths and the dump's plan."""
    from longpred import sim
    from longpred.sim import SimulationPlan
    keyed, simulated = [], []
    streams, simulate = sim._streams, sim.simulate

    def counted_streams(seed, start, stop):
        keyed.extend(range(start, stop))
        return streams(seed, start, stop)

    def counted_simulate(plan):
        simulated.append(plan.length)
        return simulate(plan)

    monkeypatch.setattr(sim, "_streams", counted_streams)
    monkeypatch.setattr(sim, "simulate", counted_simulate)
    cfgfile = tmp_path / "c.cfg"
    plain, dumped = tmp_path / "plain", tmp_path / "dumped"
    draws = []
    for out, dump in ((plain, ""), (dumped, "dump_paths = true\n")):
        cfgfile.write_text(config + "h_grid = 2,1\nreps = 60\nk = 10\nseed = 7\n" + dump)
        keyed.clear()
        simulated.clear()
        assert run(["montecarlo", "--config", cfgfile, "--out", out]) == 0
        draws.append((sorted(keyed), simulated[:]))
    # the dump leaves the estimates' bytes alone
    assert (plain / "montecarlo.csv").read_bytes() == (dumped / "montecarlo.csv").read_bytes()
    cfg = load_config(cfgfile)
    plan = SimulationPlan(cfg.model(), length=12, replications=60, seed=7, method=cfg.sim_method)
    return draws, rows_as_floats(dumped / "paths.csv")[1], plan


def test_montecarlo_dump_paths_simulates_first_horizon_once(tmp_path, monkeypatch):
    # the dump is copied from the scoring pass: each row's stream is keyed
    # once, dump or not, and no array of paths is simulated for it; the dump
    # is the first horizon's paths, drawn one row at a time as before
    draws, paths, plan = _dump_draws(tmp_path, monkeypatch, "")
    assert draws == [(list(range(60)), [])] * 2
    assert np.array_equal(paths, per_row_paths(plan))


def test_montecarlo_dump_paths_ma_truncation_simulates_each_length_once(tmp_path,
                                                                        monkeypatch):
    # MA truncation dumps the array it simulated for the first horizon
    draws, paths, plan = _dump_draws(
        tmp_path, monkeypatch, "kind = arma\nar = 0.5\nsim_method = ma_truncation\n")
    assert draws == [(sorted(list(range(60)) * 2), [12, 11])] * 2
    assert np.array_equal(paths, per_row_paths(plan))


def test_montecarlo_certification_exit_code(tmp_path, capsys):
    # near a unit root the MA series' tail outruns every order up to the cap
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("kind = arma\nar = 0.999999\nsim_method = ma_truncation\n"
                       "reps = 30\nk = 5\n")
    assert run(["montecarlo", "--config", cfgfile, "--out", tmp_path / "o"]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith("longpred: numeric certification failure: ")
    # the bound reached, above the 1e-6 requested, ends the line
    _, sep, bound = line.rpartition("; achieved_bound ")
    assert sep and float(bound) > 1e-6


@pytest.mark.parametrize("config", ("", "kind = farima\nd = 0.2\nar = 0.5\n"),
                         ids=("frac_noise", "farima"))
def test_montecarlo_refuses_ma_truncation_for_long_memory(tmp_path, capsys, monkeypatch,
                                                          config):
    # exit 1 from the configuration, before any sequence or draw
    from longpred import sim

    def spy(*args):
        raise AssertionError("a sequence or a draw was computed")

    monkeypatch.setattr(cli, "_sequences", spy)
    monkeypatch.setattr(sim, "_streams", spy)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(config + "sim_method = ma_truncation\nreps = 30\n")
    assert run(["montecarlo", "--config", cfgfile, "--out", tmp_path / "o"]) == 1
    assert "short-memory kinds only" in capsys.readouterr().err


@pytest.mark.parametrize("config, k", [("kind = farima\nd = 0.3\nar = 0.9\n", 10),
                                       ("kind = farima\nd = 0.45\nma = 0.9\n", 50),
                                       ("kind = arma\nar = 1.2,-0.5\n", 2)],
                         ids=("farima_ar0.9", "farima_ma0.9", "ar2"))
def test_montecarlo_samples_models_whose_minimal_embedding_fails(tmp_path, config, k):
    # the 2(n - 1) circulant of each has a negative eigenvalue; the grown
    # embedding samples it at the default 2000 replications
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(config)
    assert run(["montecarlo", "--k", k, "--config", cfgfile, "--out", tmp_path / "o"]) == 0
    z = rows_as_floats(tmp_path / "o" / "montecarlo.csv", ["z"])
    assert len(z) == 2 and np.all(np.abs(z) <= 5.0)


def test_montecarlo_path_dump(tmp_path):
    out = tmp_path / "o"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("dump_paths = true\nreps = 32\nk = 4\n")
    assert run(["montecarlo", "--config", cfgfile, "--out", out]) == 0
    cols, arr = rows_as_floats(out / "paths.csv")
    assert cols == ["x1", "x2", "x3", "x4", "x5"]
    assert arr.shape == (32, 5)


def test_white_noise_z_scores_over_many_seeds(tmp_path):
    # repeated-run sanity of the Monte-Carlo z statistic on a cell whose
    # analytic error is exact: roughly standard normal across seeds
    from longpred.mse import mse_of_weights
    from longpred.predict import truncated_wk_weights_at
    from longpred.process import acvf, ar_coeffs, ma_coeffs
    from longpred.sim import SimulationPlan, simulate

    model = ProcessModel.white_noise()
    w = truncated_wk_weights_at(ar_coeffs(model, 5), 5, (1,))[0]
    analytic = mse_of_weights(acvf(model, 5), ma_coeffs(model, 0), w).total
    zs = []
    for seed in range(50):
        est = empirical_mse(simulate(SimulationPlan(model, length=6, replications=400,
                                                    seed=seed)), w)
        zs.append((est.mean - analytic) / est.std_error)
    zs = np.asarray(zs)
    assert abs(np.mean(zs)) < 0.6
    assert 0.5 < np.std(zs) < 1.6
    assert np.max(np.abs(zs)) < 4.5


@pytest.mark.parametrize("command", ["coeffs", "fit", "figure1", "figure2",
                                     "figure3", "rates", "montecarlo"])
def test_commands_are_byte_deterministic(tmp_path, command):
    extra = ["--svg"] if command in ("figure1", "figure2", "figure3") else []
    if command == "figure2":
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("d_grid = 0.3,0.45\nk_grid = 8,16\n")
        extra += ["--config", cfgfile]
    if command == "rates":
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("k_grid = 64,128,256,512,1024\n")
        extra = ["--config", cfgfile]
    if command == "montecarlo":
        extra = ["--reps", "50", "--k", "10"]
    if command == "coeffs":
        extra = ["--n", "40"]
    if command == "fit":
        extra = ["--k", "10"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run([command, "--out", out, *extra]) == 0
        outs.append(sorted(p for p in out.iterdir()))
    names_a = [p.name for p in outs[0]]
    names_b = [p.name for p in outs[1]]
    assert names_a == names_b and names_a
    for pa, pb in zip(outs[0], outs[1]):
        assert pa.read_bytes() == pb.read_bytes()


# raises=AssertionError: only the layout check may fail; a command that
# exits non-zero or a file without a schema line fails the test outright
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rates.csv (method,d,k,h,...) and figure3_mse.csv "
                   "(method,k,h,...) share the schema id longpred/mse-report v1")
def test_each_schema_id_names_one_layout(tmp_path):
    cfgfile = tmp_path / "small.cfg"
    cfgfile.write_text("n = 40\nk = 10\nh_max = 5\nd_grid = 0.3,0.45\nk_grid = 16,32,64,128,256\n"
                       "reps = 50\ndump_paths = true\n")
    layouts: dict[str, set] = {}
    for command in _COMMANDS:
        if run([command, "--config", cfgfile, "--out", tmp_path / command]) != 0:
            pytest.fail(f"{command} exited non-zero")
        for path in sorted((tmp_path / command).glob("*.csv")):
            comments, columns, _ = read_csv(path)
            schemas = [c for c in comments if c.startswith("schema:")]
            if len(schemas) != 1:
                pytest.fail(f"{path.name} has {len(schemas)} schema lines")
            layouts.setdefault(schemas[0], set()).add((path.name, tuple(columns)))
    for schema, named in layouts.items():
        assert len({columns for _, columns in named}) == 1, (schema, sorted(named))


def test_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("d = 0.2\nk = 3\n")
    cfg = load_config(cfgfile, {"d": 0.4})
    assert cfg.d == 0.4
    assert cfg.k == 3
    assert {"d", "k"} <= cfg.provided
    assert "h" not in cfg.provided


def test_config_file_parsing(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "kind = farima\n"
        "d = 0.3   # trailing comment\n"
        "ar = 0.5,-0.2\n"
        "svg = true\n"
        "k_grid = 4,8\n")
    values = parse_config_file(cfgfile)
    assert values["kind"] == "farima"
    assert values["ar"] == (0.5, -0.2)
    assert values["svg"] is True
    assert values["k_grid"] == (4, 8)


def test_config_rejects_unknown_key(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfgfile)


def test_config_rejects_repeated_key(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("d = 0.2\nk = 3\n# later\nd = 0.4\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:4: d is already set on line 1"):
        load_config(cfgfile)
    assert main(["coeffs", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    # a flag still overrides the file's one value
    cfgfile.write_text("d = 0.2\n")
    assert load_config(cfgfile, {"d": 0.4}).d == 0.4


# every model key each kind reads, set alone, and the model it builds
KIND_KEY_MODELS = {
    ("frac_noise", "d"): ProcessModel.frac_noise(0.2),
    ("farima", "d"): ProcessModel.farima(0.2),
    ("farima", "ar"): ProcessModel.farima(0.3, (0.5,)),
    ("farima", "ma"): ProcessModel.farima(0.3, (), (0.4,)),
    ("generic_ma", "ma_coeffs"): ProcessModel.generic_ma((1.0, 0.5)),
    ("arma", "ar"): ProcessModel.arma((0.5,)),
    ("arma", "ma"): ProcessModel.arma((), (0.4,)),
}
MODEL_KEY_LINES = {"d": "d = 0.2", "ar": "ar = 0.5", "ma": "ma = 0.4",
                   "ma_coeffs": "ma_coeffs = 1,0.5"}


@pytest.mark.parametrize("kind", ["frac_noise", "farima", "generic_ma", "arma", "white_noise"])
def test_config_model_keys_of_each_kind(tmp_path, kind):
    cfgfile = tmp_path / "c.cfg"
    for key, line in MODEL_KEY_LINES.items():
        cfgfile.write_text(f"kind = {kind}\n{line}\n")
        if (kind, key) in KIND_KEY_MODELS:
            assert load_config(cfgfile).model() == KIND_KEY_MODELS[kind, key]
            continue
        # a model key the configured kind does not read
        with pytest.raises(ConfigError, match=f"{key} is not a parameter of kind = {kind}"):
            load_config(cfgfile)
        assert main(["coeffs", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    # every key of the kind together
    lines = [MODEL_KEY_LINES[key] for k, key in KIND_KEY_MODELS if k == kind]
    cfgfile.write_text("\n".join([f"kind = {kind}", *lines, "noise_variance = 2"]))
    want = {"frac_noise": ProcessModel.frac_noise(0.2, 2.0),
            "farima": ProcessModel.farima(0.2, (0.5,), (0.4,), 2.0),
            "generic_ma": ProcessModel.generic_ma((1.0, 0.5), 2.0),
            "arma": ProcessModel.arma((0.5,), (0.4,), 2.0),
            "white_noise": ProcessModel.white_noise(2.0)}[kind]
    assert load_config(cfgfile).model() == want


def test_config_rejects_bad_values(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("d = about-a-third\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfgfile)
    with pytest.raises(ConfigError):
        load_config(None, {"sim_method": "dice"})
    with pytest.raises(ConfigError):
        load_config(None, {"reps": 0})
    with pytest.raises(ConfigError):
        load_config(None, {"kind": "arma", "d": 0.3})
    # non-finite model and config values
    for key in ("noise_variance", "acvf_tol", "ma_cov_tol"):
        with pytest.raises(ConfigError):
            load_config(None, {key: float("inf")})
    for text in ("kind = arma\nar = inf\n",
                 "kind = farima\nd = 0.3\nar = nan\n",
                 "kind = farima\nd = 0.3\nma = inf\n",
                 "kind = generic_ma\nma_coeffs = 1,nan\n",
                 "noise_variance = inf\n",
                 "k_grid = 1e400\n",
                 "h_grid = 1e400\n"):
        cfgfile.write_text(text)
        assert main(["fit", "--k", "5", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 1
    # tolerances must be finite and positive; an infinite ma_cov_tol would
    # switch the MA sampler's certification off
    for text in ("acvf_tol = 0\n", "acvf_tol = -1\n", "acvf_tol = nan\n",
                 "acvf_tol = inf\n", "ma_cov_tol = 0\n", "ma_cov_tol = nan\n",
                 "ma_cov_tol = inf\n"):
        cfgfile.write_text("kind = arma\nar = 0.5\nsim_method = ma_truncation\n" + text)
        assert main(["montecarlo", "--k", "20", "--reps", "200", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 1
    # values the file parser or RunConfig rejects
    for text in ("svg = maybe\n", "kind = arma\nar = 0.5,x\n", "kind = dice\n",
                 "d = 0.5\n", "n = -1\n", "k = 0\n", "h = 0\n", "h_max = 0\n",
                 "seed = -1\n", "d_grid = 0.2,0.5\n", "k_grid = 4,0\n", "h_grid = 0\n",
                 "d_grid = 0.2,0.3,0.2\n", "kind = generic_ma\n", "k 50\n"):
        cfgfile.write_text(text)
        with pytest.raises(ConfigError):
            load_config(cfgfile).model()
        assert main(["coeffs", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    # a repeated grid value would fit a rate or simulate a horizon twice
    for command, text in (("rates", "d_grid = 0.3\nk_grid = 64,128,256,512,1024,1024\n"),
                          ("montecarlo", "h_grid = 1,1\n"),
                          ("figure2", "d_grid = 0.3,0.3\n")):
        cfgfile.write_text(text)
        assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")
    assert main(["coeffs", "--config", str(tmp_path / "missing.cfg")]) == 1
    with pytest.raises(ConfigError):
        load_config(None, {"bogus": 1})
    # an output directory under a regular file cannot be made (permission
    # bits would not stop root)
    (tmp_path / "file").write_text("")
    with pytest.raises(ConfigError):
        load_config(None, {"out": str(tmp_path / "file" / "o")}).out_dir()
    assert main(["figure1", "--out", str(tmp_path / "file" / "o")]) == 1
    # a rate fit needs at least 5 distinct orders
    for text in ("k_grid = 64,128\n", "k_grid = 64,64,64,64,64\n",
                 "k_grid = 64,128,256,512,512\n"):
        cfgfile.write_text(text)
        assert main(["rates", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1


def test_commands_compute_each_sequence_once(tmp_path, monkeypatch):
    from longpred import process
    kinds = []
    sequence = process._sequence

    def counted(model, kind, n, tol):
        kinds.append(kind)
        return sequence(model, kind, n, tol)

    monkeypatch.setattr(process, "_sequence", counted)
    assert run(["figure3", "--k", "20", "--out", tmp_path / "f3"]) == 0
    assert sorted(kinds) == ["acvf", "ar", "ma"]
    kinds.clear()
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("h_grid = 1,3,7\nreps = 60\nk = 10\n")
    assert run(["montecarlo", "--config", cfgfile, "--out", tmp_path / "mc"]) == 0
    # the sampler derives its own autocovariances from each plan
    assert kinds.count("ar") == 1 and kinds.count("ma") == 1


def test_commands_solve_every_horizon_in_one_pass(tmp_path, monkeypatch):
    from collections import Counter

    from longpred import cli, fit, predict
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # one Levinson pass serves h = 1 and every longer horizon, so the public
    # kernel entry does not run
    for module, name in [(fit, "_levinson"), (fit, "levinson_durbin"),
                         (predict, "truncated_wk_weights_at"),
                         (cli, "truncated_wk_weights_at")]:
        count(module, name)
    once = {"_levinson": 1, "truncated_wk_weights_at": 1}
    cfgfile = tmp_path / "f3.cfg"
    cfgfile.write_text("h_max = 40\n")
    assert run(["figure3", "--k", "20", "--config", cfgfile, "--out", tmp_path / "f3"]) == 0
    assert calls == once
    calls.clear()
    cfgfile = tmp_path / "mc.cfg"
    cfgfile.write_text("h_grid = 1,3,7\nreps = 60\nk = 10\n")
    assert run(["montecarlo", "--config", cfgfile, "--out", tmp_path / "mc"]) == 0
    assert calls == once


def test_figure3_scores_at_the_configured_acvf_tol(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("kind = arma\nar = 0.99\nacvf_tol = 1e-6\nh_max = 2\n")
    out = tmp_path / "o"
    assert run(["figure3", "--k", "20", "--config", cfgfile, "--out", out]) == 0
    tol = acvf(ProcessModel.arma(ar=(0.99,)), 22, tol=1e-6).certified_tol
    assert 1e-9 < tol < 1e-6  # the default 1e-10 would certify ~1e-18 here
    _, cols, rows = read_csv(out / "figure3_mse.csv")
    col = cols.index("certified_tol")
    for row in rows:
        assert float(row[col]) == (0.0 if row[0] == "infinite_past" else tol)


# the flags each command's computation reads, besides --config and --out
READS = {"coeffs": {"d", "n"}, "fit": {"d", "k"}, "figure1": {"svg"}, "figure2": {"svg"},
         "figure3": {"d", "k", "svg"}, "rates": {"d"},
         "montecarlo": {"d", "k", "seed", "reps"}}
FLAG_VALUES = {"d": ["0.3"], "k": ["10"], "h": ["5"], "n": ["10"], "seed": ["3"],
               "reps": ["40"], "svg": []}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys, command, flag):
    argv = [command, f"--{flag}", *FLAG_VALUES[flag]]
    if flag in READS[command]:
        assert flag in _config_from_args(build_parser().parse_args(argv)).provided
        return
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "--out", str(out)])
    assert exc_info.value.code == 1
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    assert not out.exists()


def test_h_is_not_a_config_key(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("h = 5\nreps = 40\nk = 10\n")
    assert run(["montecarlo", "--config", cfgfile, "--out", tmp_path / "x"]) == 1
    for grid, want in (("h_grid = 5\n", [5, 5]), ("", [1, 1])):
        out = tmp_path / f"o{len(grid)}"
        cfgfile.write_text(f"{grid}reps = 40\nk = 10\n")
        assert run(["montecarlo", "--config", cfgfile, "--out", out]) == 0
        assert list(rows_as_floats(out / "montecarlo.csv", ["h"])[:, 0]) == want


def test_bad_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["coeffs", "--bogus"])
    assert exc_info.value.code == 1


def test_farima_model_through_cli(tmp_path):
    out = tmp_path / "o"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("kind = farima\nd = 0.25\nar = 0.5\nma = 0.3\nn = 30\n")
    assert run(["coeffs", "--config", cfgfile, "--out", out]) == 0
    comments, _, _ = read_csv(out / "coeffs_ma.csv")
    assert any("kind=farima" in c for c in comments)


@pytest.mark.parametrize("noise_variance", (1e-300, 1e300))
def test_montecarlo_statistics_at_extreme_noise_variances(tmp_path, noise_variance):
    # residuals are scored in units of sqrt(noise_variance), so their squares
    # and squared deviations stay finite and nonzero; the z-scores are those
    # of the unit-variance run up to rounding
    cfgfile = tmp_path / "c.cfg"
    zs = []
    for s2 in (1.0, noise_variance):
        out = tmp_path / f"o{s2:g}"
        cfgfile.write_text(f"noise_variance = {s2!r}\nreps = 400\n")
        assert run(["montecarlo", "--k", "10", "--config", cfgfile, "--out", out]) == 0
        arr = rows_as_floats(out / "montecarlo.csv", ["mc_mean", "mc_stderr", "z"])
        assert np.all(np.isfinite(arr)) and np.all(arr[:, 1] > 0.0)
        assert np.all(np.abs(arr[:, 2]) <= 5.0)
        zs.append(arr[:, 2])
    assert np.allclose(zs[1], zs[0], rtol=1e-9, atol=1e-12)


def test_every_csv_a_command_writes_has_one_cell_pattern(tmp_path, monkeypatch):
    # write_csv formats a file's rows with the first row's template, so a row
    # that put a float where the first row has none would be written with
    # repr digits under %s; every command, both samplers and every optional
    # output must keep one length and float/non-float pattern per file
    write_csv = cli.write_csv
    patterns = {}

    def recording(path, schema, comments, columns, rows):
        rows = [tuple(row) for row in rows]
        patterns[path] = {tuple(isinstance(v, float) for v in row) for row in rows}
        return write_csv(path, schema, comments, columns, rows)

    monkeypatch.setattr(cli, "write_csv", recording)
    runs = {
        "coeffs": (["coeffs", "--n", "20"], ""),
        "coeffs_arma": (["coeffs", "--n", "20"], "kind = arma\nar = 0.5\n"),
        "fit": (["fit", "--k", "8"], ""),
        "figure1": (["figure1", "--svg"], "d_grid = 0.1,0.3\n"),
        "figure2": (["figure2", "--svg"], "d_grid = 0.3,0.45\nk_grid = 8,16\n"),
        "figure3": (["figure3", "--svg", "--k", "10"], "h_max = 4\n"),
        "rates": (["rates"], "d_grid = 0.3\nk_grid = 8,16,32,64,128\n"),
        "montecarlo": (["montecarlo", "--k", "5", "--reps", "30"],
                       "h_grid = 1,3\ndump_paths = true\n"),
        "montecarlo_ma": (["montecarlo", "--k", "5", "--reps", "30"],
                          "kind = arma\nar = 0.5\nh_grid = 1,3\ndump_paths = true\n"
                          "sim_method = ma_truncation\n"),
    }
    for name, (argv, config) in runs.items():
        cfgfile = tmp_path / f"{name}.cfg"
        cfgfile.write_text(config)
        assert run([*argv, "--config", cfgfile, "--out", tmp_path / name]) == 0, name
    written = {path.relative_to(tmp_path).as_posix() for path in patterns}
    assert {"montecarlo/paths.csv", "montecarlo_ma/paths.csv", "rates/rates.csv",
            "figure3/figure3_mse.csv", "coeffs_arma/coeffs_acvf.csv"} <= written
    for path, seen in patterns.items():
        assert len(seen) == 1, (path, seen)


def _call(argv):
    """Exit code of one ``main`` call, including argparse's exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _with_out(argv, out):
    return argv if argv == ["--help"] else [*argv, "--out", str(out)]


def _outputs(out):
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None


def test_main_calls_in_one_process_match_calls_made_alone(tmp_path, capsys, monkeypatch):
    # main parses with one tree per process; each call in a row must exit
    # and write as it does in a fresh interpreter, whatever came before it
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to it
    calls = [
        (["figure3", "--svg", "--k", "10"], 0),
        (["figure3", "--k", "10"], 0),
        (["figure3", "--bogus"], 1),
        (["--help"], 0),
        (["coeffs", "--n", "20"], 0),
    ]
    src = str(Path(longpred.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for i, (argv, want) in enumerate(calls):
        here, alone = tmp_path / f"here{i}", tmp_path / f"alone{i}"
        code = _call(_with_out(argv, here))
        text = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "longpred.cli", *_with_out(argv, alone)],
                              env=env, capture_output=True, text=True, check=False)
        assert code == proc.returncode == want, argv
        assert _outputs(here) == _outputs(alone), argv
        assert text.out.replace(str(here), "") == proc.stdout.replace(str(alone), "")
        assert text.err == proc.stderr
    assert (tmp_path / "here0" / "figure3.svg").exists()
    assert not (tmp_path / "here1" / "figure3.svg").exists()
    assert not (tmp_path / "here2").exists()
    # the public builder still gives a new tree; main's is built once
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()
