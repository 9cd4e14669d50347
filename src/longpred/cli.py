"""Command-line front end.

Subcommands::

    coeffs      dump a_j, b_j, sigma(j) up to n
    fit         dump the order-k Yule-Walker fit (phi and operator form)
    figure1     truncation-excess constant over a d grid
    figure2     improvement ratio r(k) over a (d, k) grid
    figure3     mmse / tpmse / llspe against the horizon h
    rates       excess-vs-k tables, rate fits, constant-recovery ratios
    montecarlo  analytic vs simulated errors with z-scores

Each subcommand takes ``--config PATH``, ``--out DIR`` and only the flags it
reads (see its ``--help``); any other flag exits 1.  ``main`` parses with one
argument tree per process, built on its first call; ``build_parser`` returns
a new tree each time.

Every command is deterministic given its configuration and seed: re-running
with the same numpy/OpenBLAS build and BLAS thread count writes
byte-identical files.  Exit codes: 0 success, 1 invalid
configuration, 2 numeric certification failure (its stderr line ends with
``; achieved_bound <value>`` when a bound was reached).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import asymptotics, mse
from .config import _PARSERS, RunConfig, load_config
from .csvio import write_csv
from .errors import ConfigError, ModelError, NumericError
from .fit import projection_weights_at, yule_walker
from .predict import TRUNCATED_WK, truncated_wk_weights_at
from .process import ProcessModel, acvf, ar_coeffs, ma_coeffs
from .sim import SimulationPlan, empirical_mses
from .svgplot import line_chart

__all__ = ["main", "build_parser"]

_FIGURE2_D_GRID = tuple(round(0.05 * i, 2) for i in range(1, 10))
_FIGURE2_K_GRID = (4, 8, 16, 32, 64, 128, 256, 512)
_RATES_D_GRID = (0.2, 0.3)
_RATES_K_GRID = (128, 256, 512, 1024, 2048, 4096)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; that slot is reserved for
    # numeric certification failures, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FLAG_HELP = {"d": "memory parameter", "k": "predictor order", "n": "coefficient dump length",
              "seed": "RNG seed", "reps": "Monte-Carlo replications",
              "svg": "also emit SVG charts"}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="longpred", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext, flags, _ in _SUBCOMMANDS:
        # no prefixes: one could name another command's flag, and --h opens --help
        q = sub.add_parser(name, help=helptext, allow_abbrev=False)
        q.add_argument("--config", metavar="PATH", help="flat key = value config file")
        q.add_argument("--out", metavar="DIR", help="output directory")
        for key in flags:  # --svg is None, so not in ``provided``, unless given
            kind = ({"action": "store_true", "default": None} if key == "svg"
                    else {"type": _PARSERS[key]})
            q.add_argument(f"--{key}", help=_FLAG_HELP[key], **kind)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's one tree per process: parse_args keeps nothing between calls
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "config") and value is not None}
    return load_config(args.config, overrides)


# ---------------------------------------------------------------------------
# commands


def cmd_coeffs(cfg: RunConfig) -> list[Path]:
    model = cfg.model()
    out = cfg.out_dir()
    written = []
    for kind, seq in [("ar", ar_coeffs(model, cfg.n)),
                      ("ma", ma_coeffs(model, cfg.n)),
                      ("acvf", acvf(model, cfg.n, tol=cfg.acvf_tol))]:
        written.append(write_csv(
            out / f"coeffs_{kind}.csv", "longpred/coeffs v1",
            [f"model: {model.describe()}", f"kind: {kind}",
             f"certified_tol: {seq.certified_tol:.17g}"],
            ["j", "value"], enumerate(seq.prefix(cfg.n).tolist())))
    return written


def cmd_fit(cfg: RunConfig) -> list[Path]:
    model = cfg.model()
    out = cfg.out_dir()
    fit = yule_walker(acvf(model, cfg.k, tol=cfg.acvf_tol), cfg.k)
    rows = zip(range(cfg.k + 1), [0.0, *fit.phi.tolist()], fit.a_fit.tolist())
    return [write_csv(
        out / "fitted_ar.csv", "longpred/fitted-ar v1",
        [f"model: {model.describe()}", f"k: {cfg.k}",
         f"innovation_variance: {fit.innovation_variance:.17g}",
         "phi_0 is identically 0; a_fit_0 is the leading operator 1"],
        ["j", "phi", "a_fit"], rows)]


def _chart(cfg: RunConfig, path: Path, series, **labels) -> list[Path]:
    """[path] after writing the line chart of ``series`` there if ``svg`` is
    set, else []."""
    if not cfg.svg:
        return []
    path.write_text(line_chart(series, **labels), encoding="utf-8", newline="\n")
    return [path]


def cmd_figure1(cfg: RunConfig) -> list[Path]:
    out = cfg.out_dir()
    grid = cfg.d_grid or tuple(np.linspace(0.01, 0.49, 50))
    rows = [(float(d), asymptotics.truncation_constant(d)) for d in grid]
    return [write_csv(out / "figure1.csv", "longpred/figure1 v1",
                      ["columns: memory parameter, truncation-excess constant"],
                      ["d", "constant"], rows),
            *_chart(cfg, out / "figure1.svg",
                    [("constant", [r[0] for r in rows], [r[1] for r in rows])],
                    title="Truncation-excess constant", xlabel="d", ylabel="constant")]


def cmd_figure2(cfg: RunConfig) -> list[Path]:
    out = cfg.out_dir()
    d_grid = cfg.d_grid or _FIGURE2_D_GRID
    k_grid = cfg.k_grid or _FIGURE2_K_GRID
    rows, series = [], []
    for d in d_grid:
        ratios = [asymptotics.improvement_ratio(d, k) for k in k_grid]
        rows.extend((float(d), k, r, "true" if r >= 0.5 else "false")
                    for k, r in zip(k_grid, ratios))
        series.append((f"d={d:g}", k_grid, ratios))
    return [write_csv(out / "figure2.csv", "longpred/figure2 v1",
                      ["columns: d, k, improvement ratio, ratio >= 1/2 flag"],
                      ["d", "k", "r", "r_ge_half"], rows),
            *_chart(cfg, out / "figure2.svg", series,
                    title="Improvement ratio of AR(k) over truncation",
                    xlabel="k", ylabel="r", logx=True)]


def _sequences(cfg: RunConfig, model: ProcessModel, h_max: int):
    """sigma(j), a_j and b_j that every predictor and error up to h_max reads."""
    return (acvf(model, cfg.k + h_max, tol=cfg.acvf_tol),
            ar_coeffs(model, cfg.k + h_max - 1), ma_coeffs(model, h_max - 1))


def cmd_figure3(cfg: RunConfig) -> list[Path]:
    # reference cell d = 0.4, k = 80 unless overridden
    if "d" not in cfg.provided and cfg.kind == "frac_noise":
        cfg = replace(cfg, d=0.4)
    if "k" not in cfg.provided:
        cfg = replace(cfg, k=80)
    model = cfg.model()
    out = cfg.out_dir()
    k = cfg.k
    g, a, b = _sequences(cfg, model, cfg.h_max)
    hs = range(1, cfg.h_max + 1)
    rows, reports = [], []
    for h, wk, proj in zip(hs, truncated_wk_weights_at(a, k, hs),
                           projection_weights_at(g, k, hs)):
        mm = mse.infinite_past_mse(b, h)
        tp = mse.mse_of_weights(g, b, wk)
        ll = mse.mse_of_weights(g, b, proj)
        rows.append((h, mm.total, tp.total, ll.total))
        reports.extend([mm, tp, ll])
    return [write_csv(out / "figure3.csv", "longpred/figure3 v1",
                      [f"model: {model.describe()}", f"k: {k}",
                       "columns: horizon, infinite-past MSE, truncated MSE, projection MSE"],
                      ["h", "mmse", "tpmse", "llspe"], rows),
            write_csv(out / "figure3_mse.csv", "longpred/mse-report v1",
                      [f"model: {model.describe()}"],
                      ["method", "k", "h", "total", "floor", "excess", "certified_tol"],
                      [(r.method, r.k if r.k is not None else "", r.h, r.total, r.floor,
                        r.excess, r.certified_tol) for r in reports]),
            *_chart(cfg, out / "figure3.svg",
                    [(name, hs, [r[col] for r in rows])
                     for col, name in enumerate(("mmse", "tpmse", "llspe"), 1)],
                    title=f"h-step prediction error (k={k})", xlabel="h", ylabel="MSE")]


def cmd_rates(cfg: RunConfig) -> list[Path]:
    if cfg.kind != "frac_noise":
        raise ConfigError("rates requires a frac_noise model")
    out = cfg.out_dir()
    d_grid = cfg.d_grid or ((cfg.d,) if "d" in cfg.provided else _RATES_D_GRID)
    k_grid = cfg.k_grid or _RATES_K_GRID
    if len(k_grid) < 5:
        raise ConfigError("rates needs at least 5 k in k_grid for its rate fits")
    rows, summary = [], []
    for d in d_grid:
        model = ProcessModel.frac_noise(d, cfg.noise_variance)
        cells = {}
        for k in k_grid:
            dec = mse.error_decomposition(model, k)
            floor = model.noise_variance
            cells[k] = (dec.truncation_excess, dec.ar_excess)
            rows.append((TRUNCATED_WK, float(d), int(k), 1,
                         floor + dec.truncation_excess, floor,
                         dec.truncation_excess, 0.0))
            rows.append(("fitted_ar", float(d), int(k), 1,
                         floor + dec.ar_excess, floor, dec.ar_excess, 0.0))
        const = asymptotics.truncation_constant(d)
        kmax = max(k_grid)
        for method, idx in ((TRUNCATED_WK, 0), ("fitted_ar", 1)):
            fitres = asymptotics.rate_fit([(k, cells[k][idx]) for k in k_grid])
            ratio = kmax * cells[kmax][idx] / (cfg.noise_variance * const)
            summary.append((float(d), method, fitres.slope, fitres.intercept,
                            fitres.r_squared, kmax, ratio))
    return [
        write_csv(out / "rates.csv", "longpred/mse-report v1",
                  ["one-step excesses on the k grid"],
                  ["method", "d", "k", "h", "total", "floor", "excess", "certified_tol"],
                  rows),
        write_csv(out / "rates_summary.csv", "longpred/rates-summary v1",
                  ["log-log slopes and k * excess / constant at the largest k"],
                  ["d", "method", "slope", "intercept", "r_squared", "kmax",
                   "k_excess_over_constant"],
                  summary),
    ]


def cmd_montecarlo(cfg: RunConfig) -> list[Path]:
    model = cfg.model()
    out = cfg.out_dir()
    h_grid = cfg.h_grid or (1,)
    k = cfg.k
    g, a, b = _sequences(cfg, model, max(h_grid))
    plan = SimulationPlan(model, length=k + h_grid[0], replications=cfg.reps,
                          seed=cfg.seed, method=cfg.sim_method, ma_cov_tol=cfg.ma_cov_tol)
    weights = [w for pair in zip(truncated_wk_weights_at(a, k, h_grid),
                                 projection_weights_at(g, k, h_grid)) for w in pair]
    # the dump is the first horizon's rows, copied by the scoring pass
    paths = np.empty((cfg.reps, plan.length)) if cfg.dump_paths else None
    rows = []
    for w, est in zip(weights, empirical_mses(plan, weights, paths)):
        analytic = mse.mse_of_weights(g, b, w)
        z = (est.mean - analytic.total) / est.std_error
        rows.append((w.method, cfg.d if model.d is not None else "",
                     k, int(w.h), est.mean, est.std_error, analytic.total, z))
    written = [write_csv(out / "montecarlo.csv", "longpred/montecarlo v1",
                         [f"model: {model.describe()}",
                          f"seed: {cfg.seed}", f"replications: {cfg.reps}",
                          f"sim_method: {cfg.sim_method}"],
                         ["method", "d", "k", "h", "mc_mean", "mc_stderr",
                          "analytic_total", "z"], rows)]
    if paths is not None:
        written.append(write_csv(
            out / "paths.csv", "longpred/paths v1",
            [f"model: {model.describe()}", f"seed: {cfg.seed}", "one replication per row"],
            [f"x{t + 1}" for t in range(paths.shape[1])],
            (row.tolist() for row in paths)))
    return written


# each subcommand, its help line, the config keys it takes as flags and its handler
_SUBCOMMANDS = [
    ("coeffs", "dump model coefficient sequences", ("d", "n"), cmd_coeffs),
    ("fit", "dump the order-k Yule-Walker fit", ("d", "k"), cmd_fit),
    ("figure1", "truncation-excess constant over a d grid", ("svg",), cmd_figure1),
    ("figure2", "improvement ratio over a (d, k) grid", ("svg",), cmd_figure2),
    ("figure3", "three error curves against the horizon", ("d", "k", "svg"), cmd_figure3),
    ("rates", "excess decay rates and constant recovery", ("d",), cmd_rates),
    ("montecarlo", "Monte-Carlo cross-validation of analytic errors",
     ("d", "k", "seed", "reps"), cmd_montecarlo),
]
_COMMANDS = {name: handler for name, _, _, handler in _SUBCOMMANDS}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        written = _COMMANDS[args.command](cfg)
    except (ConfigError, ModelError) as exc:
        print(f"longpred: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ArithmeticError) as exc:
        bound = getattr(exc, "achieved_bound", None)
        suffix = f"; achieved_bound {bound:.3g}" if bound is not None else ""
        print(f"longpred: numeric certification failure: {exc}{suffix}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
