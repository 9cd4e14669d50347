"""Workload generators: the op sequences the benchmark sends to the CLI.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned.  Ops are grouped into jobs (a fixed
cycle of commands); a run always ends on a job boundary, so the op mix, and
therefore every per-op figure, is the same whatever the run length.

The ops are built from the workload seed alone.  The program receives only
the generated command line and config file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Iterator

__all__ = ["DEFAULT_SEED", "GOLDEN_JOBS", "WORKLOADS", "Op", "jobs"]

DEFAULT_SEED = 1

# Jobs of the default seed whose output digests are stored in goldens.json;
# more than a run at the committed run length completes on today's code.
GOLDEN_JOBS = {"mc_many_short": 30, "analytic_exact": 30, "model_zoo": 3}

# Files each command writes (``--svg`` adds the chart of a figure command).
_OUTPUTS = {
    "coeffs": ("coeffs_ar.csv", "coeffs_ma.csv", "coeffs_acvf.csv"),
    "fit": ("fitted_ar.csv",),
    "figure2": ("figure2.csv", "figure2.svg"),
    "figure3": ("figure3.csv", "figure3_mse.csv", "figure3.svg"),
    "rates": ("rates.csv", "rates_summary.csv"),
    "montecarlo": ("montecarlo.csv",),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``longpred <command> <args> [--config FILE]``.

    ``known_defect_exit`` is the exit code of a failure the program is known
    to have on this op; the op still counts as failed, but the run stays
    correct.  Any other non-zero exit, or an exception, makes it incorrect.
    """

    label: str
    command: str
    args: tuple[str, ...] = ()
    config: str = ""
    known_defect_exit: int | None = None

    @property
    def outputs(self) -> tuple[str, ...]:
        return _OUTPUTS[self.command]

    @property
    def key(self) -> str:
        """Digest of everything the program sees; names the op's golden."""
        text = json.dumps([self.command, list(self.args), self.config])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def argv(self, out_dir: str, config_path: str | None) -> list[str]:
        argv = [self.command, *self.args, "--out", out_dir]
        if self.config:
            argv += ["--config", config_path]
        return argv


def _d(rng: random.Random) -> str:
    return f"{rng.uniform(0.05, 0.45):.4f}"


def _mc_many_short(rng: random.Random) -> list[Op]:
    return [Op("montecarlo", "montecarlo",
               ("--d", _d(rng), "--k", "200", "--reps", "3000",
                "--seed", str(rng.getrandbits(32))),
               "h_grid = 1,5,10,20\n")]


def _analytic_exact(rng: random.Random) -> list[Op]:
    d = _d(rng)
    return [
        Op("rates", "rates", ("--d", d),
           "k_grid = 128,256,512,1024,2048,4096,8192,16384\n"),
        Op("figure3", "figure3", ("--d", d, "--k", "1024", "--svg"), "h_max = 40\n"),
        Op("fit", "fit", ("--d", d, "--k", "16384")),
        Op("figure2", "figure2", ("--svg",)),
    ]


def _model_zoo(rng: random.Random) -> list[Op]:
    # sum |theta_i| < 1 keeps every root of the finite MA outside the unit disk
    theta = ",".join(f"{rng.uniform(-0.24, 0.24):.4f}" for _ in range(4))
    models = [
        ("farima", f"kind = farima\nd = {_d(rng)}\nar = {rng.uniform(-0.5, 0.5):.4f}\n"
                   f"ma = {rng.uniform(-0.5, 0.5):.4f}\n", ""),
        ("arma", "kind = arma\nar = 0.9\n", "sim_method = ma_truncation\n"),
        ("generic_ma", f"kind = generic_ma\nma_coeffs = 1,{theta}\n",
         "sim_method = ma_truncation\n"),
        ("white_noise", "kind = white_noise\n", "sim_method = ma_truncation\n"),
    ]
    ops = []
    for name, model, sim in models:
        # ARMA ar=0.9 coeffs --n 4096 exits 2 after seconds, uncertified
        # (ROADMAP item 3); the op stays as it is so that the defect shows
        defect = 2 if name == "arma" else None
        ops += [
            Op(f"{name}/coeffs", "coeffs", ("--n", "4096"), model, defect),
            Op(f"{name}/fit", "fit", ("--k", "1024"), model),
            Op(f"{name}/figure3", "figure3", ("--k", "200", "--svg"), model),
            Op(f"{name}/montecarlo", "montecarlo",
               ("--k", "50", "--seed", str(rng.getrandbits(32))), model + sim),
        ]
    return ops


WORKLOADS = {
    "mc_many_short": _mc_many_short,
    "analytic_exact": _analytic_exact,
    "model_zoo": _model_zoo,
}


def jobs(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless sequence of jobs; the same (workload, seed) gives the same ops."""
    make = WORKLOADS[workload]
    rng = random.Random(f"longpred-bench/{workload}/{seed}")
    while True:
        yield make(rng)
