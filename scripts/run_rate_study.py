#!/usr/bin/env python3
"""Rate study plus Monte-Carlo cross-check.

Writes into out/rates by default:
  rates.csv, rates_summary.csv   excess-vs-k tables, log-log slopes and
                                 constant-recovery ratios for d in {0.2, 0.3}
  montecarlo.csv                 analytic vs simulated errors with z-scores
                                 at d = 0.3, k = 50, h in {1, 5}
"""

import sys
import tempfile
from pathlib import Path

from longpred.cli import main


def run(out_dir: str = "out/rates") -> int:
    code = main(["rates", "--out", out_dir])
    if code != 0:
        return code
    with tempfile.TemporaryDirectory() as tmp:
        horizons = Path(tmp) / "mc.cfg"
        horizons.write_text("h_grid = 1,5\n", encoding="utf-8")
        return main(["montecarlo", "--out", out_dir, "--d", "0.3", "--k", "50",
                     "--reps", "2000", "--seed", "8001", "--config", str(horizons)])


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
