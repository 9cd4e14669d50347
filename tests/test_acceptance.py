"""Acceptance gate: every quantitative claim the artifact must reproduce.

Each criterion is one test that prints a single ``[acceptance] ... PASS/FAIL``
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).  All
tolerances are pinned here, not calibrated elsewhere.

One check is knowingly strict and fails against the implementation:
criterion 5 asserts an improvement ratio of at least 0.5 on cells with
d = 0.35 where the ratio, computed identically through two independent
routes, is 0.434-0.438.  It is kept as stated rather than loosened; the
failure message carries the measured values.

Criterion 3b once asserted the d -> 1/2 prefactor without the closed form's
leading 2 and was corrected: that 2 is confirmed by the constant recovered
empirically in criterion 2 and by the d -> 1/2 limit of the closed form.
"""

import functools
import math
import time

import numpy as np
import pytest

from longpred.asymptotics import improvement_ratio, rate_fit, truncation_constant
from longpred.cli import main as cli_main
from longpred.fit import projection_weights_at, yule_walker
from longpred.mse import error_decomposition, infinite_past_mse, mse_of_weights
from longpred.predict import truncated_wk_weights_at
from longpred.process import ProcessModel, acvf, ar_coeffs, ma_coeffs
from longpred.sim import SimulationPlan, empirical_mse, simulate

from _oracles import closed_form_ar_fit, spectral_contrast_mse, truncated_one_step_excess


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")
        return wrapper
    return deco


K_GRID = (128, 256, 512, 1024, 2048, 4096)


@criterion("criterion 01 truncation excess decays like 1/k")
def test_criterion_01_truncation_rate():
    start = time.perf_counter()
    for d in (0.2, 0.3):
        model = ProcessModel.frac_noise(d)
        pairs = [(k, truncated_one_step_excess(model, k)) for k in K_GRID]
        slope = rate_fit(pairs).slope
        assert -1.05 <= slope <= -0.95, f"d={d}: slope {slope:.4f}"
    assert time.perf_counter() - start < 60.0


@criterion("criterion 02 constant recovery k*excess -> constant")
def test_criterion_02_constant_recovery():
    k = 4096
    for d in (0.15, 0.25, 0.35):
        model = ProcessModel.frac_noise(d)
        ratio = k * truncated_one_step_excess(model, k) / (
            model.noise_variance * truncation_constant(d))
        assert 0.90 <= ratio <= 1.10, f"d={d}: ratio {ratio:.4f}"


@criterion("criterion 03a constant behaves like d^2 as d -> 0")
def test_criterion_03a_small_d_limit():
    d = 1e-3
    ratio = truncation_constant(d) / d ** 2
    assert 0.99 <= ratio <= 1.01, f"ratio {ratio:.6f}"


@criterion("criterion 03b constant prefactor as d -> 1/2")
def test_criterion_03b_near_half_limit():
    # C(d) = 2 Gamma(1-2d) Gamma(2d) / (Gamma(-d)^2 Gamma(d) Gamma(1+d)).
    # As d -> 1/2: Gamma(1-2d) (1-2d) = Gamma(2-2d) -> 1 and Gamma(2d) -> 1,
    # Gamma(-1/2)^2 = 4 pi and Gamma(1/2) Gamma(3/2) = pi / 2, so
    # C(d) (1-2d) -> 2 / (Gamma(-1/2)^2 Gamma(1/2) Gamma(3/2)) = 1 / pi^2.
    d = 0.499
    gneg = math.pi / (math.sin(-0.5 * math.pi) * math.gamma(1.5))  # Gamma(-1/2)
    value = truncation_constant(d) * (1.0 - 2.0 * d) * \
        gneg ** 2 * math.gamma(0.5) * math.gamma(1.5) / 2.0
    assert 0.99 <= value <= 1.01, (
        f"measured {value:.6f}: C(d) (1-2d) does not approach its d -> 1/2 "
        "limit 2 / (Gamma(-1/2)^2 Gamma(1/2) Gamma(3/2))")


@criterion("criterion 04 fitted AR excess shares the 1/k rate")
def test_criterion_04_fitted_ar_rate():
    for d in (0.2, 0.3):
        model = ProcessModel.frac_noise(d)
        pairs = [(k, error_decomposition(model, k).ar_excess) for k in K_GRID]
        slope = rate_fit(pairs).slope
        assert -1.10 <= slope <= -0.90, f"d={d}: slope {slope:.4f}"


@criterion("criterion 05 improvement ratio reaches 1/2 on the stated cells")
def test_criterion_05_improvement_ratio():
    failures = []
    for d in (0.35, 0.40, 0.45):
        for k in (24, 32, 64):
            r = improvement_ratio(d, k)
            if not r >= 0.5:
                failures.append(f"d={d} k={k}: r={r:.4f}")
    assert not failures, "; ".join(failures)


@criterion("criterion 06 closed form matches the Levinson solve")
def test_criterion_06_closed_form_equivalence():
    for d in (0.1, 0.3, 0.45):
        for k in (1, 2, 8, 32, 128, 512):
            cf = closed_form_ar_fit(d, k)
            lv = yule_walker(acvf(ProcessModel.frac_noise(d), k), k)
            dev = float(np.max(np.abs(cf.phi - lv.phi)))
            assert dev <= 1e-10, f"d={d} k={k}: dev {dev:.2e}"
        one = yule_walker(acvf(ProcessModel.frac_noise(d), 1), 1).phi[0]
        assert one == pytest.approx(d / (1.0 - d), abs=1e-12)


@criterion("criterion 07 horizon curves ordered as expected at d=0.4, k=80")
def test_criterion_07_figure3_ordering():
    d, k = 0.4, 80
    model = ProcessModel.frac_noise(d)
    seq = acvf(model, k + 40)
    a, b = ar_coeffs(model, k + 39), ma_coeffs(model, 39)
    sigma0 = seq.prefix(0)[0]
    for h in range(1, 41):
        mm = infinite_past_mse(b, h).total
        tp = mse_of_weights(seq, b, truncated_wk_weights_at(a, k, (h,))[0]).total
        ll = mse_of_weights(seq, b, projection_weights_at(seq, k, (h,))[0]).total
        assert mm <= ll + 1e-13, f"h={h}: mmse {mm} > llspe {ll}"
        assert ll <= tp + 1e-13, f"h={h}: llspe {ll} > tpmse {tp}"
        assert max(mm, ll, tp) < sigma0, f"h={h}: curve reached sigma(0)"
    assert infinite_past_mse(b, 1).total == model.noise_variance


@criterion("criterion 08 infinite-past gap decays like h^(2d-1)")
def test_criterion_08_infinite_past_rate():
    d = 0.3
    model = ProcessModel.frac_noise(d)
    sigma0 = acvf(model, 0)[0]
    hs = [1 << e for e in range(6, 14)]
    b = ma_coeffs(model, hs[-1] - 1)
    pairs = [(h, sigma0 - infinite_past_mse(b, h).total) for h in hs]
    slope = rate_fit(pairs).slope
    assert abs(slope - (2 * d - 1)) <= 0.05, f"slope {slope:.4f}"
    h = 1 << 13
    gap = sigma0 - infinite_past_mse(b, h).total
    predicted = h ** (2 * d - 1) * model.noise_variance / (
        (1 - 2 * d) * math.gamma(d) ** 2)
    ratio = gap / predicted
    assert 0.9 <= ratio <= 1.1, f"ratio {ratio:.4f}"


@criterion("criterion 09 h-step excess shape in (h, k)")
def test_criterion_09_h_step_shape():
    d = 0.3
    model = ProcessModel.frac_noise(d)
    rows = []
    for h in range(1, 33):
        for k in (64, 128, 256, 512, 1024):
            rep = mse_of_weights(acvf(model, k + h - 1), ma_coeffs(model, h - 1),
                                 truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0])
            rows.append((h, k, rep.excess))
    arr = np.array(rows)
    design = np.column_stack([np.ones(len(arr)), np.log(arr[:, 0]),
                              np.log(arr[:, 1])])
    coef, *_ = np.linalg.lstsq(design, np.log(arr[:, 2]), rcond=None)
    h_exp, k_exp = float(coef[1]), float(coef[2])
    assert -1.1 <= k_exp <= -0.9, f"k exponent {k_exp:.4f}"
    assert h_exp <= 2 * d + 0.15, f"h exponent {h_exp:.4f}"


@criterion("criterion 10 Monte-Carlo agrees with analytic errors")
def test_criterion_10_monte_carlo():
    start = time.perf_counter()
    d, k, reps = 0.3, 50, 2000
    model = ProcessModel.frac_noise(d)
    for h in (1, 5):
        seq = acvf(model, k + h)
        plan = SimulationPlan(model, length=k + h, replications=reps,
                              seed=8_000 + h)
        for weights in (truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0],
                        projection_weights_at(seq, k, (h,))[0]):
            analytic = mse_of_weights(seq, ma_coeffs(model, h - 1), weights).total
            est = empirical_mse(simulate(plan), weights)
            dev = abs(analytic - est.mean)
            assert dev <= 3.0 * est.std_error, (
                f"h={h} {weights.method}: |{analytic:.5f} - {est.mean:.5f}| "
                f"> 3 * {est.std_error:.5f}")
    assert time.perf_counter() - start < 60.0


@criterion("criterion 11 spectral contrast equals the time-domain error")
def test_criterion_11_spectral_time_equivalence():
    for d in (0.3, 0.45):
        model = ProcessModel.frac_noise(d)
        for k in (5, 20):
            fit = yule_walker(acvf(model, k), k)
            spectral = spectral_contrast_mse(model, fit)
            rel = abs(spectral - fit.innovation_variance) / fit.innovation_variance
            assert rel <= 1e-7, f"d={d} k={k}: rel {rel:.2e}"


@criterion("criterion 12 CLI commands are byte-deterministic")
def test_criterion_12_cli_determinism(tmp_path):
    commands = [
        ["coeffs", "--d", "0.3", "--n", "30"],
        ["fit", "--d", "0.3", "--k", "12"],
        ["figure1", "--svg"],
        ["figure2", "--svg"],
        ["figure3", "--svg"],
        ["rates"],
        ["montecarlo", "--k", "10", "--reps", "100", "--seed", "9"],
    ]
    cfg = tmp_path / "small.cfg"
    cfg.write_text("d_grid = 0.3,0.45\nk_grid = 64,128,256,512,1024\n",
                   encoding="utf-8")
    for args in commands:
        digests = []
        for run_dir in ("a", "b"):
            out = tmp_path / (args[0] + run_dir)
            extra = ["--config", str(cfg)] if args[0] in ("figure2", "rates") else []
            assert cli_main(args + extra + ["--out", str(out)]) == 0
            digests.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert digests[0] == digests[1], f"{args[0]} output differed across runs"
