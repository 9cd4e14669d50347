import math

import numpy as np
import pytest

from longpred.asymptotics import (improvement_ratio, rate_fit,
                                  truncation_constant)
from longpred.errors import ModelError
from longpred.mse import error_decomposition
from longpred.process import ProcessModel

from _oracles import fitted_ar_mse, truncated_one_step_excess


def test_constant_term_by_term_oracle():
    # independent per-factor log-Gamma evaluation
    d = 0.25
    lg = math.lgamma
    log_val = lg(1 - 2 * d) + lg(2 * d) - 2 * lg(-d) - lg(d) - lg(1 + d)
    assert truncation_constant(d) == pytest.approx(2.0 * math.exp(log_val),
                                                   rel=1e-12)


# C(d) to the bit: a change in how its log-Gamma terms are summed moves
# golden output bytes
CONSTANT_BITS = {
    0.01: "0x1.a3918562f6932p-14", 0.05: "0x1.4a66e4b830a2ep-9",
    0.25: "0x1.45f306dc9c882p-4", 0.3: "0x1.0d2daf207931dp-3",
    0.4: "0x1.91447df0b9577p-2", 0.45: "0x1.cf0aabb94a384p-1",
    0.49: "0x1.3da3814c72618p+2", 0.4999: "0x1.fa812c2dc4e3cp+8",
}


@pytest.mark.parametrize("d", sorted(CONSTANT_BITS))
def test_constant_bits_are_pinned(d):
    assert truncation_constant(d) == float.fromhex(CONSTANT_BITS[d])


def test_constant_small_d_equivalent():
    # constant ~ d^2 as d -> 0
    d = 1e-3
    assert truncation_constant(d) / d ** 2 == pytest.approx(1.0, abs=0.01)


def test_constant_near_half_divergence_rate():
    # constant ~ 1 / ((1 - 2d) pi^2) as d -> 1/2
    d = 0.499
    assert truncation_constant(d) * (1 - 2 * d) * math.pi ** 2 == pytest.approx(
        1.0, abs=0.01)


def test_constant_positive_and_increasing():
    grid = np.linspace(0.01, 0.49, 100)
    vals = [truncation_constant(d) for d in grid]
    assert all(v > 0 for v in vals)
    assert np.all(np.diff(vals) > 0)


def test_constant_recovered_from_excess():
    # k * excess -> constant, within 10 percent at k = 4096
    for d in (0.15, 0.25, 0.35):
        model = ProcessModel.frac_noise(d)
        k = 4096
        ratio = k * truncated_one_step_excess(model, k) / truncation_constant(d)
        assert 0.9 <= ratio <= 1.1


@pytest.mark.parametrize("d", [0.0, 0.5, -0.2])
def test_constant_pole_guard(d):
    with pytest.raises(ModelError):
        truncation_constant(d)


def test_improvement_ratio_identity():
    # decomposition route equals the two-excess route
    for d, k in [(0.2, 8), (0.35, 32), (0.45, 128)]:
        model = ProcessModel.frac_noise(d)
        r = improvement_ratio(d, k)
        ex_t = truncated_one_step_excess(model, k)
        ex_a = fitted_ar_mse(model, k).excess
        assert r == pytest.approx((ex_t - ex_a) / ex_t, rel=1e-8)


def test_improvement_ratio_in_unit_interval():
    for d in (0.05, 0.15, 0.25, 0.35, 0.45):
        for k in (4, 16, 64, 256, 512):
            r = improvement_ratio(d, k)
            assert 0.0 <= r <= 1.0


def test_improvement_ratio_large_memory():
    # the fitted predictor removes most of the truncation excess at the
    # upper end of the memory range
    assert improvement_ratio(0.45, 32) > 0.7
    assert improvement_ratio(0.40, 24) > 0.55


def test_rate_fit_exact_power_law():
    fit = rate_fit([(k, 7.0 / k) for k in (2, 4, 8, 16, 32, 64)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        rate_fit([(1, 1.0), (2, 0.5)])
    with pytest.raises(ValueError):
        rate_fit([(k, -1.0) for k in (1, 2, 3, 4, 5)])
    # five points need five distinct k: repeats give no slope to fit
    with pytest.raises(ValueError):
        rate_fit([(64, 1.0 / 64)] * 5)
    with pytest.raises(ValueError):
        rate_fit([(1, 1.0), (2, 0.5), (3, 0.3), (4, 0.25), (4, 0.25)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rate_fit_rejects_non_finite(bad):
    ks = (1, 2, 3, 4, 5, 6)
    for pairs in ([(bad if k == 3 else k, 1.0 / k) for k in ks],
                  [(k, bad if k == 3 else 1.0 / k) for k in ks]):
        with pytest.raises(ValueError, match="finite"):
            rate_fit(pairs)


def test_truncation_excess_rate():
    model = ProcessModel.frac_noise(0.3)
    pairs = [(k, truncated_one_step_excess(model, k))
             for k in (128, 256, 512, 1024, 2048, 4096)]
    fit = rate_fit(pairs)
    assert -1.05 <= fit.slope <= -0.95
    assert fit.r_squared > 0.9999


def test_fitted_ar_excess_shares_rate():
    model = ProcessModel.frac_noise(0.3)
    pairs = [(k, error_decomposition(model, k).ar_excess)
             for k in (128, 256, 512, 1024, 2048, 4096)]
    fit = rate_fit(pairs)
    assert -1.1 <= fit.slope <= -0.9


def test_infinite_past_gap_rate_in_h():
    from longpred.mse import infinite_past_mse
    from longpred.process import acvf, ma_coeffs

    d = 0.3
    model = ProcessModel.frac_noise(d)
    sigma0 = acvf(model, 0)[0]
    b = ma_coeffs(model, 8191)
    pairs = [(h, sigma0 - infinite_past_mse(b, h).total)
             for h in (64, 128, 256, 512, 1024, 2048, 4096, 8192)]
    fit = rate_fit(pairs)
    assert fit.slope == pytest.approx(2 * d - 1, abs=0.05)
