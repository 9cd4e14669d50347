"""Statistical gate for the samplers (Wood & Chan 1994).

A change to a sampler that moves Monte-Carlo bytes has no golden to meet,
only a distribution.  This gate scores both predictors at k = 50 and
h in {1, 5} on 200 fixed seeds of 400 replications each, and standardises
each sample mean by its analytic standard error: the forecast error of an
exact Gaussian path is N(0, MSE), so its square has variance 2 MSE^2 and

    z_a = (mean - MSE) / (MSE sqrt(2 / reps))

has mean 0 and variance 1 (the empirical standard error would track the
skewed mean and bias z low).  Each column of 200 z_a values must keep its
mean, its variance and its share of |z_a| > 3 inside bounds set around the
values the circulant sampler gives today; two wrong models must fail it.
MA truncation meets the same bounds on its three model_zoo models.
"""

import math

import numpy as np
import pytest

from longpred.fit import projection_weights_at
from longpred.mse import mse_of_weights
from longpred.predict import truncated_wk_weights_at
from longpred.process import ProcessModel, acvf, ar_coeffs, ma_coeffs
from longpred.sim import CIRCULANT_EMBEDDING, MA_TRUNCATION, SimulationPlan, empirical_mses

K, HORIZONS, REPS = 50, (1, 5), 400
SEEDS = range(200)
COLUMNS = ("truncated_wk h=1", "truncated_wk h=5", "projection h=1", "projection h=5")

# Measured over the seven models below: column means -0.051..0.020, variances
# 0.765..1.153, shares of |z_a| > 3 at most 0.010 (2 of 200 seeds).  The
# standard error of a column mean over 200 seeds is about 0.07 and of a
# variance about 0.1, so each bound sits 2-4 standard errors out.  MA
# truncation on its three models gave means -0.115..-0.003, variances
# 0.855..0.945 and no |z_a| > 3; its h = 1 columns agree across the three to
# three digits, since each one-step error is about the one innovation that
# the same normals give every model.
MEAN_BOUND = 0.2
VARIANCE_RANGE = (0.6, 1.4)
TAIL_SHARE_BOUND = 0.03

MODELS = {
    "frac_noise_0.1": ProcessModel.frac_noise(0.1),
    "frac_noise_0.3": ProcessModel.frac_noise(0.3),
    "frac_noise_0.45": ProcessModel.frac_noise(0.45),
    "farima_0.3_ar0.5_ma0.3": ProcessModel.farima(0.3, ar=(0.5,), ma=(0.3,)),
    # its minimal embeddings (100 and 108) have negative eigenvalues, so
    # both grow, to 200 and 216
    "farima_0.45_ma0.9": ProcessModel.farima(0.45, ma=(0.9,)),
    "arma_ar0.9": ProcessModel.arma(ar=(0.9,)),
    "finite_ma_4": ProcessModel.generic_ma((1.0, 0.2, -0.15, 0.1, -0.05)),
}


def z_columns(model, drawn=None, method=CIRCULANT_EMBEDDING):
    """z_a of each predictor column (in ``COLUMNS`` order) per seed, scored
    against ``model`` on paths ``method`` draws from ``drawn`` (``model`` by
    default)."""
    g = acvf(model, K + max(HORIZONS))
    weights = (truncated_wk_weights_at(ar_coeffs(model, K + max(HORIZONS) - 1), K, HORIZONS)
               + projection_weights_at(g, K, HORIZONS))
    mse = np.array([mse_of_weights(g, ma_coeffs(model, w.h - 1), w).total for w in weights])
    means = np.array([[est.mean for est in empirical_mses(
        SimulationPlan(drawn or model, length=1, replications=REPS, seed=seed, method=method),
        weights)]
        for seed in SEEDS])
    return (means - mse) / (mse * math.sqrt(2.0 / REPS))


def gate_failures(z):
    """The bounds each column of ``z`` breaks, as readable strings."""
    failures = []
    for name, col in zip(COLUMNS, z.T):
        mean, var = float(np.mean(col)), float(np.var(col, ddof=1))
        share = float(np.mean(np.abs(col) > 3.0))
        if abs(mean) > MEAN_BOUND:
            failures.append(f"{name}: mean {mean:.3f}")
        if not VARIANCE_RANGE[0] <= var <= VARIANCE_RANGE[1]:
            failures.append(f"{name}: variance {var:.3f}")
        if share > TAIL_SHARE_BOUND:
            failures.append(f"{name}: share of |z| > 3 {share:.3f}")
    return failures


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_circulant_sampler_passes_the_gate(model):
    assert gate_failures(z_columns(model)) == []


# model_zoo's MA-truncation models: a first-order AR, a finite MA, white noise
MA_MODELS = {
    "arma_ar0.9": MODELS["arma_ar0.9"],
    "finite_ma_4": MODELS["finite_ma_4"],
    "white_noise": ProcessModel.white_noise(),
}


@pytest.mark.parametrize("model", MA_MODELS.values(), ids=MA_MODELS.keys())
def test_ma_truncation_sampler_passes_the_gate(model):
    assert gate_failures(z_columns(model, method=MA_TRUNCATION)) == []


def test_gate_catches_a_two_percent_noise_variance_error():
    # column means of about +0.25 to +0.30, past the 0.2 bound
    failures = gate_failures(z_columns(ProcessModel.frac_noise(0.3),
                                       drawn=ProcessModel.frac_noise(0.3, noise_variance=1.02)))
    assert failures and all(": mean " in f for f in failures)


def test_gate_catches_a_wrong_memory_parameter():
    # paths with d = 0.40 scored as d = 0.45: the h = 5 column means fall
    # to about -1.6 (truncated) and -1.1 (projection)
    failures = gate_failures(z_columns(ProcessModel.frac_noise(0.45),
                                       drawn=ProcessModel.frac_noise(0.40)))
    assert {"truncated_wk h=5", "projection h=5"} <= {f.split(":")[0] for f in failures}
