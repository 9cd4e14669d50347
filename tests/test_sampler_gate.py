"""Statistical gate for the samplers (Wood & Chan 1994).

A change to a sampler that moves Monte-Carlo bytes has no golden to meet,
only a distribution.  This gate scores both predictors at k = 50 and
h in {1, 5} on 200 fixed seeds of 400 replications each, and standardises
each sample mean by its analytic standard error: the forecast error of an
exact Gaussian path is N(0, MSE), so its square has variance 2 MSE^2 and

    z_a = (mean - MSE) / (MSE sqrt(2 / reps))

has mean 0 and variance 1 (the empirical standard error would track the
skewed mean and bias z low).

The totals barely see the excess the paper is about, so two more columns
score it directly.  With delta = (w_wk - w_proj) . (X_k..X_1), the
projection error is orthogonal to the last k observations, so
E[delta^2] = D = (w_wk - w_proj)' T (w_wk - w_proj) = T_h - A_h, the gap
between the two predictors' errors; delta is Gaussian, so its mean square
is standardised by D sqrt(2 / reps) in the same way.  A model gets these
columns only where D >= 1e-6 sigma(0) at h = 1: an AR(1) and a finite MA
give T = A to rounding.

Each column of 200 z values must keep its mean, its variance and its share
of |z| > 3 inside bounds set around the values the circulant sampler gives
today; two wrong models must fail it.  MA truncation meets the same bounds
on its three model_zoo models and on an ARMA whose MA root nears the unit
circle.
"""

import math

import numpy as np
import pytest

from longpred.fit import projection_weights_at
from longpred.mse import mse_of_weights
from longpred.predict import truncated_wk_weights_at
from longpred.process import ProcessModel, acvf, ar_coeffs, ma_coeffs
from longpred.sim import CIRCULANT_EMBEDDING, MA_TRUNCATION, SimulationPlan, empirical_mses

from _oracles import dense_quadratic_form

K, HORIZONS, REPS = 50, (1, 5), 400
SEEDS = range(200)
COLUMNS = ("truncated_wk h=1", "truncated_wk h=5", "projection h=1", "projection h=5",
           "delta h=1", "delta h=5")
DELTA_FLOOR = 1e-6  # D / sigma(0) at h = 1 below which a model has no delta columns

# Measured over the eight models below: column means -0.051..0.028, variances
# 0.765..1.153, shares of |z_a| > 3 at most 0.010 (2 of 200 seeds).  The
# standard error of a column mean over 200 seeds is about 0.07 and of a
# variance about 0.1, so each bound sits 2-4 standard errors out.  MA
# truncation on its four models gave means -0.115..-0.003, variances
# 0.855..0.950 and at most 2 |z_a| > 3; its h = 1 columns agree across
# model_zoo's three to three digits, since each one-step error is about the
# one innovation that the same normals give every model.  The delta columns
# gave means 0.007..0.132 and variances 1.073..1.105 on the circulant sampler
# (the three fractional noises and farima_0.3_ar0.5_ma0.3 at 0.110..0.132,
# drawn from the same normals), 0.172 and 1.074 on MA truncation, and at
# most 1 |z| > 3.
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
    # the AR series decays as 0.9^j, so D = 2.5e-6 sigma(0) at h = 1
    "arma_ar0.5_ma-0.9": ProcessModel.arma(ar=(0.5,), ma=(-0.9,)),
}
# D = T_h - A_h is rounding here (4e-30 sigma(0) for ar 0.9, 0 for white noise)
NO_GAP = {"arma_ar0.9", "finite_ma_4", "white_noise"}


def z_columns(model, drawn=None, method=CIRCULANT_EMBEDDING):
    """z of each column (in ``COLUMNS`` order, the delta columns only where
    D clears ``DELTA_FLOOR``) per seed, scored against ``model`` on paths
    ``method`` draws from ``drawn`` (``model`` by default).  delta is taken
    on the rows the h = 5 columns are scored on, which hold X_1..X_k too."""
    g = acvf(model, K + max(HORIZONS))
    wk = truncated_wk_weights_at(ar_coeffs(model, K + max(HORIZONS) - 1), K, HORIZONS)
    proj = projection_weights_at(g, K, HORIZONS)
    weights = wk + proj
    mse = np.array([mse_of_weights(g, ma_coeffs(model, w.h - 1), w).total for w in weights])
    diff = np.array([a.weights - b.weights for a, b in zip(wk, proj)])
    gap = np.array([dense_quadratic_form(g, w) for w in diff])
    # D is the difference of the two totals, up to their rounding (measured
    # at most 1.1e-14 sigma(0))
    assert np.all(np.abs(gap - (mse[:2] - mse[2:])) <= 1e-13 * g[0])
    if gap[0] < DELTA_FLOOR * g[0]:
        diff, gap = diff[:0], gap[:0]
    paths = np.empty((REPS, K + max(HORIZONS)))
    z = []
    for seed in SEEDS:
        ests = empirical_mses(SimulationPlan(drawn or model, length=1, replications=REPS,
                                             seed=seed, method=method), weights, paths)
        delta_sq = np.mean((paths[:, :K][:, ::-1] @ diff.T) ** 2, axis=0)
        z.append(np.concatenate([(np.array([e.mean for e in ests]) - mse) / mse,
                                 (delta_sq - gap) / gap]))
    return np.array(z) / math.sqrt(2.0 / REPS)


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


@pytest.mark.parametrize("name", MODELS)
def test_circulant_sampler_passes_the_gate(name):
    z = z_columns(MODELS[name])
    assert z.shape[1] == len(COLUMNS) - 2 * (name in NO_GAP)
    assert gate_failures(z) == []


# model_zoo's MA-truncation models: a first-order AR, a finite MA, white
# noise; and an ARMA with a gap between the two predictors
MA_MODELS = {
    "arma_ar0.9": MODELS["arma_ar0.9"],
    "finite_ma_4": MODELS["finite_ma_4"],
    "white_noise": ProcessModel.white_noise(),
    "arma_ar0.5_ma-0.9": MODELS["arma_ar0.5_ma-0.9"],
}


@pytest.mark.parametrize("name", MA_MODELS)
def test_ma_truncation_sampler_passes_the_gate(name):
    z = z_columns(MA_MODELS[name], method=MA_TRUNCATION)
    assert z.shape[1] == len(COLUMNS) - 2 * (name in NO_GAP)
    assert gate_failures(z) == []


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
