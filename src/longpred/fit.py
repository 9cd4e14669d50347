"""Yule-Walker fitting and Toeplitz solves.

The order-k Yule-Walker equations

    sum_{i=1..k} phi_i sigma(i - j) = sigma(j),   j = 1..k

define the best linear one-step predictor over k observations.  They are
solved by the Levinson-Durbin recursion in O(k^2).  One kernel runs it:
``levinson_durbin`` takes the predictor and ``solve_toeplitz`` additionally
carries a general right-hand side along, which yields the h-step projection
weights.  A dense solver is deliberately *not* used here so that the test
suite can keep one as an independent oracle.

Two coefficient conventions coexist and are both stored on the result:
``phi`` are predictor weights (prediction = sum phi_j X_{n+1-j}) while
``a_fit = (1, -phi_1, ..., -phi_k)`` is the operator form that compares
directly against the autoregressive coefficients a_j.  Every downstream
formula names which one it consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, NotPositiveDefiniteError
from .predict import PROJECTION, PredictorWeights
from .process import CoefSeq, ProcessModel, acvf as _model_acvf, ar_coeffs
from .special import log_gamma, log_gamma_diff

__all__ = [
    "FittedAr",
    "levinson_durbin",
    "solve_toeplitz",
    "yule_walker",
    "closed_form_ar_fit",
    "closed_form_log_inflation",
    "projection_weights",
]

# Levinson variance iterates below this fraction of the innovation variance
# can only arise from catastrophic rounding; abort rather than return noise.
_VARIANCE_FLOOR_REL = 1e-3


@dataclass(frozen=True)
class FittedAr:
    """Order-k autoregressive fit.

    ``innovation_variance`` is the one-step prediction variance over a
    k-observation span; it is nonincreasing in k and bounded below by the
    model's noise variance.  ``reflections`` holds the partial correlation
    coefficients produced by the recursion (or their closed-form values).
    """

    order: int
    phi: np.ndarray
    a_fit: np.ndarray
    innovation_variance: float
    reflections: np.ndarray | None = None


def _check_variance(v: float, order: int, variance_floor: float) -> None:
    if not v > 0.0:
        raise NotPositiveDefiniteError(
            f"covariance sequence is not positive definite at order {order}")
    if v < variance_floor:
        raise IllConditionedError(
            f"prediction-variance iterate {v:.3e} fell below the precision "
            f"floor {variance_floor:.3e} at order {order}")


def _levinson(t: np.ndarray, variance_floor: float, rhs: np.ndarray | None = None):
    """Levinson-Durbin recursion on sigma(0..) = t, one reflection per lag.

    Returns ``(phi, v, kappa, x)``: the order t.size - 1 predictor, its
    prediction variance, the reflections and, given ``rhs`` as long as ``t``,
    the solution of T x = rhs (T the Toeplitz matrix of t), else None.
    """
    k = t.size if rhs is not None else t.size - 1
    v = float(t[0])
    _check_variance(v, 0, variance_floor)
    phi = np.zeros(k)
    kappa = np.zeros(k)
    x = np.zeros(k) if rhs is not None else None
    for m in range(k):
        prev_rev = phi[m - 1::-1]  # order-m predictor, reversed (unused at m = 0)
        if x is not None:
            mu = (rhs[m] - (np.dot(x[:m], t[m:0:-1]) if m else 0.0)) / v
            if m:
                x[:m] -= mu * prev_rev
            x[m] = mu
        if m + 1 < t.size:
            num = t[m + 1] - (np.dot(phi[:m], t[m:0:-1]) if m else 0.0)
            km = num / v
            kappa[m] = km
            if m:
                phi[:m] -= km * prev_rev
            phi[m] = km
            v = v * (1.0 - km * km)
            _check_variance(v, m + 1, variance_floor)
    return phi, v, kappa, x


def levinson_durbin(acvf_prefix, variance_floor: float = 0.0):
    """Solve the Yule-Walker equations given sigma(0..k).

    Returns ``(phi, innovation_variance, reflections)`` where ``phi`` solves
    sum_i phi_i sigma(i-j) = sigma(j) for j = 1..k.
    """
    t = np.asarray(acvf_prefix, dtype=float)
    if t.size < 2:
        raise ValueError("need sigma(0) and at least sigma(1)")
    phi, v, kappa, _ = _levinson(t, variance_floor)
    return phi, v, kappa


def solve_toeplitz(first_row, rhs, variance_floor: float = 0.0) -> np.ndarray:
    """Solve T x = rhs for symmetric PD Toeplitz T, first row sigma(0..k-1).

    The Levinson recursion carries the solution of the general right-hand
    side along with the predictors of successive orders, in O(k^2).
    """
    t = np.asarray(first_row, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if t.shape != b.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("first_row and rhs must be equal-length 1-d arrays")
    return _levinson(t, variance_floor, b)[3]


def _acvf_values(acvf, n: int) -> tuple[np.ndarray, float]:
    """Accept a CoefSeq or plain array; return (sigma(0..n), variance floor)."""
    if isinstance(acvf, CoefSeq):
        g = acvf.prefix(n)
        return g, _VARIANCE_FLOOR_REL * acvf.model.noise_variance
    g = np.asarray(acvf, dtype=float)
    if g.size < n + 1:
        raise ValueError(f"need sigma(0..{n}), got {g.size} values")
    return g[: n + 1], 0.0


def yule_walker(acvf, k: int) -> FittedAr:
    """Best linear one-step predictor of order k from autocovariances.

    ``acvf`` may be a :class:`~longpred.process.CoefSeq` or any array
    providing sigma(0..k).
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    g, floor = _acvf_values(acvf, k)
    phi, v, kappa = levinson_durbin(g, variance_floor=floor)
    a_fit = np.concatenate([[1.0], -phi])
    return FittedAr(order=k, phi=phi, a_fit=a_fit,
                    innovation_variance=float(v), reflections=kappa)


def closed_form_log_inflation(d: float, k: int) -> np.ndarray:
    """log(a_{j,k} / a_j) for j = 1..k of the fractional-noise fit.

    The fitted operator coefficients inflate the autoregressive ones by the
    factor Gamma(k+1) Gamma(k-d-j+1) / (Gamma(k-j+1) Gamma(k-d+1)) > 1.
    Returning the log lets callers evaluate a_j - a_{j,k} via expm1 without
    cancellation; each Gamma pair goes through the cancellation-free
    log-difference.
    """
    j = np.arange(1, k + 1, dtype=float)
    base = log_gamma_diff(k + 1.0, k - d + 1.0)
    diffs = np.array([log_gamma_diff(k - d - jj + 1.0, k - jj + 1.0) for jj in j])
    return base + diffs


def closed_form_ar_fit(d: float, k: int, noise_variance: float = 1.0) -> FittedAr:
    """Fractional-noise order-k fit in closed form.

    Evaluates a_{j,k} = a_j * exp(inflation) through log-Gamma differences
    and checks the sign property a_j - a_{j,k} > 0 for 1 <= j <= k, which
    the error decomposition relies on.  The innovation variance uses the
    closed-form partial correlations kappa_m = d / (m - d).
    """
    if not 0.0 < d < 0.5:
        raise ValueError("memory parameter d must lie strictly inside (0, 1/2)")
    if k < 1:
        raise ValueError("order k must be >= 1")
    a = ar_coeffs(ProcessModel.frac_noise(d), k).prefix(k)
    infl = closed_form_log_inflation(d, k)
    a_fit = np.concatenate([[1.0], a[1:] * np.exp(infl)])
    diff = -a[1:] * np.expm1(infl)  # a_j - a_{j,k}
    if not np.all(diff > 0.0):  # pragma: no cover - inflation is positive
        raise AssertionError("closed-form fit violated a_j - a_{j,k} > 0")
    m = np.arange(1, k + 1, dtype=float)
    kappa = d / (m - d)
    sigma0 = _model_acvf(ProcessModel.frac_noise(d, noise_variance), 0)[0]
    v = sigma0 * float(np.prod(1.0 - kappa ** 2))
    return FittedAr(order=k, phi=-a_fit[1:], a_fit=a_fit,
                    innovation_variance=v, reflections=kappa)


def projection_weights(acvf, k: int, h: int = 1) -> PredictorWeights:
    """Orthogonal projection of X_{k+h} onto span(X_1..X_k).

    Solves T w = (sigma(h), ..., sigma(h+k-1)) with T the order-k
    autocovariance Toeplitz matrix; for h = 1 the weights coincide with the
    Yule-Walker predictor.
    """
    if k < 1 or h < 1:
        raise ValueError("k and h must be >= 1")
    g, floor = _acvf_values(acvf, k + h - 1)
    if h == 1:
        w, _, _ = levinson_durbin(g[: k + 1], variance_floor=floor)
    else:
        w = solve_toeplitz(g[:k], g[h: h + k], variance_floor=floor)
    return PredictorWeights(w, k=k, h=h, method=PROJECTION)
