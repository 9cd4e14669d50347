"""Yule-Walker fitting and Toeplitz solves.

The order-k Yule-Walker equations

    sum_{i=1..k} phi_i sigma(i - j) = sigma(j),   j = 1..k

define the best linear one-step predictor over k observations.  They are
solved by the Levinson-Durbin recursion in O(k^2).  One kernel runs it:
``levinson_durbin`` takes the predictor and ``solve_toeplitz`` additionally
carries one or many general right-hand sides along, which yields the h-step
projection weights.  Every horizon shares the matrix, so
``projection_weights_at(acvf, k, (1, 2, 5))`` computes the reflections once
for every h (the h = 1 weights are the order-k predictor), and each
horizon's weights carry the same bits as a solve for that horizon alone.
A dense solver is deliberately *not* used here so that the test suite can
keep one as an independent oracle.
``yule_walker`` and ``projection_weights_at`` take a computed
:class:`~longpred.process.CoefSeq`, whose model's noise variance sets the
precision floor of the variance iterates; plain arrays go to the two
kernels with an explicit floor.

Two coefficient conventions coexist and are both stored on the result:
``phi`` are predictor weights (prediction = sum phi_j X_{n+1-j}) while
``a_fit = (1, -phi_1, ..., -phi_k)`` is the operator form that compares
directly against the autoregressive coefficients a_j.  Every downstream
formula names which one it consumes.

For fractional noise the fit is also known in closed form.
``closed_form_log_inflation`` gives log(a_{j,k} / a_j), which the error
decomposition in :mod:`longpred.mse` uses; the whole closed-form fit is a
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, NotPositiveDefiniteError
from .predict import PROJECTION, PredictorWeights
from .process import ACVF, CoefSeq, _check_kind
from .special import log_gamma_diff

__all__ = [
    "FittedAr",
    "levinson_durbin",
    "solve_toeplitz",
    "yule_walker",
    "closed_form_log_inflation",
    "projection_weights_at",
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
    coefficients produced by the recursion.
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


def _levinson(t: np.ndarray, variance_floor: float, rhs: np.ndarray):
    """Levinson-Durbin recursion on sigma(0..) = t, one reflection per lag.

    Returns ``(phi, v, kappa, x)``: the order t.size - 1 predictor, its
    prediction variance, the reflections and the H solutions of T x = rhs[c]
    (``rhs`` of shape (H, n), T the order-n Toeplitz matrix of t) as the rows
    of ``x``.  The loop runs over n orders, so with n = t.size - 1 the
    predictor reaches order n (variance check included) and with n = t.size
    it stops at order n - 1.  At every order one ``np.vecdot`` call gives
    each row the bits of its own ``np.dot``, so each row carries exactly the
    bits of a one-row solve.  The predictor update scales phi into ``scaled``
    on unit strides and subtracts that buffer read reversed: the same
    products and differences as ``phi - km * phi[::-1]``.
    """
    k = rhs.shape[1]
    v = float(t[0])
    _check_variance(v, 0, variance_floor)
    t_rev = t[::-1].copy()
    phi = np.zeros(k)
    scaled = np.empty(k)
    kappa = np.zeros(k)
    x = np.zeros(rhs.shape)
    for m in range(k):
        prev_rev = phi[m - 1::-1]  # order-m predictor, reversed (unused at m = 0)
        lags = t_rev[t.size - 1 - m: t.size - 1]  # sigma(m), ..., sigma(1)
        if len(x):  # with no rows, only the predictor runs
            mu = (rhs[:, m] - np.vecdot(x[:, :m], lags)) / v
            if m:
                x[:, :m] -= mu[:, None] * prev_rev
            x[:, m] = mu
        if m + 1 < t.size:
            km = (t[m + 1] - np.dot(phi[:m], lags)) / v
            kappa[m] = km
            if m:
                np.multiply(phi[:m], km, out=scaled[:m])
                np.subtract(phi[:m], scaled[m - 1::-1], out=phi[:m])
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
    phi, v, kappa, _ = _levinson(t, variance_floor, np.empty((0, t.size - 1)))
    return phi, v, kappa


def solve_toeplitz(first_row, rhs, variance_floor: float = 0.0) -> np.ndarray:
    """Solve T x = rhs for symmetric PD Toeplitz T, first row sigma(0..k-1).

    ``rhs`` is one right-hand side of length k or an (H, k) array of H of
    them; the solutions come back in the same shape.  The Levinson recursion
    carries every solution along with the predictors of successive orders,
    in O(H k^2) with the reflections computed once.
    """
    t = np.asarray(first_row, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if t.ndim != 1 or t.size == 0 or b.ndim not in (1, 2) or b.shape[-1] != t.size:
        raise ValueError("first_row must be a nonempty 1-d array and rhs an "
                         "array of one or more rows of its length")
    return _levinson(t, variance_floor, b.reshape(-1, t.size))[3].reshape(b.shape)


def _acvf_values(acvf: CoefSeq, n: int) -> tuple[np.ndarray, float]:
    """sigma(0..n) of a computed sequence and its Levinson variance floor."""
    _check_kind(acvf, ACVF)
    if len(acvf) < n + 1:
        raise ValueError(f"need sigma(0..{n}), got {len(acvf)} values")
    return acvf.prefix(n), _VARIANCE_FLOOR_REL * acvf.model.noise_variance


def yule_walker(acvf: CoefSeq, k: int) -> FittedAr:
    """Best linear one-step predictor of order k from the autocovariances
    sigma(0..k) (or more) of a model."""
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
    cancellation; the Gamma pairs go through the cancellation-free
    log-difference, all k j-dependent ones in one array call.
    """
    j = np.arange(1, k + 1, dtype=float)
    return log_gamma_diff(k + 1.0, k - d + 1.0) + log_gamma_diff(k - d - j + 1.0, k - j + 1.0)


def projection_weights_at(acvf: CoefSeq, k: int, horizons) -> tuple[PredictorWeights, ...]:
    """Orthogonal projections of X_{k+h} onto span(X_1..X_k), one per h in
    ``horizons``, in that order.

    Each solves T w = (sigma(h), ..., sigma(h+k-1)) with T the order-k
    autocovariance Toeplitz matrix, read from ``acvf`` (at least
    sigma(0..k+max(h)-1)).  One Levinson pass serves every horizon: the
    h >= 2 weights are its right-hand-side solutions, and when h = 1 is
    asked for the predictor runs on to order k, variance check included,
    and is the h = 1 row (the Yule-Walker predictor).
    """
    hs = tuple(horizons)
    if k < 1 or not hs or min(hs) < 1:
        raise ValueError("k and every h must be >= 1")
    g, floor = _acvf_values(acvf, k + max(hs) - 1)
    longer = sorted(set(hs) - {1})
    rhs = np.array([g[h: h + k] for h in longer]).reshape(-1, k)
    phi, _, _, x = _levinson(g[: k + (1 in hs)], floor, rhs)
    rows = dict(zip(longer, x))
    if 1 in hs:
        rows[1] = phi
    return tuple(PredictorWeights(rows[h], k=k, h=h, method=PROJECTION) for h in hs)
