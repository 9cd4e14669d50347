"""Yule-Walker fitting and Toeplitz solves.

The order-k Yule-Walker equations

    sum_{i=1..k} phi_i sigma(i - j) = sigma(j),   j = 1..k

define the best linear one-step predictor over k observations.  They are
solved by the Levinson-Durbin recursion in O(k^2).  One kernel runs it:
``levinson_durbin`` takes the predictor, and ``projection_weights_at``
additionally carries general right-hand sides along, which yields the h-step
projection weights.  Every horizon shares the matrix, so
``projection_weights_at(acvf, k, (1, 2, 5))`` computes the reflections once
for every h (the h = 1 weights are the order-k predictor), and each
horizon's weights carry the same bits as a solve for that horizon alone.
A dense solver is deliberately *not* used here so that the test suite can
keep one as an independent oracle.  The recursion sums its dot products in
one fixed order on the calling thread (``_dot``), so its outputs do not
depend on the BLAS thread count.
``yule_walker`` and ``projection_weights_at`` take a computed
:class:`~longpred.process.CoefSeq`, whose model's noise variance sets the
precision floor of the variance iterates; a plain array goes to
``levinson_durbin`` with an explicit floor.

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
    "yule_walker",
    "closed_form_log_inflation",
    "projection_weights_at",
]

# Levinson variance iterates below this fraction of the innovation variance
# can only arise from catastrophic rounding; abort rather than return noise.
_VARIANCE_FLOOR_REL = 1e-3

# OpenBLAS runs a dot product of more terms than this on two threads
_BLAS_SPLIT = 10_000


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


def _dot(a: np.ndarray, b: np.ndarray):
    """``np.dot(a, b)``, or ``np.vecdot(a, b)`` row by row for a 2-d ``a``,
    summed in one fixed order on the calling thread.

    OpenBLAS hands a dot of more than ``_BLAS_SPLIT`` terms to a second
    thread, which sums the last half apart, so the bits of a long
    ``np.dot`` depend on the BLAS thread count, and each call pays a thread
    handoff.  Here n > ``_BLAS_SPLIT`` terms are summed as
    ``(0.0 + dot(first ceil(n/2))) + dot(rest)``, each half split again
    while it is that long.  On numpy 2.4.6 with OpenBLAS 0.3.31 that is the
    two-thread order, bit for bit, up to n = 2 * ``_BLAS_SPLIT`` + 1.
    """
    n = b.size
    if n > _BLAS_SPLIT:
        h = (n + 1) // 2
        return (0.0 + _dot(a[..., :h], b[:h])) + _dot(a[..., h:], b[h:])
    return np.dot(a, b) if a.ndim == 1 else np.vecdot(a, b)


def _levinson(t: np.ndarray, variance_floor: float, rhs: np.ndarray):
    """Levinson-Durbin recursion on sigma(0..) = t, one reflection per lag.

    Returns ``(phi, v, kappa, x)``: the order t.size - 1 predictor, its
    prediction variance, the reflections and the H solutions of T x = rhs[c]
    (``rhs`` of shape (H, n), T the order-n Toeplitz matrix of t) as the rows
    of ``x``.  The loop runs over n orders, so with n = t.size - 1 the
    predictor reaches order n (variance check included) and with n = t.size
    it stops at order n - 1.  Both dots go through ``_dot``, so the outputs
    do not depend on the BLAS thread count.  Its one 2-d call per order gives
    each row the bits of its own 1-d call, so each row carries exactly the
    bits of a one-row solve.  The predictor's scalars (sigma(m + 1), its dot,
    the reflection and the variance) are Python floats: the same IEEE
    operations as on numpy scalars, at less cost per order.  The predictor
    update scales phi into ``scaled`` on unit strides and subtracts that
    buffer read reversed: the same products and differences as
    ``phi - km * phi[::-1]``.
    """
    k = rhs.shape[1]
    v = float(t[0])
    _check_variance(v, 0, variance_floor)
    t_rev = t[::-1].copy()
    sigma = t.tolist()
    phi = np.zeros(k)
    scaled = np.empty(k)
    kappa = np.zeros(k)
    x = np.zeros(rhs.shape)
    for m in range(k):
        lags = t_rev[t.size - 1 - m: t.size - 1]  # sigma(m), ..., sigma(1)
        head = phi[:m]  # the order-m predictor
        if len(x):  # with no rows, only the predictor runs
            mu = (rhs[:, m] - _dot(x[:, :m], lags)) / v
            if m:
                x[:, :m] -= mu[:, None] * head[::-1]
            x[:, m] = mu
        if m + 1 < t.size:
            km = (sigma[m + 1] - float(_dot(head, lags))) / v
            kappa[m] = km
            if m:
                np.multiply(head, km, out=scaled[:m])
                np.subtract(head, scaled[m - 1::-1], out=head)
            phi[m] = km
            v = v * (1.0 - km * km)
            if not (v > 0.0 and v >= variance_floor):
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
