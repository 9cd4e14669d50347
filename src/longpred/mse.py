"""Exact mean-squared prediction errors as finite quadratic forms.

Every production MSE here is a finite computation in the autocovariances:
for a predictor with weights w_1..w_k at horizon h,

    E[(X_{k+h} - sum_j w_j X_{k+1-j})^2]
        = sigma(0) - 2 sum_j w_j sigma(h-1+j) + sum_{j,l} w_j w_l sigma(j-l).

Infinite-series representations of the same quantities survive only as test
oracles with certified remainders.  Each report splits the total into the
method floor (the h-step error given the infinite past, noise_variance *
sum_{l<h} b_l^2) and the excess attributable to truncation or to the finite
observation span.
Reports read sigma(j) and b_j from :class:`~longpred.process.CoefSeq` values
the caller computed once, at the accuracy that built its predictors.  The
quadratic form lag-correlates the weights by ``process._lag_products``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .fit import closed_form_log_inflation
from .predict import PredictorWeights
from .process import (ACVF, FRAC_NOISE, MA, CoefSeq, ProcessModel, _check_kind,
                      _lag_products, acvf, ar_coeffs)

__all__ = [
    "MseReport",
    "ErrorDecomposition",
    "toeplitz_quadratic_form",
    "mse_of_weights",
    "infinite_past_mse",
    "error_decomposition",
]

INFINITE_PAST = "infinite_past"


@dataclass(frozen=True)
class MseReport:
    """Decomposed mean-squared prediction error.

    ``total = floor + excess`` with ``floor`` the infinite-past h-step error
    and ``excess >= 0`` the finite-sample penalty.  ``certified_tol`` carries
    the autocovariances' bound on their dropped series tail only, relative to
    sigma(0): rounding is not covered, and 0 means no tail, not exact.
    """

    total: float
    floor: float
    excess: float
    method: str
    k: int | None
    h: int
    certified_tol: float = 0.0


def _make_report(total: float, floor: float, method: str, k: int | None,
                 h: int, certified_tol: float) -> MseReport:
    excess = total - floor
    if excess < 0.0:
        # the decomposition is exact in exact arithmetic; only rounding can
        # push the excess below zero, and then only at machine scale
        if excess < -1e-12 * max(total, floor):
            raise ArithmeticError(
                f"negative excess {excess:.3e} exceeds rounding tolerance")
        excess = 0.0
    return MseReport(total=float(total), floor=float(floor), excess=float(excess),
                     method=method, k=k, h=h, certified_tol=certified_tol)


def toeplitz_quadratic_form(gamma: np.ndarray, w: np.ndarray) -> float:
    """sum_{j,l} w_j w_l gamma(|j-l|) without forming the Toeplitz matrix.

    Uses the lag autocorrelation of ``w``: the form equals
    c_0 gamma(0) + 2 sum_{m>=1} c_m gamma(m) with c_m = sum_j w_j w_{j+m}.
    """
    w = np.asarray(w, dtype=float)
    k = w.size
    if k == 0:
        return 0.0
    c = _lag_products(w, 1.0, k - 1)
    return float(c[0] * gamma[0] + 2.0 * np.dot(c[1:k], gamma[1:k]))


def _floor(ma: CoefSeq, h: int) -> float:
    _check_kind(ma, MA)
    b = ma.prefix(h - 1)
    return ma.model.noise_variance * float(np.dot(b, b))


def mse_of_weights(acvf: CoefSeq, ma: CoefSeq, weights: PredictorWeights) -> MseReport:
    """Exact MSE of a finite predictor from sigma(0..k+h-1) and b_0..b_{h-1}
    of one model; the report carries ``acvf.certified_tol``."""
    _check_kind(acvf, ACVF)
    if ma.model != acvf.model:
        raise ValueError("the acvf and ma sequences belong to different models")
    k, h = weights.k, weights.h
    g = acvf.prefix(k + h - 1)
    w = weights.weights
    total = g[0] - 2.0 * float(np.dot(w, g[h: h + k])) \
        + toeplitz_quadratic_form(g, w)
    return _make_report(total, _floor(ma, h), weights.method, k, h,
                        acvf.certified_tol)


def infinite_past_mse(ma: CoefSeq, h: int) -> MseReport:
    """h-step error of the optimal predictor given the infinite past, from
    b_0..b_{h-1} in ``ma``."""
    if h < 1:
        raise ValueError("horizon must be >= 1")
    floor = _floor(ma, h)
    return _make_report(floor, floor, INFINITE_PAST, None, h, 0.0)


# ---------------------------------------------------------------------------
# three-term decomposition of the AR(k) excess


@dataclass(frozen=True)
class ErrorDecomposition:
    """Split of the fitted-AR one-step excess for fractional noise.

    With delta_j = a_{j,k} - a_j and S(j) = sum_{l>k} a_l sigma(j-l):

    * ``term_quad``  = sum_{j,l<=k} delta_j (-delta_l) sigma(j-l)   (negative)
    * ``term_cross`` = 2 sum_{j<=k} delta_j S(j)                    (positive)
    * ``term_trunc`` = sum_{j<=k} a_j S(j)                          (negative)

    ``term_trunc`` equals minus the truncation excess, and the three terms
    sum to minus the fitted-AR excess.
    """

    term_quad: float
    term_cross: float
    term_trunc: float
    k: int

    @property
    def ar_excess(self) -> float:
        return -(self.term_quad + self.term_cross + self.term_trunc)

    @property
    def truncation_excess(self) -> float:
        return -self.term_trunc


def error_decomposition(model: ProcessModel, k: int) -> ErrorDecomposition:
    """Exact three-term split of the order-k fitted-AR excess.

    Restricted to fractional noise, whose sign structure makes each term
    single-signed.  The inner sums over lags beyond k reduce exactly to
    finite form through the orthogonality identity
    sum_{l>=0} a_l sigma(l-j) = noise_variance * [j == 0], so no series
    truncation enters; the brute-force tail summation survives as a test
    oracle.
    """
    if model.kind != FRAC_NOISE:
        raise ModelError("error decomposition is defined for fractional noise only")
    if k < 1:
        raise ValueError("order k must be >= 1")
    a = ar_coeffs(model, k).prefix(k)
    g = acvf(model, k).prefix(k)
    # delta_j = a_{j,k} - a_j = a_j expm1(log inflation), no cancellation
    delta = np.concatenate([[0.0], a[1:] * np.expm1(closed_form_log_inflation(model.d, k))])
    # S(j) = noise_variance [j=0] - sum_{l=0..k} a_l sigma(|l-j|)
    g_sym = np.concatenate([g[:0:-1], g])          # lags -k..k
    s = -np.convolve(a, g_sym, mode="valid")       # -(Toeplitz(sigma) a)_j
    s[0] += model.noise_variance
    term_quad = -toeplitz_quadratic_form(g, delta[1:])
    term_cross = 2.0 * float(np.dot(delta[1:], s[1:]))
    term_trunc = float(np.dot(a, s))
    if not (term_quad <= 0.0 and term_cross >= 0.0 and term_trunc <= 0.0):
        raise ArithmeticError(
            "decomposition violated its sign pattern "
            f"({term_quad:.3e}, {term_cross:.3e}, {term_trunc:.3e})")
    return ErrorDecomposition(term_quad=term_quad, term_cross=term_cross,
                              term_trunc=term_trunc, k=k)
