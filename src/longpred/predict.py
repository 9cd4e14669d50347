"""Finite linear predictors and their application to observed series.

A predictor of ``X_{k+h}`` from observations ``X_1 .. X_k`` is stored as a
weight vector ``w_1 .. w_k`` with the convention

    prediction = sum_{j=1..k} w_j * X_{k+1-j}

so ``w_1`` multiplies the most recent observation.  Two constructions are
supported: the truncated Wiener-Kolmogorov predictor (infinite-past optimal
weights cut off at lag k, extended to horizon h by unrolling its one-step
recursion) and the exact finite-past projection, built in :mod:`longpred.fit`.
Both take coefficient sequences the caller computed once (a_j here, sigma(j)
there) and read the prefix they need; nothing here builds a sequence.  The
h-step weights of one horizon are built from those of every shorter one, so
``truncated_wk_weights_at(ar, k, (1, 2, 5))`` builds one stack up to the
longest horizon and hands back a row per requested h.
The infinite-past predictor has no finite weight vector; its h-step error,
the floor of every error report, is computed in :mod:`longpred.mse` from
b_0..b_{h-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import AR, CoefSeq, _check_kind

__all__ = [
    "TRUNCATED_WK",
    "PROJECTION",
    "PredictorWeights",
    "truncated_wk_weights_at",
    "forecast",
]

TRUNCATED_WK = "truncated_wk"
PROJECTION = "projection"


@dataclass(frozen=True)
class PredictorWeights:
    """Weights w_1..w_k of a finite linear predictor at horizon h.

    ``weights`` is stored as a read-only, C-contiguous float64 copy, so a
    predictor never shares memory with its producer or another predictor.
    """

    weights: np.ndarray
    k: int
    h: int
    method: str

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float, order="C")
        if w.shape != (self.k,):
            raise ValueError(f"expected {self.k} weights, got shape {w.shape}")
        if self.h < 1:
            raise ValueError("horizon must be >= 1")
        if self.method not in (TRUNCATED_WK, PROJECTION):
            raise ValueError(f"unknown predictor method {self.method!r}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def truncated_wk_weights_at(ar: CoefSeq, k: int, horizons) -> tuple[PredictorWeights, ...]:
    """Truncated Wiener-Kolmogorov weights of order k, one vector per h in
    ``horizons``, in that order.

    ``ar`` holds the autoregressive coefficients a_0..a_{max(h)-1+k} (or
    more).  For h = 1 the weights are -a_1..-a_k.  For larger horizons the
    recursive definition

        pred(h) = - sum_{j=1..h-1} a_j pred(h-j) - sum_{j=1..k} a_{h-1+j} X_{k+1-j}

    is unrolled into a single weight vector over X_1..X_k, which allows both
    O(k) forecasting and exact quadratic-form error evaluation.  Horizon g
    reads the vectors of every shorter horizon, so one stack up to max(h)
    serves them all.
    """
    hs = tuple(horizons)
    if k < 1 or not hs or min(hs) < 1:
        raise ValueError("k and every h must be >= 1")
    _check_kind(ar, AR)
    h_max = max(hs)
    a = ar.prefix(h_max - 1 + k)
    stack = np.empty((h_max + 1, k))
    stack[1] = -a[1: k + 1]
    for g in range(2, h_max + 1):
        w = -a[g: g + k].copy()
        for j in range(1, g):
            w -= a[j] * stack[g - j]
        stack[g] = w
    return tuple(PredictorWeights(stack[h], k=k, h=h, method=TRUNCATED_WK) for h in hs)


def forecast(weights: PredictorWeights, observations: np.ndarray) -> float:
    """Apply a weight vector to observations ordered X_1..X_k."""
    obs = np.asarray(observations, dtype=float)
    if obs.shape != (weights.k,):
        raise ValueError(
            f"expected {weights.k} observations, got shape {obs.shape}")
    return float(np.dot(weights.weights, obs[::-1]))
