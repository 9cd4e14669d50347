"""Finite linear predictors and their application to observed series.

A predictor of ``X_{k+h}`` from observations ``X_1 .. X_k`` is stored as a
weight vector ``w_1 .. w_k`` with the convention

    prediction = sum_{j=1..k} w_j * X_{k+1-j}

so ``w_1`` multiplies the most recent observation.  Two constructions are
supported: the truncated Wiener-Kolmogorov predictor (infinite-past optimal
weights cut off at lag k, extended to horizon h by unrolling its one-step
recursion) and the exact finite-past projection, built in :mod:`longpred.fit`.
Both take coefficient sequences the caller computed once (a_j here, sigma(j)
there) and read the prefix they need; nothing here builds a sequence.
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
    "truncated_wk_weights",
    "forecast",
]

TRUNCATED_WK = "truncated_wk"
PROJECTION = "projection"


@dataclass(frozen=True)
class PredictorWeights:
    """Weights w_1..w_k of a finite linear predictor at horizon h."""

    weights: np.ndarray
    k: int
    h: int
    method: str

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.k,):
            raise ValueError(f"expected {self.k} weights, got shape {w.shape}")
        if self.h < 1:
            raise ValueError("horizon must be >= 1")
        if self.method not in (TRUNCATED_WK, PROJECTION):
            raise ValueError(f"unknown predictor method {self.method!r}")
        object.__setattr__(self, "weights", w)


def truncated_wk_weights(ar: CoefSeq, k: int, h: int = 1) -> PredictorWeights:
    """Truncated Wiener-Kolmogorov weights of order k at horizon h.

    ``ar`` holds the autoregressive coefficients a_0..a_{h-1+k} (or more).
    For h = 1 the weights are -a_1..-a_k.  For larger horizons the
    recursive definition

        pred(h) = - sum_{j=1..h-1} a_j pred(h-j) - sum_{j=1..k} a_{h-1+j} X_{k+1-j}

    is unrolled into a single weight vector over X_1..X_k, which allows both
    O(k) forecasting and exact quadratic-form error evaluation.
    """
    if k < 1 or h < 1:
        raise ValueError("k and h must be >= 1")
    _check_kind(ar, AR)
    a = ar.prefix(h - 1 + k)
    stack = np.empty((h + 1, k))
    stack[1] = -a[1: k + 1]
    for g in range(2, h + 1):
        w = -a[g: g + k].copy()
        for j in range(1, g):
            w -= a[j] * stack[g - j]
        stack[g] = w
    return PredictorWeights(stack[h], k=k, h=h, method=TRUNCATED_WK)


def forecast(weights: PredictorWeights, observations: np.ndarray) -> float:
    """Apply a weight vector to observations ordered X_1..X_k."""
    obs = np.asarray(observations, dtype=float)
    if obs.shape != (weights.k,):
        raise ValueError(
            f"expected {weights.k} observations, got shape {obs.shape}")
    return float(np.dot(weights.weights, obs[::-1]))
