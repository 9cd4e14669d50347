"""Asymptotic constants and empirical rate diagnostics.

The truncation excess of fractional noise decays like ``constant / k``; this
module provides the closed-form constant, the improvement ratio of the
fitted-AR predictor over plain truncation, and a log-log rate fitter used to
verify the O(1/k) claims empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ModelError
from .mse import error_decomposition
from .process import ProcessModel

__all__ = ["RateFit", "truncation_constant", "improvement_ratio", "rate_fit"]


def truncation_constant(d: float) -> float:
    """Limit of k * (one-step truncation excess) for unit-variance
    fractional noise with memory parameter d.

    Closed form: 2 Gamma(1-2d) Gamma(2d) / (Gamma(-d)^2 Gamma(d) Gamma(1+d)).
    The leading factor 2 comes from the two symmetric off-diagonal halves of
    the tail double sum; the diagonal contributes at a strictly smaller
    order.  Consistency checks: the constant behaves like d^2 as d -> 0 and
    diverges like 1 / ((1-2d) pi^2) as d -> 1/2.
    """
    if not 0.0 < d < 0.5:
        raise ModelError("memory parameter d must lie strictly inside (0, 1/2)")
    # ln|Gamma(-d)| is subtracted twice (the square is positive), not doubled:
    # this summation order keeps the last bits of every output
    lg = math.lgamma
    return 2.0 * math.exp(lg(1.0 - 2.0 * d) + lg(2.0 * d) - lg(-d) - lg(-d)
                          - lg(d) - lg(1.0 + d))


def improvement_ratio(d: float, k: int) -> float:
    """Fraction of the truncation excess removed by fitting AR(k) instead.

    Computed from the three-term excess decomposition as
    (term_quad + term_cross) / truncation_excess, which avoids subtracting
    two nearly equal error totals at large k.  Lies in [0, 1] and equals
    (excess_trunc - excess_ar) / excess_trunc.
    """
    dec = error_decomposition(ProcessModel.frac_noise(d), k)
    return (dec.term_quad + dec.term_cross) / dec.truncation_excess


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit value ~ k^slope on log-log scale."""

    slope: float
    intercept: float
    r_squared: float
    grid: tuple[tuple[float, float], ...]


def rate_fit(values: Iterable[Sequence[float]]) -> RateFit:
    """Fit log(value) against log(k) over a grid of (k, value) pairs.

    Requires at least 5 distinct k and finite, strictly positive k and values.
    """
    grid = tuple((float(k), float(v)) for k, v in values)
    if len({k for k, _ in grid}) < 5:
        raise ValueError("need at least 5 distinct k for a rate fit")
    arr = np.asarray(grid)
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise ValueError("rate fit requires finite, strictly positive k and values")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, grid=grid)
