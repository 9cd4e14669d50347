"""Cancellation-free log-Gamma differences.

The fitted-AR inflation of :mod:`longpred.fit` needs ratios
Gamma(x) / Gamma(y) with x and y near the fitted order k, where the two
log-Gamma values dwarf their difference.  Every other Gamma value in the
package sits at small arguments and comes straight from ``math.lgamma``.
"""

from __future__ import annotations

import math

__all__ = ["log_gamma_diff"]


# B_{2n} / ((2n)(2n-1)) for n = 1..8: the Stirling-series correction
# ln Gamma(z) = (z - 1/2) ln z - z + ln sqrt(2 pi) + sum c_n z^(1-2n)
_STIRLING_COEF = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)
_PAIR_MIN = 10.0  # Stirling tail below 1e-16 from here on


def _stirling_tail(z: float) -> float:
    zz = z * z
    s = 0.0
    p = 1.0 / z
    for c in _STIRLING_COEF:
        s += c * p
        p /= zz
    return s


def log_gamma_diff(x: float, y: float) -> float:
    """ln Gamma(x) - ln Gamma(y) without forming the two large logs.

    For x, y >= 10 the difference of Stirling expansions is rearranged so
    that nearby arguments never cancel:
    (y - 1/2) log1p((x-y)/y) + (x-y)(ln x - 1) + tail(x) - tail(y).
    Elsewhere it falls back to plain ``math.lgamma`` subtraction.
    """
    if x < _PAIR_MIN or y < _PAIR_MIN:
        return math.lgamma(x) - math.lgamma(y)
    delta = x - y
    return ((y - 0.5) * math.log1p(delta / y) + delta * (math.log(x) - 1.0)
            + _stirling_tail(x) - _stirling_tail(y))
