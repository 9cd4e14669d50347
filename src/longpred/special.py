"""Cancellation-free log-Gamma differences.

The fitted-AR inflation of :mod:`longpred.fit` needs ratios
Gamma(x) / Gamma(y) with x and y near the fitted order k, where the two
log-Gamma values dwarf their difference.  Every other Gamma value in the
package sits at small arguments and comes straight from ``math.lgamma``.

``log_gamma_diff`` works elementwise and takes libm's scalar ``log`` and
``log1p`` per element on purpose, which keeps the bits of a one-pair call:
numpy's SIMD loops differ from libm by an ulp (on an AVX-512 host,
``np.log`` on 79 of 10^6 arguments in [10, 20000] and ``np.log1p`` on 38520
of 10^6 in [-0.05, 0)).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_gamma_diff"]


# B_{2n} / ((2n)(2n-1)) for n = 1..8: the Stirling-series correction
# ln Gamma(z) = (z - 1/2) ln z - z + ln sqrt(2 pi) + sum c_n z^(1-2n)
_STIRLING_COEF = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)
_PAIR_MIN = 10.0  # Stirling tail below 1e-16 from here on


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    zz = z * z
    s = 0.0
    p = 1.0 / z
    for c in _STIRLING_COEF:
        s += c * p
        p /= zz
    return s


def _libm(f, z: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, z.tolist()), float, z.size)


def log_gamma_diff(x, y):
    """ln Gamma(x) - ln Gamma(y) without forming the two large logs, per
    element: two scalars give a ``float``, arrays their broadcast shape.

    Where x, y >= 10 the difference of Stirling expansions, with libm's
    logs, is rearranged so that nearby arguments never cancel:
    (y - 1/2) log1p((x-y)/y) + (x-y)(ln x - 1) + tail(x) - tail(y).
    Elsewhere each element is plain ``math.lgamma`` subtraction.
    """
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xs, ys = xb.ravel(), yb.ravel()
    out = np.empty(xs.size)
    small = (xs < _PAIR_MIN) | (ys < _PAIR_MIN)
    for i in np.flatnonzero(small):
        out[i] = math.lgamma(xs[i]) - math.lgamma(ys[i])
    xs, ys = xs[~small], ys[~small]
    delta = xs - ys
    out[~small] = ((ys - 0.5) * _libm(math.log1p, delta / ys)
                   + delta * (_libm(math.log, xs) - 1.0)
                   + _stirling_tail(xs) - _stirling_tail(ys))
    return float(out[0]) if np.isscalar(x) and np.isscalar(y) else out.reshape(xb.shape)
