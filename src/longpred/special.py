"""Log-domain Gamma-function kernels.

Every closed-form coefficient in this package is a ratio of Gamma values.
Near the upper end of the memory-parameter range those Gamma values overflow
or underflow double precision long before the *ratio* does, so all arithmetic
here stays in (log magnitude, sign) space and only the final result is
materialized.

The sign is tracked separately because several sequences of interest
(autoregressive coefficients, alternating Gamma factors on the negative axis)
have a sign structure that downstream checks rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import PoleError

__all__ = ["SignedLogValue", "log_gamma", "gamma_ratio"]


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as ``sign * exp(log_magnitude)``.

    ``sign`` is -1, 0 or +1; when it is 0 the value is exactly zero and
    ``log_magnitude`` is ignored.
    """

    log_magnitude: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")

    def value(self) -> float:
        """Materialize to a float; may overflow to inf for huge magnitudes."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


def _gamma_sign(x: float) -> int:
    # Gamma is positive on (0, inf) and alternates sign on the unit
    # intervals of the negative axis: sign = (-1)^ceil(-x) for x < 0.
    if x > 0.0:
        return 1
    return -1 if math.ceil(-x) % 2 else 1


def log_gamma(x: float) -> SignedLogValue:
    """ln|Gamma(x)| together with the sign of Gamma(x).

    Raises :class:`PoleError` when ``x`` is a non-positive integer.
    """
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"Gamma has a pole at {x}")
    return SignedLogValue(math.lgamma(x), _gamma_sign(x))


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
    Elsewhere it falls back to plain log-Gamma subtraction.
    """
    if x == y:
        return 0.0
    if x < _PAIR_MIN or y < _PAIR_MIN:
        return log_gamma(x).log_magnitude - log_gamma(y).log_magnitude
    delta = x - y
    return ((y - 0.5) * math.log1p(delta / y) + delta * (math.log(x) - 1.0)
            + _stirling_tail(x) - _stirling_tail(y))


def gamma_ratio(num: Iterable[float], den: Iterable[float]) -> SignedLogValue:
    """prod Gamma(num_i) / prod Gamma(den_j), evaluated entirely in log space.

    No individual Gamma value is ever materialized, so ratios whose factors
    would overflow (large arguments, memory parameter near 1/2) stay exact
    to working precision.  Large numerator and denominator arguments are
    paired off and evaluated through :func:`log_gamma_diff`, which keeps the
    ratio accurate when the individual log-Gamma values dwarf their
    difference.
    """
    big_num = sorted(x for x in num if x >= _PAIR_MIN)
    big_den = sorted(x for x in den if x >= _PAIR_MIN)
    log_mag, sign = 0.0, 1
    while big_num and big_den:
        log_mag += log_gamma_diff(big_num.pop(), big_den.pop())
    for x in num:
        if x < _PAIR_MIN:
            g = log_gamma(x)
            log_mag += g.log_magnitude
            sign *= g.sign
    for x in big_num:
        log_mag += log_gamma(x).log_magnitude
    for x in den:
        if x < _PAIR_MIN:
            g = log_gamma(x)
            log_mag -= g.log_magnitude
            sign *= g.sign
    for x in big_den:
        log_mag -= log_gamma(x).log_magnitude
    return SignedLogValue(log_mag, sign)
