"""Process models and their coefficient sequences.

A zero-mean weakly stationary process is described here through three
sequences:

* ``b_j``: moving-average coefficients, ``X_t = sum_j b_j e_{t-j}`` (b_0 = 1),
* ``a_j``: autoregressive coefficients, ``e_t = sum_j a_j X_{t-j}`` (a_0 = 1),
* ``sigma(j)``: the autocovariance function,

where ``e_t`` is white noise with variance ``noise_variance``.

Three model kinds are supported:

* fractionally integrated noise with memory parameter ``0 < d < 1/2``
  (``(1-B)^d X = e``), whose sequences follow exact one-term ratio
  recursions,
* FARIMA(p, d, q): the fractional core filtered through a stable and
  invertible rational filter ``num(B)/den(B)``,
* generic moving averages ``X = (num(B)/den(B)) e``, the same filter
  applied to white noise: a finite list ``b_0..b_q`` has ``den = (1,)``,
  white noise is ``((1,), (1,))``; d = 0 is outside the fractional range, so
  these short-memory models are not FARIMA.

Both filtered kinds keep the filter in one field, ``ProcessModel.ma_filter
= (num, den)``; ARMA polynomials phi and theta give
``((1,) + theta, (1,) - phi)``.

``ar_coeffs``, ``ma_coeffs`` and ``acvf`` compute a sequence once, to the
length asked for, and return it as an immutable :class:`CoefSeq`.  For the
fractional kind the one-term recursions are the production path: O(1) per
term, no cancellation, exact sign propagation.  The closed-form
Gamma-ratio expressions are kept as independent oracles in the test suite.
Every generic model's MA series (a finite list's too) and its AR series
den/num, and the FARIMA filter, share one power-series division,
``_rational_series``: its terms sit in a reversed buffer, so each term's lag
sum is one unit-stride dot, and a first-order denominator's tail is one
``np.cumprod``.
Every lag autocorrelation sum_m b_m b_{m+s}, of an MA series, of the FARIMA
filter or of predictor weights (``mse``), is taken by ``_lag_products``: one
``np.correlate``, or one dot per lag when few lags of a long series are
asked for; a second correlation filters the FARIMA core's autocovariance.
Every autocovariance's dropped tail is an estimate, not a proof: an ARMA
series' from the block ratio of its squares (``_tail_sq_bound``), which reads
no tail once those squares are 0.0 in float64, the FARIMA filter's from its
root modulus (``_certified_rational_series``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CertificationError, ModelError

__all__ = [
    "ProcessModel",
    "CoefSeq",
    "ar_coeffs",
    "ma_coeffs",
    "acvf",
]

FRAC_NOISE = "frac_noise"
FARIMA = "farima"
GENERIC_MA = "generic_ma"

DEFAULT_ACVF_TOL = 1e-10
_MAX_MA_TERMS = 1 << 21
_SERIES_MAX_TERMS = 1 << 22


def _arma_filter(ar: Sequence[float], ma: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """(num, den) = (1 + theta_1 z + ..., 1 - phi_1 z - ...) of ARMA polynomials."""
    return (1.0, *(float(t) for t in ma)), (1.0, *(-float(p) for p in ar))


def _check_roots_outside_unit_disk(coeffs_ascending: Sequence[float], what: str) -> None:
    # coeffs are ascending powers of z, constant term 1.  Trailing
    # coefficients that are negligible against the leading 1 only add roots
    # of enormous modulus but make the companion matrix ill-conditioned, so
    # drop them before solving.
    arr = np.asarray(coeffs_ascending, dtype=float)
    scale = float(np.max(np.abs(arr)))
    keep = arr.size
    while keep > 1 and abs(arr[keep - 1]) <= 1e-12 * scale:
        keep -= 1
    trimmed = arr[:keep]
    if trimmed.size <= 1:
        return
    roots = np.roots(trimmed[::-1])
    if roots.size and np.min(np.abs(roots)) <= 1.0:
        raise ModelError(f"{what} polynomial has a root of modulus <= 1")


@dataclass(frozen=True)
class ProcessModel:
    """Immutable, hashable description of a stationary process.

    ``d`` is the memory parameter of the fractional core (frac_noise and
    FARIMA only).  Every other kind filters its input through the rational
    filter ``ma_filter = (num, den)``, both with constant term 1: FARIMA the
    fractional core, a generic model the white noise.  num is the MA
    operator ``1 + theta_1 z + ... + theta_q z^q`` and den the AR operator
    ``1 - phi_1 z - ... - phi_p z^p``; ``den = (1,)`` makes a generic model
    a finite list.  Equal constructions compare and hash equal.
    """

    kind: str
    noise_variance: float = 1.0
    d: float | None = None
    ma_filter: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (FRAC_NOISE, FARIMA, GENERIC_MA):
            raise ModelError(f"unknown model kind {self.kind!r}")
        if not 0.0 < self.noise_variance < math.inf:
            raise ModelError("noise_variance must be positive and finite")
        if self.kind == GENERIC_MA:
            if self.d is not None:
                raise ModelError("generic MA models have no memory parameter d")
        elif self.d is None or not 0.0 < self.d < 0.5:
            raise ModelError("memory parameter d must lie strictly inside (0, 1/2)")
        if (self.kind == FRAC_NOISE) != (self.ma_filter is None):
            raise ModelError("every model kind but frac_noise takes an ma_filter")
        if self.ma_filter is not None:
            num, den = (np.asarray(c, dtype=float) for c in self.ma_filter)
            if any(c.ndim != 1 or c.size == 0 or c[0] != 1.0 or not np.all(np.isfinite(c))
                   for c in (num, den)):
                raise ModelError("MA filter polynomials must be finite, 1-d and start with 1")
            # a stable den and an invertible num keep both representations summable
            _check_roots_outside_unit_disk(den, "AR")
            _check_roots_outside_unit_disk(num, "MA")
            object.__setattr__(self, "ma_filter", (tuple(num.tolist()), tuple(den.tolist())))

    # -- constructors ------------------------------------------------------

    @classmethod
    def frac_noise(cls, d: float, noise_variance: float = 1.0) -> "ProcessModel":
        """Fractionally integrated noise (1-B)^d X = e."""
        return cls(kind=FRAC_NOISE, d=d, noise_variance=noise_variance)

    @classmethod
    def farima(cls, d: float, ar: Sequence[float] = (), ma: Sequence[float] = (),
               noise_variance: float = 1.0) -> "ProcessModel":
        """FARIMA(p, d, q): (1 - sum phi_i B^i)(1-B)^d X = (1 + sum theta_j B^j) e."""
        return cls(kind=FARIMA, d=d, noise_variance=noise_variance,
                   ma_filter=_arma_filter(ar, ma))

    @classmethod
    def generic_ma(cls, coeffs: Sequence[float], noise_variance: float = 1.0) -> "ProcessModel":
        """Invertible finite MA b_0..b_q (b_0 = 1), zero beyond its support."""
        return cls(kind=GENERIC_MA, noise_variance=noise_variance, ma_filter=(coeffs, (1.0,)))

    @classmethod
    def white_noise(cls, noise_variance: float = 1.0) -> "ProcessModel":
        return cls.generic_ma(coeffs=(1.0,), noise_variance=noise_variance)

    @classmethod
    def arma(cls, ar: Sequence[float] = (), ma: Sequence[float] = (),
             noise_variance: float = 1.0) -> "ProcessModel":
        """Short-memory ARMA comparison model, the generic MA with filter theta/phi."""
        return cls(kind=GENERIC_MA, noise_variance=noise_variance,
                   ma_filter=_arma_filter(ar, ma))

    # -- helpers -----------------------------------------------------------

    @property
    def finite_ma_support(self) -> int | None:
        """Last MA lag of a finite generic model (den = (1,)), else None."""
        if self.kind == GENERIC_MA and len(self.ma_filter[1]) == 1:
            return len(self.ma_filter[0]) - 1
        return None

    def describe(self) -> str:
        parts = [f"kind={self.kind}"]
        if self.d is not None:
            parts.append(f"d={self.d:.17g}")
        parts.append(f"noise_variance={self.noise_variance:.17g}")
        if self.kind == FARIMA:
            num, den = self.ma_filter
            for name, coeffs in (("ar", [-p for p in den[1:]]), ("ma", num[1:])):
                if coeffs:
                    parts.append(f"{name}=" + ",".join(f"{v:.17g}" for v in coeffs))
        return " ".join(parts)


# ---------------------------------------------------------------------------
# power-series helpers


def _rational_series(num: Sequence[float], den: Sequence[float], n: int) -> np.ndarray:
    """First n+1 coefficients of num(z)/den(z), both with constant term 1.

    c_j = num_j - sum_{i>=1} den_i c_{j-i}; where ``num`` has no term j,
    c_j = -sum, so an exact +0 sum gives c_j = -0.  The terms are written in
    reverse, rev[n - j] = c_j, so that c_{j-1}, c_{j-2}, ... is the
    unit-stride slice after rev[n - j] and each sum is one BLAS ``ddot``
    without a copy.  Past num's terms a first-order den gives
    c_j = -(den_1 c_{j-1}), one product (``np.dot`` of one-element vectors
    multiplies), so one ``np.cumprod`` by -den_1 writes that tail with the
    same bits and signs of zero; a constant den leaves it at +0.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    p = den.size - 1
    head = min(num.size, n + 1)
    stop = head if p <= 1 else n + 1
    rev = np.zeros(n + 1)
    dot, lags = np.dot, den[1:]
    for j in range(stop):
        i = n - j
        if j >= p:
            if p:
                rev[i] = -dot(lags, rev[i + 1:i + 1 + p])
        elif j:  # c_1..c_{p-1} reach back to c_0 only
            rev[i] = -dot(lags[:j], rev[i + 1:i + 1 + j])
        if j < head:
            rev[i] += num[j]
    if p == 1 and head <= n:
        tail = rev[n + 1 - head::-1]  # c_{head-1}, then c_head..c_n
        tail[1:] = -den[1]
        np.cumprod(tail, out=tail)
    return rev[::-1].copy()


def _ma_series(ma_filter: tuple[tuple[float, ...], tuple[float, ...]],
               n: int) -> np.ndarray:
    """MA coefficients b_0..b_n of a generic model's filter ``(num, den)``."""
    b = _rational_series(*ma_filter, n)
    b += 0.0  # writes every exact zero, given or underflowed, as +0, not -0
    return b


def _envelope_rate(den: Sequence[float]) -> float:
    """r = (1 + rho)/2 with rho > 1 the smallest root modulus of the stable,
    non-constant ``den``."""
    roots = np.roots(np.asarray(den, dtype=float)[::-1])
    return 0.5 * (1.0 + float(np.min(np.abs(roots))))


def _geometric_envelope(c: np.ndarray, r: float) -> float | None:
    """Peak P of |c_j| r^j over the computed range once that sequence has
    peaked and decayed inside it, else None; |c_j| <= P r^-j is then taken
    to hold for every j, a convergent geometric envelope."""
    n = c.size - 1
    scaled = np.abs(c) * np.power(r, np.arange(n + 1))
    peak = float(np.max(scaled))
    if np.max(scaled[n // 2:]) < peak and scaled[-1] <= peak * 1e-3:
        return peak
    return None


def _certified_rational_series(num: Sequence[float], den: Sequence[float],
                               tol: float) -> tuple[np.ndarray, float]:
    """Expand num/den far enough that the L1 tail past the computed range,
    as ``_geometric_envelope`` estimates it, is below ``tol``."""
    den_t = np.trim_zeros(np.asarray(den, dtype=float), "b")
    if den_t.size <= 1:
        return np.array(num, dtype=float), 0.0
    r = _envelope_rate(den_t)
    n = max(64, 4 * (len(num) + len(den)))
    while n <= _SERIES_MAX_TERMS:
        c = _rational_series(num, den, n)
        peak = _geometric_envelope(c, r)
        if peak is not None:
            tail = peak * r ** (-(n + 1)) / (1.0 - 1.0 / r)
            if tail < tol:
                return c, tail
        n *= 2
    raise CertificationError(
        f"rational series tail not certified below {tol:g} "
        f"within {_SERIES_MAX_TERMS} terms")


def _lag_products(b: np.ndarray, s2: float, n: int) -> np.ndarray:
    """s2 * sum_m b_m b_{m+s} for lags s = 0..n, 0 past the last lag of b:
    one ``np.correlate`` (b.size^2 products), or one dot per lag, the same
    bits, when b is far longer than n + 1 (the ARMA block path)."""
    out = np.zeros(n + 1)
    top = min(n, b.size - 1)
    if b.size * b.size <= (top + 1) * (b.size + 4096):
        out[: top + 1] = s2 * np.correlate(b, b, "full")[b.size - 1: b.size + top]
    else:
        for s in range(top + 1):
            out[s] = s2 * np.dot(b[: b.size - s], b[s:])
    return out


def _tail_sq_bound(b: np.ndarray) -> float | None:
    """Estimate of sum_{m > M} b_m^2 from the prefix's last two quarter blocks;
    0.0 once every square from the half point on is 0.0 in float64: exact
    zeros, underflow, or a subnormal the series sticks at (ar = 0.9)."""
    m = b.size - 1
    half, three_q = m // 2, (3 * m) // 4
    s1 = float(np.sum(b[half: three_q] ** 2))
    s2 = float(np.sum(b[three_q:] ** 2))
    if s1 == s2 == 0.0:
        return 0.0
    if s1 > 0.0 and s2 < 0.7 * s1:
        q = s2 / s1  # blockwise geometric decay of the squared tail
        return s2 * q / (1.0 - q)
    return None


# ---------------------------------------------------------------------------
# coefficient sequences


AR = "ar"
MA = "ma"
ACVF = "acvf"


@dataclass(frozen=True, eq=False)
class CoefSeq:
    """Entries 0..len-1 of one coefficient sequence of a model.

    The entries are computed once, when the sequence is made; ``values`` is
    read-only, so a sequence can be shared freely.  ``certified_tol``
    bounds only the dropped series tail of an autocovariance, relative to
    sigma(0): rounding is not covered, and 0.0 means no tail, not exact.
    """

    model: ProcessModel
    kind: str
    values: np.ndarray
    certified_tol: float = 0.0

    def __post_init__(self) -> None:
        self.values.flags.writeable = False

    def __len__(self) -> int:
        return self.values.size

    def _check_index(self, j: int) -> None:
        if not 0 <= j < self.values.size:
            raise IndexError(f"index {j} outside the computed entries 0..{self.values.size - 1}")

    def __getitem__(self, j: int) -> float:
        self._check_index(j)
        return float(self.values[j])

    def prefix(self, n: int) -> np.ndarray:
        """Read-only view of entries 0..n."""
        self._check_index(n)
        return self.values[: n + 1]


def _check_kind(seq: CoefSeq, kind: str) -> None:
    if seq.kind != kind:
        raise ValueError(f"expected an {kind!r} sequence, got {seq.kind!r}")


def _frac(d: float, noise_variance: float, kind: str, n: int) -> np.ndarray:
    """Entries 0..n of a fractional-noise sequence by its exact one-term
    ratio recursion."""
    j = np.arange(n, dtype=float)
    if kind == AR:
        first, ratios = 1.0, (j - d) / (j + 1.0)
    elif kind == MA:
        first, ratios = 1.0, (j + d) / (j + 1.0)
    else:
        # sigma(0) = Gamma(1-2d) / Gamma(1-d)^2; subtracting lg(1-d) twice, not
        # 2 * lg(1-d), keeps the last bits of every output
        lg = math.lgamma
        first = noise_variance * math.exp(lg(1.0 - 2.0 * d) - lg(1.0 - d) - lg(1.0 - d))
        ratios = (j + d) / (j + 1.0 - d)
    return np.cumprod(np.concatenate([[first], ratios]))


def _psi_series(model: ProcessModel, kind: str, tol: float) -> tuple[np.ndarray, float]:
    """Expansion of the model's rational filter num/den (den/num for AR
    sequences) and its estimated L1 tail; ``tol`` is the acvf accuracy asked."""
    num, den = model.ma_filter[::-1] if kind == AR else model.ma_filter
    # the ACVF path squares the filter, so certify well below tol
    return _certified_rational_series(num, den, min(1e-15, 0.01 * tol))


def _filter_tail_tol(psi: np.ndarray, psi_tail: float, core0: float, sigma0: float,
                     tol: float) -> float:
    """Relative error bound for a FARIMA autocovariance whose filter lost the
    L1 tail ``psi_tail``; ``core0`` is the variance of the fractional core."""
    l1 = float(np.sum(np.abs(psi)))
    achieved = (2.0 * psi_tail * l1 + psi_tail ** 2) * core0 / sigma0
    if achieved > tol:
        raise CertificationError(
            f"FARIMA autocovariance accuracy not certified below {tol:g}",
            achieved_bound=achieved)
    return achieved


def _farima(model: ProcessModel, kind: str, n: int, tol: float) -> tuple[np.ndarray, float]:
    """FARIMA sequence 0..n: the fractional core composed with the filter."""
    psi, psi_tail = _psi_series(model, kind, tol)
    if kind != ACVF:
        return np.convolve(_frac(model.d, 1.0, kind, n), psi)[: n + 1], 0.0
    # sigma_X(s) = sum_m gbar(m) sigma_F(s - m) where gbar is the lag
    # autocorrelation of the rational filter psi; correlating gbar along
    # sigma_F(|n + p - u|), u = 0..n + 2p, gives s = n..0
    p = psi.size - 1
    sig_f = _frac(model.d, model.noise_variance, ACVF, n + p)
    half = _lag_products(psi, 1.0, p)
    gbar = np.concatenate([half[:0:-1], half])  # lags -p..p, index m+p
    folded = sig_f[np.abs(n + p - np.arange(n + 2 * p + 1))]
    out = np.correlate(folded, gbar, "valid")[::-1]
    return out, _filter_tail_tol(psi, psi_tail, sig_f[0], out[0], tol)


def _generic_acvf(model: ProcessModel, n: int, tol: float) -> tuple[np.ndarray, float]:
    """Autocovariances 0..n of a generic model and their tail estimate."""
    s2 = model.noise_variance
    support = model.finite_ma_support
    if support is not None:
        return _lag_products(_ma_series(model.ma_filter, support), s2, n), 0.0
    # infinite series: extend until the estimated tail of
    # sum_m b_m b_{m+s} drops below tol * sigma(0)
    m = max(4 * (n + 1), 1024)
    while True:
        b = _ma_series(model.ma_filter, m)
        sigma0 = s2 * float(np.dot(b, b))
        tail_sq = _tail_sq_bound(b)
        if tail_sq is not None and s2 * tail_sq <= tol * sigma0:
            if tail_sq == 0.0 and b[-1]:
                # no tail but no trailing zeros: sum up to the last nonzero square
                b = b[:np.flatnonzero(b * b)[-1] + 1]
            out = _lag_products(b, s2, n)
            return out, s2 * tail_sq / out[0]
        if m >= _MAX_MA_TERMS:
            achieved = (s2 * tail_sq / sigma0) if tail_sq is not None else None
            raise CertificationError(
                "generic MA autocovariance accuracy not certified below "
                f"{tol:g} within {m} terms", achieved_bound=achieved)
        m *= 2


def _sequence(model: ProcessModel, kind: str, n: int, tol: float) -> CoefSeq:
    """Entries 0..n of the model's ``kind`` sequence; ``tol`` is the relative
    autocovariance accuracy to certify."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")
    if model.kind == FRAC_NOISE:
        values, certified = _frac(model.d, model.noise_variance, kind, n), 0.0
    elif model.kind == FARIMA:
        values, certified = _farima(model, kind, n, tol)
    elif kind == ACVF:
        values, certified = _generic_acvf(model, n, tol)
    elif kind == MA:
        values, certified = _ma_series(model.ma_filter, n), 0.0
    else:  # den/num, as FARIMA's filter: exact past lag p of a pure AR(p)
        values, certified = _rational_series(*model.ma_filter[::-1], n), 0.0
    return CoefSeq(model, kind, values, certified)


# ---------------------------------------------------------------------------
# module-level operations


def ar_coeffs(model: ProcessModel, n: int) -> CoefSeq:
    """Autoregressive coefficients a_0..a_n (a_0 = 1)."""
    return _sequence(model, AR, n, DEFAULT_ACVF_TOL)


def ma_coeffs(model: ProcessModel, n: int) -> CoefSeq:
    """Moving-average coefficients b_0..b_n (b_0 = 1)."""
    return _sequence(model, MA, n, DEFAULT_ACVF_TOL)


def acvf(model: ProcessModel, n: int, tol: float = DEFAULT_ACVF_TOL) -> CoefSeq:
    """Autocovariances sigma(0)..sigma(n), any dropped series tail below tol * sigma(0)."""
    return _sequence(model, ACVF, n, tol)
