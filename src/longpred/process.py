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
  invertible rational ARMA filter,
* generic moving averages ``X = (num(B)/den(B)) e`` given by the
  coefficients of a rational filter (``ProcessModel.ma_filter``): a finite
  list ``b_0..b_q`` has ``den = (1,)``, white noise is ``((1,), (1,))`` and
  the ARMA comparison models are ``((1,) + theta, (1,) - phi)``; d = 0 is
  outside the fractional range, so these short-memory models are not FARIMA.

For the fractional kind the one-term recursions are the production path:
O(1) per term, no cancellation, exact sign propagation.  The closed-form
Gamma-ratio expressions are kept as independent oracles in the test suite.
The ARMA moving-average series, the FARIMA filter and the AR inversion of a
generic moving average share one power-series division, ``_rational_series``.
FARIMA autocovariances, and ARMA ones whose series sticks at subnormal values
before the block-ratio tail test passes, are certified from the filter's
root modulus (``_certified_rational_series``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CertificationError, ModelError, NumericError
from .special import gamma_ratio

__all__ = [
    "ProcessModel",
    "CoefSeq",
    "DecayReport",
    "ar_coeffs",
    "ma_coeffs",
    "acvf",
    "verify_decay",
]

FRAC_NOISE = "frac_noise"
FARIMA = "farima"
GENERIC_MA = "generic_ma"

DEFAULT_ACVF_TOL = 1e-10
_MAX_MA_TERMS = 1 << 21
_SERIES_MAX_TERMS = 1 << 22


def _as_tuple(x: Sequence[float] | None) -> tuple[float, ...]:
    return tuple(float(v) for v in x) if x is not None else ()


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

    ``ar`` holds the coefficients phi of ``1 - phi_1 z - ... - phi_p z^p``
    and ``ma`` the coefficients theta of ``1 + theta_1 z + ... + theta_q z^q``
    (both FARIMA only).  ``ma_filter = (num, den)`` gives a generic model's
    moving-average coefficients as the power series of num(z)/den(z), both
    with constant term 1; ``den = (1,)`` makes it a finite list.  On a
    generic model ``d`` only labels the model.  Equal constructions compare
    and hash equal.
    """

    kind: str
    noise_variance: float = 1.0
    d: float | None = None
    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    ma_filter: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (FRAC_NOISE, FARIMA, GENERIC_MA):
            raise ModelError(f"unknown model kind {self.kind!r}")
        if not self.noise_variance > 0.0:
            raise ModelError("noise_variance must be positive")
        if self.kind in (FRAC_NOISE, FARIMA):
            if self.d is None or not 0.0 < self.d < 0.5:
                raise ModelError("memory parameter d must lie strictly inside (0, 1/2)")
        elif self.d is not None and not 0.0 < self.d < 0.5:
            raise ModelError("declared d must lie strictly inside (0, 1/2)")
        if self.kind == FARIMA:
            _check_roots_outside_unit_disk((1.0,) + tuple(-p for p in self.ar), "AR")
            _check_roots_outside_unit_disk((1.0,) + self.ma, "MA")
        if self.kind != FARIMA and (self.ar or self.ma):
            raise ModelError("ar/ma polynomials are only valid for FARIMA models")
        if (self.kind == GENERIC_MA) != (self.ma_filter is not None):
            raise ModelError("generic MA models, and only they, take an ma_filter")
        if self.kind == GENERIC_MA:
            num, den = (np.asarray(c, dtype=float) for c in self.ma_filter)
            if any(c.ndim != 1 or c.size == 0 or c[0] != 1.0 for c in (num, den)):
                raise ModelError("MA filter polynomials must be 1-d and start with 1")
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
        return cls(kind=FARIMA, d=d, ar=_as_tuple(ar), ma=_as_tuple(ma),
                   noise_variance=noise_variance)

    @classmethod
    def generic_ma(cls, coeffs: Sequence[float], noise_variance: float = 1.0,
                   d: float | None = None) -> "ProcessModel":
        """Invertible finite MA b_0..b_q (b_0 = 1), zero beyond its support.

        ``d`` only labels the model (``describe()``, decay diagnostics): a
        finite moving average has short memory whatever its value.
        """
        return cls(kind=GENERIC_MA, d=d, noise_variance=noise_variance,
                   ma_filter=(coeffs, (1.0,)))

    @classmethod
    def white_noise(cls, noise_variance: float = 1.0) -> "ProcessModel":
        return cls.generic_ma(coeffs=(1.0,), noise_variance=noise_variance)

    @classmethod
    def arma(cls, ar: Sequence[float] = (), ma: Sequence[float] = (),
             noise_variance: float = 1.0) -> "ProcessModel":
        """Short-memory ARMA comparison model, the generic MA with filter theta/phi."""
        # + 0.0: a zero theta expands to +0, as the series division writes it
        num = (1.0,) + tuple(t + 0.0 for t in _as_tuple(ma))
        den = (1.0,) + tuple(-p for p in _as_tuple(ar))
        return cls(kind=GENERIC_MA, noise_variance=noise_variance, ma_filter=(num, den))

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
        if self.ar:
            parts.append("ar=" + ",".join(f"{v:.17g}" for v in self.ar))
        if self.ma:
            parts.append("ma=" + ",".join(f"{v:.17g}" for v in self.ma))
        return " ".join(parts)


# ---------------------------------------------------------------------------
# power-series helpers


def _rational_series(num: Sequence[float], den: Sequence[float], n: int) -> np.ndarray:
    """First n+1 coefficients of num(z)/den(z), both with constant term 1.

    c_j = num_j - sum_{i>=1} den_i c_{j-i}; where ``num`` has no term j,
    c_j = -sum, so an exact +0 sum gives c_j = -0.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.zeros(n + 1)
    for j in range(n + 1):
        top = min(j, den.size - 1)
        if top >= 1:
            out[j] = -np.dot(den[1:top + 1], out[j - 1::-1][:top])
        if j < num.size:
            out[j] += num[j]
    return out


def _ma_series(ma_filter: tuple[tuple[float, ...], tuple[float, ...]],
               n: int) -> np.ndarray:
    """MA coefficients b_0..b_n of a generic model's filter ``(num, den)``."""
    num, den = ma_filter
    if len(den) == 1:  # finite list: a copy that keeps its signed zeros
        b = np.zeros(n + 1)
        b[: min(n + 1, len(num))] = num[: n + 1]
        return b
    b = _rational_series(num, den, n)
    b += 0.0  # writes the exact zeros of an underflowed tail as +0, not -0
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
    bounded by ``_geometric_envelope``, is below ``tol``."""
    den_t = np.trim_zeros(np.asarray(den, dtype=float), "b")
    if den_t.size <= 1:
        coeffs = np.asarray(num, dtype=float).copy()
        return coeffs, 0.0
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


def _stuck_rational_tail(den: Sequence[float], b: np.ndarray, start: int) -> bool:
    """Whether every square of the series prefix ``b`` from ``start`` on
    underflows while ``b`` does not end in len(den) exact zeros.

    Squares underflow from some index L on, and the values reach their floor
    by about 2L < b.size: exact zeros, or subnormals the recursion rounds back
    to (ar = 0.9 sticks at 2.5e-323), which never pass a block-ratio test.
    """
    return not np.any(b[start:] ** 2) and bool(np.any(b[-len(den):]))


def _lag_products(b: np.ndarray, s2: float, n: int) -> np.ndarray:
    """s2 * sum_m b_m b_{m+s} for lags s = 0..n; 0 past the last lag of b."""
    out = np.zeros(n + 1)
    for s in range(min(n, b.size - 1) + 1):
        out[s] = s2 * np.dot(b[: b.size - s], b[s:])
    return out


# ---------------------------------------------------------------------------
# coefficient sequences


AR = "ar"
MA = "ma"
ACVF = "acvf"
_TARGET_EXPONENT = {AR: lambda d: -d - 1.0, MA: lambda d: d - 1.0, ACVF: lambda d: 2.0 * d - 1.0}


class CoefSeq:
    """Lazily extendable coefficient sequence tied to a model.

    Extension is single-writer; completed prefixes are returned as read-only
    views and never mutated afterwards, so they are safe to share across
    threads.  ``certified_tol`` reports the certified relative accuracy of an
    autocovariance computed by truncated summation (0.0 for exact paths).
    """

    def __init__(self, model: ProcessModel, kind: str,
                 acvf_tol: float = DEFAULT_ACVF_TOL):
        if kind not in (AR, MA, ACVF):
            raise ValueError(f"unknown sequence kind {kind!r}")
        self.model = model
        self.kind = kind
        self.acvf_tol = acvf_tol
        self.certified_tol = 0.0
        self._values = np.empty(0)
        # FARIMA rational-filter expansions, built on first use
        self._psi: np.ndarray | None = None
        self._psi_tail = 0.0
        self._frac_acvf: CoefSeq | None = None

    # -- public API --------------------------------------------------------

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, j: int) -> float:
        if j < 0:
            raise IndexError("coefficient index must be nonnegative")
        self.extend_to(j)
        return float(self._values[j])

    @property
    def values(self) -> np.ndarray:
        v = self._values[:]
        v.flags.writeable = False
        return v

    def prefix(self, n: int) -> np.ndarray:
        """Read-only view of entries 0..n, computing them if needed."""
        self.extend_to(n)
        v = self._values[: n + 1]
        v.flags.writeable = False
        return v

    def extend_to(self, n: int) -> "CoefSeq":
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self._values.size >= n + 1:
            return self
        mk = self.model.kind
        if mk == FRAC_NOISE:
            self._extend_frac(n)
        elif mk == FARIMA:
            self._extend_farima(n)
        else:
            self._extend_generic(n)
        self._check_signs()
        return self

    # -- fractional noise: exact ratio recursions --------------------------

    def _extend_frac(self, n: int) -> None:
        d = self.model.d
        old = self._values
        m = old.size  # next index to fill
        out = np.empty(n + 1)
        out[:m] = old
        if m == 0:
            if self.kind == ACVF:
                out[0] = self.model.noise_variance * gamma_ratio(
                    [1.0 - 2.0 * d], [1.0 - d, 1.0 - d]).value()
            else:
                out[0] = 1.0
            m = 1
        if m <= n:
            j = np.arange(m - 1, n, dtype=float)
            if self.kind == AR:
                ratios = (j - d) / (j + 1.0)
            elif self.kind == MA:
                ratios = (j + d) / (j + 1.0)
            else:
                ratios = (j + d) / (j + 1.0 - d)
            # seeding the product with the last value keeps extension
            # bit-identical to a from-scratch evaluation
            out[m:] = np.cumprod(np.concatenate([[out[m - 1]], ratios]))[1:]
        self._values = out

    # -- FARIMA: fractional core composed with a rational filter -----------

    def _psi_series(self) -> tuple[np.ndarray, float]:
        """Certified expansion of the model's rational filter theta/phi (phi/theta
        for AR sequences): FARIMA's ar/ma, or a generic model's ma_filter."""
        if self._psi is None:
            if self.model.kind == FARIMA:
                theta_op = (1.0,) + self.model.ma
                phi_op = (1.0,) + tuple(-p for p in self.model.ar)
            else:
                theta_op, phi_op = self.model.ma_filter
            # the ACVF path squares the filter, so certify well below tol
            tol = min(1e-15, 0.01 * self.acvf_tol)
            num, den = (phi_op, theta_op) if self.kind == AR else (theta_op, phi_op)
            self._psi, self._psi_tail = _certified_rational_series(num, den, tol)
        return self._psi, self._psi_tail

    def _certify_filter_tail(self, psi: np.ndarray, psi_tail: float, core0: float,
                             sigma0: float, what: str) -> None:
        """Relative error bound for an autocovariance whose filter lost the L1
        tail ``psi_tail``; ``core0`` is the variance of the filtered core."""
        l1 = float(np.sum(np.abs(psi)))
        abs_err = (2.0 * psi_tail * l1 + psi_tail ** 2) * core0
        self.certified_tol = abs_err / sigma0
        if self.certified_tol > self.acvf_tol:
            raise CertificationError(
                f"{what} autocovariance accuracy not certified below "
                f"{self.acvf_tol:g}", achieved_bound=self.certified_tol)

    def _extend_farima(self, n: int) -> None:
        psi, psi_tail = self._psi_series()
        if self.kind in (AR, MA):
            core = CoefSeq(ProcessModel.frac_noise(self.model.d), self.kind)
            frac = core.prefix(n)
            self._values = np.convolve(frac, psi)[: n + 1]
            return
        # autocovariance: sigma_X(s) = sum_m gbar(m) sigma_F(s - m) where
        # gbar is the lag autocorrelation of the rational filter psi
        p = psi.size - 1
        if self._frac_acvf is None:
            self._frac_acvf = CoefSeq(
                ProcessModel.frac_noise(self.model.d, self.model.noise_variance), ACVF)
        sig_f = self._frac_acvf.prefix(n + p)
        gbar = np.convolve(psi, psi[::-1])  # lags -p..p, index m+p
        lags = np.arange(-p, p + 1)
        out = np.empty(n + 1)
        for s in range(n + 1):
            out[s] = np.dot(gbar, sig_f[np.abs(s - lags)])
        self._certify_filter_tail(psi, psi_tail, sig_f[0], out[0], "FARIMA")
        self._values = out

    # -- generic MA models: the power series of num/den ----------------------

    def _extend_generic(self, n: int) -> None:
        if self.kind == MA:
            self._values = _ma_series(self.model.ma_filter, n)
            return
        if self.kind == AR:
            # power-series inversion of the MA polynomial
            support = self.model.finite_ma_support
            b = _ma_series(self.model.ma_filter, n if support is None else support)
            self._values = _rational_series((1.0,), b, n)
            return
        self._extend_generic_acvf(n)

    def _extend_generic_acvf(self, n: int) -> None:
        s2 = self.model.noise_variance
        support = self.model.finite_ma_support
        if support is not None:
            b = _ma_series(self.model.ma_filter, support)
            self._values = _lag_products(b, s2, n)
            self.certified_tol = 0.0
            return
        # infinite series: extend until the certified tail of
        # sum_m b_m b_{m+s} drops below acvf_tol * sigma(0)
        den = self.model.ma_filter[1]
        m = max(4 * (n + 1), 1024)
        while True:
            b = _ma_series(self.model.ma_filter, m)
            sigma0 = s2 * float(np.dot(b, b))
            tail_sq = self._tail_sq_bound(b)
            if tail_sq is not None and s2 * tail_sq <= self.acvf_tol * sigma0:
                self._values = _lag_products(b, s2, n)
                self.certified_tol = s2 * tail_sq / self._values[0]
                return
            if tail_sq is None and _stuck_rational_tail(den, b, m // 2):
                # no longer prefix passes the block test: certify from the
                # filter's root modulus instead
                psi, psi_tail = self._psi_series()
                out = _lag_products(psi, s2, n)
                self._certify_filter_tail(psi, psi_tail, s2, out[0], "ARMA")
                self._values = out
                return
            if m >= _MAX_MA_TERMS:
                achieved = (s2 * tail_sq / sigma0) if tail_sq is not None else None
                raise CertificationError(
                    "generic MA autocovariance accuracy not certified below "
                    f"{self.acvf_tol:g} within {m} terms", achieved_bound=achieved)
            m *= 2

    def _tail_sq_bound(self, b: np.ndarray) -> float | None:
        """Certified bound on sum_{m > M} b_m^2 given the computed prefix."""
        m = b.size - 1
        half, three_q = m // 2, (3 * m) // 4
        s1 = float(np.sum(b[half: three_q] ** 2))
        s2 = float(np.sum(b[three_q:] ** 2))
        if s2 == 0.0 and np.all(b[half:] == 0.0):
            return 0.0
        if s1 > 0.0 and s2 < 0.7 * s1:
            q = s2 / s1  # blockwise geometric decay of the squared tail
            return s2 * q / (1.0 - q)
        return None

    # -- invariants ---------------------------------------------------------

    def _check_signs(self) -> None:
        if self.model.kind != FRAC_NOISE or self._values.size == 0:
            return
        v = self._values
        if self.kind == AR:
            ok = v[0] == 1.0 and np.all(v[1:] < 0.0)
        elif self.kind == MA:
            ok = v[0] == 1.0 and np.all(v[1:] > 0.0)
        else:
            ok = np.all(v > 0.0)
        if not ok:  # pragma: no cover - would flag a recursion defect
            raise NumericError(
                f"fractional-noise {self.kind} sequence violated its sign structure")


# ---------------------------------------------------------------------------
# module-level operations


def ar_coeffs(model: ProcessModel, n: int) -> CoefSeq:
    """Autoregressive coefficients a_0..a_n (a_0 = 1)."""
    return CoefSeq(model, AR).extend_to(n)


def ma_coeffs(model: ProcessModel, n: int) -> CoefSeq:
    """Moving-average coefficients b_0..b_n (b_0 = 1)."""
    return CoefSeq(model, MA).extend_to(n)


def acvf(model: ProcessModel, n: int, tol: float = DEFAULT_ACVF_TOL) -> CoefSeq:
    """Autocovariances sigma(0)..sigma(n) with certified relative accuracy."""
    return CoefSeq(model, ACVF, acvf_tol=tol).extend_to(n)


@dataclass(frozen=True)
class DecayReport:
    """Power-law decay diagnostics for a coefficient sequence."""

    kind: str
    fitted_exponent: float
    target_exponent: float | None
    delta: float
    constant: float | None       # smallest C with |v_j| <= C j^(target+delta)
    zero_tail: bool
    n_points: int


def verify_decay(seq: CoefSeq, delta: float = 0.05) -> DecayReport:
    """Fit log|v_j| against log j over the trailing half of a sequence.

    The target exponent is -d-1, d-1 or 2d-1 for AR, MA and ACVF sequences.
    Sequences with an exactly zero tail (finite moving averages) are flagged
    instead of fitted.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if len(seq) < 50:
        raise ValueError("need at least 50 computed values to fit a decay rate")
    v = seq.values
    n = v.size - 1
    start = max(1, n // 2)
    tail = v[start:]
    d = seq.model.d
    target = _TARGET_EXPONENT[seq.kind](d) if d is not None else None
    if np.all(tail == 0.0):
        return DecayReport(seq.kind, math.nan, target, delta, 0.0 if target is not None else None,
                           True, tail.size)
    j = np.arange(start, n + 1, dtype=float)
    mask = tail != 0.0
    x = np.log(j[mask])
    y = np.log(np.abs(tail[mask]))
    slope, _ = np.polyfit(x, y, 1)
    constant = None
    if target is not None:
        jj = np.arange(1, n + 1, dtype=float)
        constant = float(np.max(np.abs(v[1:]) / jj ** (target + delta)))
    return DecayReport(seq.kind, float(slope), target, delta, constant, False, int(mask.sum()))
