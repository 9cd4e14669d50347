"""Exact Gaussian simulation and Monte-Carlo error estimation.

Sample paths provide the end-to-end check of every analytic error formula:
simulate, forecast with the constructed weights, and compare empirical
squared errors against the quadratic-form values.  :func:`simulate` draws
the paths; :func:`empirical_mse` scores one weight vector on the first k + h
columns of each row, so one array of paths can serve several predictors.

Two samplers are available.  Circulant embedding is the default and exact:
the length-n covariance is embedded into a 2(n-1)-circulant whose FFT gives
the sampling spectrum.  Moving-average truncation is the fallback and
cross-check; it carries a certified covariance error.

Randomness is counter-based: each replication draws from its own Philox
stream keyed by (seed, replication index), so row r depends only on
(seed, r) and results are reproducible regardless of execution order and
safe to parallelize.  One bit generator per :func:`simulate` call is
re-keyed for each row, and circulant-embedding paths are transformed in
blocks of rows with one FFT per block, so temporaries stay bounded.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, NumericError
from .predict import PredictorWeights
from .process import (FARIMA, FRAC_NOISE, ProcessModel, _envelope_rate, _geometric_envelope,
                      _ma_series, _stuck_rational_tail, acvf, ma_coeffs)

__all__ = [
    "CIRCULANT_EMBEDDING",
    "MA_TRUNCATION",
    "SimulationPlan",
    "McEstimate",
    "simulate",
    "empirical_mse",
]

CIRCULANT_EMBEDDING = "circulant_embedding"
MA_TRUNCATION = "ma_truncation"

_EIGENVALUE_TOL_REL = 1e-10
_MAX_MA_ORDER = 1 << 21
_BLOCK_BYTES = 1 << 20  # complex temporaries per FFT block


@dataclass(frozen=True)
class SimulationPlan:
    """Reproducible description of a batch of Gaussian sample paths.

    ``ma_cov_tol`` is the certified relative covariance error allowed for
    the MA-truncation sampler (relative to sigma(0)); power-law tails make
    tight tolerances unattainable there, in which case construction of the
    sampler raises a :class:`~longpred.errors.CertificationError`.
    """

    model: ProcessModel
    length: int
    replications: int
    seed: int
    method: str = CIRCULANT_EMBEDDING
    ma_cov_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.length < 1 or self.replications < 1:
            raise ValueError("length and replications must be >= 1")
        if self.method not in (CIRCULANT_EMBEDDING, MA_TRUNCATION):
            raise ValueError(f"unknown simulation method {self.method!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not 0.0 < self.ma_cov_tol < math.inf:
            raise ValueError(f"ma_cov_tol must be finite and > 0, got {self.ma_cov_tol!r}")


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error.

    Estimates are only reported from at least 30 replications so the
    standard error itself is meaningful.
    """

    mean: float
    std_error: float
    replications: int

    def __post_init__(self) -> None:
        if self.replications < 30:
            raise ValueError("reported estimates need at least 30 replications")


def _streams(seed: int, reps: int) -> Iterator[np.random.Generator]:
    """For r = 0..reps-1, one Philox generator re-keyed to the start of
    stream (seed, r): bit-identical to a fresh ``Philox(key=[seed, r])``."""
    key = np.array([seed, 0], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for r in range(reps):
        key[1] = r
        bitgen.state = state
        yield rng


def _circulant_spectrum(model: ProcessModel, n: int) -> np.ndarray:
    g = np.asarray(acvf(model, n - 1).prefix(n - 1))
    if n == 1:
        return g[:1].copy()
    c = np.concatenate([g, g[n - 2: 0: -1]])
    lam = np.fft.fft(c).real
    floor = -_EIGENVALUE_TOL_REL * g[0]
    if np.min(lam) < floor:
        raise NumericError(
            f"circulant embedding produced eigenvalue {np.min(lam):.3e}, "
            "beyond the nonnegativity tolerance")
    return np.maximum(lam, 0.0)


def _ma_tail_sq_bound(model: ProcessModel, order: int) -> float | None:
    """Certified bound on sum_{m > order} b_m^2."""
    support = model.finite_ma_support
    if support is not None:
        return 0.0 if order >= support else None
    if model.kind == FRAC_NOISE:
        # b_m * m^(1-d) increases towards 1/Gamma(d), so b_m <= m^(d-1)/Gamma(d)
        d = model.d
        c = 1.0 / math.gamma(d)
        return c * c * order ** (2.0 * d - 1.0) / (1.0 - 2.0 * d)
    if model.kind == FARIMA:
        d = model.d
        b = ma_coeffs(model, order).prefix(order)
        half = order // 2
        j = np.arange(half, order + 1, dtype=float)
        c = float(np.max(np.abs(b[half:]) * j ** (1.0 - d)))
        return c * c * order ** (2.0 * d - 1.0) / (1.0 - 2.0 * d)
    # infinite generic series: geometric block certification
    den = model.ma_filter[1]
    b = _ma_series(model.ma_filter, 2 * order)
    s1 = float(np.sum(b[order // 2: order] ** 2))
    s2 = float(np.sum(b[order: 2 * order] ** 2))
    if s2 == 0.0 and np.all(b[order:] == 0.0):
        return 0.0
    if s1 > 0.0 and s2 < 0.7 * s1:
        q = s2 / s1
        return s2 / (1.0 - q)
    if not _stuck_rational_tail(den, b, order // 2):
        return None
    # the filter's geometric envelope |b_m| <= peak r^-m, read off the
    # shortest prefix that shows it
    r = _envelope_rate(den)
    n = 64
    while n <= 2 * order:
        peak = _geometric_envelope(b[:n + 1], r)
        if peak is not None:
            return peak * peak * r ** (-2.0 * (order + 1)) / (1.0 - r ** -2.0)
        n *= 2
    return None


def _ma_truncation_order(plan: SimulationPlan) -> int:
    """Smallest certified order meeting ma_cov_tol, or raise."""
    model = plan.model
    sigma0 = acvf(model, 0)[0]
    tol_abs = plan.ma_cov_tol * sigma0 / model.noise_variance
    order = max(64, 4 * plan.length)
    while order <= _MAX_MA_ORDER:
        bound = _ma_tail_sq_bound(model, order)
        if bound is not None and bound <= tol_abs:
            return order
        order *= 2
    bound = _ma_tail_sq_bound(model, _MAX_MA_ORDER)
    raise CertificationError(
        f"MA truncation covariance error not certified below "
        f"{plan.ma_cov_tol:g} * sigma(0) within {_MAX_MA_ORDER} terms",
        achieved_bound=None if bound is None else bound / (sigma0 / model.noise_variance))


def simulate(plan: SimulationPlan) -> np.ndarray:
    """Draw ``replications`` independent zero-mean Gaussian rows of length
    ``length`` whose covariance is the model's Toeplitz autocovariance.

    Deterministic given the seed: row r depends only on (seed, r).
    """
    n, reps = plan.length, plan.replications
    out = np.empty((reps, n))
    rows = _streams(plan.seed, reps)
    if plan.method == CIRCULANT_EMBEDDING:
        lam = _circulant_spectrum(plan.model, n)
        if n == 1:
            scale = math.sqrt(lam[0])
            for r, rng in enumerate(rows):
                out[r, 0] = scale * rng.standard_normal()
            return out
        m = 2 * n - 2
        amp = np.sqrt(lam / m)
        block = max(1, _BLOCK_BYTES // (16 * m))
        z = np.empty((min(block, reps), m), dtype=complex)
        for start in range(0, reps, block):
            count = min(block, reps - start)
            for i, rng in zip(range(count), rows):
                z.real[i] = rng.standard_normal(m)
                z.imag[i] = rng.standard_normal(m)
            out[start:start + count] = np.fft.fft(z[:count] * amp, axis=1).real[:, :n]
        return out
    order = _ma_truncation_order(plan)
    b = np.asarray(ma_coeffs(plan.model, order).prefix(order))
    scale = math.sqrt(plan.model.noise_variance)
    for r, rng in enumerate(rows):
        eps = scale * rng.standard_normal(n + order)
        out[r] = np.convolve(eps, b, mode="valid")
    return out


def empirical_mse(paths: np.ndarray, weights: PredictorWeights) -> McEstimate:
    """Monte-Carlo squared prediction error of a weight vector on the rows of
    ``paths``, an array :func:`simulate` returned.

    Each row forecasts X_{k+h} from (X_1..X_k); columns after k + h are not
    read, so one simulation at the longest k + h serves every horizon.  The
    estimate is the sample mean of squared errors with its standard error.
    """
    r, n = paths.shape
    k, h = weights.k, weights.h
    if n < k + h:
        raise ValueError(f"path length {n} too short for k + h = {k + h}")
    preds = paths[:, :k][:, ::-1] @ weights.weights
    errs = (paths[:, k + h - 1] - preds) ** 2
    return McEstimate(mean=float(np.mean(errs)),
                      std_error=float(np.std(errs, ddof=1) / math.sqrt(r)),
                      replications=r)
