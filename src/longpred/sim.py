"""Exact Gaussian simulation and Monte-Carlo error estimation.

Sample paths provide the end-to-end check of every analytic error formula:
simulate, forecast with the constructed weights, and compare empirical
squared errors against the quadratic-form values.  :func:`simulate` draws
the paths; :func:`empirical_mse` scores one weight vector on the first k + h
columns of each row; :func:`empirical_mses` scores many weight vectors,
each on paths of its own length k + h, with the same bits as
:func:`empirical_mse` on a :func:`simulate` at that length.

Two samplers are available.  Circulant embedding is the default and exact:
the length-n covariance is embedded into a 2(n-1)-circulant whose FFT gives
the sampling spectrum.  Moving-average truncation runs only when a plan
asks for it; its order rests on a tail bound that FARIMA and infinite
rational filters only estimate.

Randomness is counter-based: each replication draws from its own Philox
stream keyed by (seed, replication index), so row r depends only on
(seed, r) and results are reproducible regardless of execution order and
of how the rows are split.  A row of an embedding of length m reads the
first 2m normals of its stream, so one draw at the longest embedding holds
every shorter one as a prefix.  Circulant embedding cuts the rows into
contiguous ranges on block boundaries and runs them on min(CPUs, blocks)
threads; numpy releases the GIL while it draws normals and runs FFTs.  Each
range re-keys one bit generator for each of its rows, draws the row's
normals once and, per embedding length, transforms its blocks in place and
hands each block's paths to a visitor: :func:`simulate` copies them out,
:func:`empirical_mses` scores them, so it never builds an array of paths.
The threads share one temporary-memory budget and write into buffers the
calling thread allocated, so temporaries stay bounded and the output does
not depend on the number of threads.  MA truncation stays on the calling
thread: its rows are short, so time under the GIL dominates and threads
slowed it down.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, replace

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
    "empirical_mses",
]

CIRCULANT_EMBEDDING = "circulant_embedding"
MA_TRUNCATION = "ma_truncation"

_EIGENVALUE_TOL_REL = 1e-10
_MAX_MA_ORDER = 1 << 21
# complex temporaries of all circulant-embedding blocks in flight, split
# evenly across the threads; the normals each block is assembled from take
# as much again
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SimulationPlan:
    """Reproducible description of a batch of Gaussian sample paths.

    ``ma_cov_tol`` bounds the MA-truncation sampler's covariance error
    relative to sigma(0), by an estimate for FARIMA and infinite rational
    filters (:func:`_ma_tail_sq_bound`); a tolerance no order meets raises
    a :class:`~longpred.errors.CertificationError`.
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


def _streams(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """For r = start..stop-1, one Philox generator re-keyed to the start of
    stream (seed, r): bit-identical to a fresh ``Philox(key=[seed, r])``."""
    key = np.array([seed, 0], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for r in range(start, stop):
        key[1] = r
        bitgen.state = state
        yield rng


def _worker_count() -> int:
    """CPUs this process may run on; the circulant sampler uses as many
    threads, but never more than it has row blocks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _circulant_rows(lengths: list[int], amps: list[np.ndarray], seed: int, start: int,
                    stop: int, normals: np.ndarray, z: np.ndarray, visit) -> None:
    """Run rows start..stop-1 of the circulant sampler, ``len(normals)`` rows
    at a time, in the caller's buffers.

    Each row draws 2 m_max normals from stream (seed, r), once.  Embedding i,
    of length m = ``amps[i].size``, reads the first m as real parts and the
    next m as imaginary parts, so every embedding gets exactly the normals a
    draw at its own length would.  Per embedding the block is scaled by the
    amplitudes, transformed in place in a contiguous buffer, and its paths
    of length ``lengths[i]`` are handed to ``visit(i, first_row, paths)``.
    """
    streams = _streams(seed, start, stop)
    for lo in range(start, stop, len(normals)):
        block = normals[:min(len(normals), stop - lo)]
        for row, rng in zip(block, streams):
            rng.standard_normal(out=row)
        for i, amp in enumerate(amps):
            m = amp.size
            zb = z[:len(block) * m].reshape(len(block), m)
            zb.real = block[:, :m]
            zb.imag = block[:, m:2 * m]
            zb *= amp
            np.fft.fft(zb, axis=1, out=zb)
            visit(i, lo, zb.real[:, :lengths[i]])


def _circulant_pass(model: ProcessModel, lengths: list[int], reps: int, seed: int,
                    visit) -> None:
    """Run replications 0..reps-1 through the circulant embedding of every
    length in ``lengths``, calling ``visit(i, first_row, paths)`` with the
    exact paths of length ``lengths[i]`` of each row block, from worker
    threads; blocks are disjoint row ranges.
    """
    amps = []
    for n in lengths:
        m = max(2 * n - 2, 1)  # n = 1 embeds into the 1-circulant (sigma(0))
        amps.append(np.sqrt(_circulant_spectrum(model, n) / m))

    # one thread per CPU, at most one per block of the whole budget; the
    # threads then split the budget, and each takes a run of whole blocks
    m_max = max(amp.size for amp in amps)
    row_bytes = 16 * m_max
    workers = min(_worker_count(), -(-reps // max(1, _BLOCK_BYTES // row_bytes)))
    block = max(1, _BLOCK_BYTES // workers // row_bytes)
    blocks = -(-reps // block)
    cuts = [min(reps, block * (i * blocks // workers)) for i in range(workers + 1)]
    # imported here: concurrent.futures pulls in logging, about 5 ms and
    # 0.6 MB that commands which never simulate should not pay
    from concurrent.futures import ThreadPoolExecutor

    futures = []
    with ThreadPoolExecutor(workers) as pool:
        for start, stop in zip(cuts, cuts[1:]):
            # buffers come from the calling thread: allocations made in the
            # workers would land in per-thread malloc arenas and raise peak RSS
            rows = min(block, stop - start)
            normals = np.empty((rows, 2 * m_max))
            z = np.empty(rows * m_max, dtype=complex)
            futures.append(pool.submit(_circulant_rows, lengths, amps, seed, start,
                                       stop, normals, z, visit))
    for future in futures:
        future.result()


def _circulant_spectrum(model: ProcessModel, n: int) -> np.ndarray:
    g = np.asarray(acvf(model, n - 1).prefix(n - 1))
    c = np.concatenate([g, g[n - 2: 0: -1]])
    lam = np.fft.fft(c).real
    floor = -_EIGENVALUE_TOL_REL * g[0]
    if np.min(lam) < floor:
        raise NumericError(
            f"circulant embedding produced eigenvalue {np.min(lam):.3e}, "
            "beyond the nonnegativity tolerance")
    return np.maximum(lam, 0.0)


def _ma_tail_sq_bound(model: ProcessModel, order: int) -> float | None:
    """Bound on sum_{m > order} b_m^2, or None: proven for a finite MA and
    fractional noise, extrapolated from the computed b_m otherwise."""
    support = model.finite_ma_support
    if support is not None:
        return 0.0 if order >= support else None
    if model.kind in (FRAC_NOISE, FARIMA):
        # |b_m| <= c m^(d-1) past order: fractional noise's b_m m^(1-d) rises
        # to 1/Gamma(d); FARIMA's c is the largest on [order/2, order]
        d = model.d
        if model.kind == FRAC_NOISE:
            c = 1.0 / math.gamma(d)
        else:
            half = order // 2
            b = ma_coeffs(model, order).prefix(order)
            j = np.arange(half, order + 1, dtype=float)
            c = float(np.max(np.abs(b[half:]) * j ** (1.0 - d)))
        return c * c * order ** (2.0 * d - 1.0) / (1.0 - 2.0 * d)
    # infinite generic series: a geometric estimate from two blocks
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
    """Smallest doubling order whose tail bound (proven or estimated, see
    :func:`_ma_tail_sq_bound`) meets ma_cov_tol, or raise."""
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
    if plan.method == CIRCULANT_EMBEDDING:
        def store(_: int, lo: int, paths: np.ndarray) -> None:
            out[lo:lo + len(paths)] = paths

        _circulant_pass(plan.model, [n], reps, plan.seed, store)
        return out
    # MA truncation stays serial: its rows are short, so the work under the
    # GIL dominates and threads made model_zoo's MA-truncation ops slower
    order = _ma_truncation_order(plan)
    b = np.asarray(ma_coeffs(plan.model, order).prefix(order))
    scale = math.sqrt(plan.model.noise_variance)
    for r, rng in enumerate(_streams(plan.seed, 0, reps)):
        eps = scale * rng.standard_normal(n + order)
        out[r] = np.convolve(eps, b, mode="valid")
    return out


def _squared_errors(paths: np.ndarray, weights: PredictorWeights) -> np.ndarray:
    """Squared error of forecasting X_{k+h} from (X_1..X_k), row by row."""
    k, h = weights.k, weights.h
    preds = paths[:, :k][:, ::-1] @ weights.weights
    return (paths[:, k + h - 1] - preds) ** 2


def _estimate(errs: np.ndarray) -> McEstimate:
    """Sample mean of one predictor's squared errors with its standard error."""
    r = errs.size
    return McEstimate(mean=float(np.mean(errs)),
                      std_error=float(np.std(errs, ddof=1) / math.sqrt(r)),
                      replications=r)


def empirical_mse(paths: np.ndarray, weights: PredictorWeights) -> McEstimate:
    """Monte-Carlo squared prediction error of a weight vector on the rows of
    ``paths``, an array :func:`simulate` returned.

    Each row forecasts X_{k+h} from (X_1..X_k); columns after k + h are not
    read.  The estimate is the sample mean of squared errors with its
    standard error.
    """
    n = paths.shape[1]
    if n < weights.k + weights.h:
        raise ValueError(f"path length {n} too short for k + h = {weights.k + weights.h}")
    return _estimate(_squared_errors(paths, weights))


def empirical_mses(plan: SimulationPlan, weights) -> list[McEstimate]:
    """Monte-Carlo squared prediction error of each weight vector, in order,
    on the plan's replications at length k + h (``plan.length`` is not read).

    Entry i equals ``empirical_mse(simulate(replace(plan, length=k + h)),
    weights[i])`` bit for bit.  Both samplers hand the paths of each
    distinct length to one scoring visitor.  The circulant sampler draws
    each row's normals once for every length and scores every weight vector
    on row blocks, so no array of paths is built; MA truncation simulates
    each distinct length once and scores all its rows in one block.
    """
    weights = tuple(weights)
    by_length: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        by_length.setdefault(w.k + w.h, []).append(i)
    if not weights:
        return []
    errs = np.empty((len(weights), plan.replications))
    groups = list(by_length.values())

    def score(i: int, lo: int, paths: np.ndarray) -> None:
        for j in groups[i]:
            errs[j, lo:lo + len(paths)] = _squared_errors(paths, weights[j])

    if plan.method == MA_TRUNCATION:
        for i, n in enumerate(by_length):
            score(i, 0, simulate(replace(plan, length=n)))
    else:
        _circulant_pass(plan.model, list(by_length), plan.replications, plan.seed, score)
    return [_estimate(e) for e in errs]
