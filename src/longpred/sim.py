"""Exact Gaussian simulation and Monte-Carlo error estimation.

Sample paths provide the end-to-end check of every analytic error formula:
simulate, forecast with the constructed weights, and compare empirical
squared errors against the quadratic-form values.  :func:`simulate` draws
the paths; :func:`empirical_mses` scores many weight vectors, each on paths
of its own length k + h, with the same bits as scoring it on the rows of a
:func:`simulate` at that length.

Two samplers are available.  Circulant embedding is the default and exact
for every model: the length-n covariance is embedded into a 2(n-1)-circulant
whose FFT gives the sampling spectrum, and an embedding with a negative
eigenvalue is doubled until it has none (Wood & Chan 1994; fractional noise
never needs it, Craigmile 2003).  Moving-average truncation runs only when a
plan asks for it, and only on short-memory models; its order rests on a tail
bound that infinite rational filters only estimate, as the ARMA
autocovariance does.

Randomness is counter-based: each replication draws from its own Philox
stream keyed by (seed, replication index), so row r depends only on
(seed, r) and results are reproducible regardless of execution order and of
how the rows are split.  Both samplers run through one driver,
:func:`_row_pass`: min(CPUs, blocks) threads each take the next row block
from one shared hand-out, draw its rows from one bit generator re-keyed per
row, and hand the block to the sampler.  numpy releases the GIL while it
draws normals, runs FFTs and takes dots, but the scorer's ``paths @ w`` holds
it on a block of 500 rows or fewer.  The threads share one temporary-memory
budget and write into buffers the calling thread allocated, so temporaries
stay bounded and no output depends on which thread takes which block.

A row of an embedding of length m reads the first 2m normals of its stream,
so one draw at the longest embedding holds every shorter one as a prefix.
Per embedding length, the circulant sampler transforms each block in place
and hands its paths to a visitor: :func:`simulate` copies them out,
:func:`empirical_mses` scores them and copies out only one length's paths a
caller asks for.  MA truncation draws n + order normals per row and filters
each block with one ``np.vecdot`` over its sliding windows: one dot per
output, as ``np.convolve`` takes.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CertificationError, NumericError
from .predict import PredictorWeights
from .process import (DEFAULT_ACVF_TOL, MA, ProcessModel, _ma_series, _psi_series,
                      _stuck_rational_tail, _tail_sq_bound, acvf, ma_coeffs)

__all__ = [
    "CIRCULANT_EMBEDDING",
    "MA_TRUNCATION",
    "SimulationPlan",
    "McEstimate",
    "simulate",
    "empirical_mses",
]

CIRCULANT_EMBEDDING = "circulant_embedding"
MA_TRUNCATION = "ma_truncation"

_EIGENVALUE_TOL_REL = 1e-10
_MAX_EMBEDDING = 1 << 21
_MAX_MA_ORDER = 1 << 21
# normals of all row blocks in flight, split evenly across the threads, or
# one row per thread where a row takes more; circulant embedding's complex
# temporaries take as much again
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SimulationPlan:
    """Reproducible description of a batch of Gaussian sample paths.

    ``ma_cov_tol`` bounds the MA-truncation sampler's covariance error
    relative to sigma(0), by an estimate for infinite rational filters
    (:func:`_ma_tail_sq_bound`); a tolerance no order meets raises a
    ``CertificationError``, and a model with a memory parameter ``ValueError``.
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
        if self.method == MA_TRUNCATION and self.model.d is not None:
            raise ValueError(f"{MA_TRUNCATION} samples short-memory models only")
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
    key, zero = [seed, 0], [0, 0, 0, 0]  # Python ints: the state setter reads them fastest
    bitgen = np.random.Philox(key=0)  # re-keyed before each yield
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for r in range(start, stop):
        key[1] = r
        bitgen.state = state
        yield rng


def _worker_count() -> int:
    """CPUs this process may run on; both samplers use as many threads, but
    never more than they have row blocks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _row_pass(seed: int, reps: int, width: int, scratch: int, run) -> None:
    """Call ``run(first_row, block, buf)`` on the row blocks of replications
    0..reps-1 from min(CPUs, blocks) threads, each taking the next block start
    from one shared hand-out; ``block`` holds ``width`` normals per row from
    stream (seed, r), and ``buf`` is the thread's own ``scratch`` complex
    values per block row.  The threads split one budget of normals."""
    row_bytes = 8 * width
    workers = min(_worker_count(), -(-reps // max(1, _BLOCK_BYTES // row_bytes)))
    block = min(reps, max(1, _BLOCK_BYTES // workers // row_bytes))
    starts, lock = iter(range(0, reps, block)), threading.Lock()

    def work(normals: np.ndarray, buf: np.ndarray) -> None:
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            rows = normals[:min(block, reps - lo)]
            for row, rng in zip(rows, _streams(seed, lo, lo + len(rows))):
                rng.standard_normal(out=row)
            run(lo, rows, buf)

    # imported here: concurrent.futures pulls in logging, about 5 ms and
    # 0.6 MB that commands which never simulate should not pay
    from concurrent.futures import ThreadPoolExecutor

    # buffers come from the calling thread: allocations made in the workers
    # would land in per-thread malloc arenas and raise peak RSS
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(work, [np.empty((block, width)) for _ in range(workers)],
                      [np.empty(block * scratch, dtype=complex) for _ in range(workers)]))


def _circulant_block(lengths: list[int], amps: list[np.ndarray], visit, lo: int,
                     block: np.ndarray, z: np.ndarray) -> None:
    """Transform one row block of the circulant sampler in the buffer ``z``.

    Each row holds 2 m_max normals.  Embedding i, of length m =
    ``amps[i].size``, reads the first m as real parts and the next m as
    imaginary parts, so every embedding gets exactly the normals a draw at its
    own length would.  Per embedding both halves are scaled by the amplitudes
    into a contiguous complex buffer, transformed in place, and the paths of
    length ``lengths[i]`` are handed to ``visit(i, lo, paths)``.
    """
    for i, amp in enumerate(amps):
        m = amp.size
        zb = z[:len(block) * m].reshape(len(block), m)
        np.multiply(block[:, :m], amp, out=zb.real)
        np.multiply(block[:, m:2 * m], amp, out=zb.imag)
        np.fft.fft(zb, axis=1, out=zb)
        visit(i, lo, zb.real[:, :lengths[i]])


def _circulant_pass(model: ProcessModel, lengths: list[int], reps: int, seed: int,
                    visit) -> None:
    """Run replications 0..reps-1 through the circulant embedding of every
    length in ``lengths``, calling ``visit(i, first_row, paths)`` with the
    exact paths of length ``lengths[i]`` of each row block, from worker
    threads.
    """
    amps = [np.sqrt(lam / lam.size) for lam in (_circulant_spectrum(model, n) for n in lengths)]
    m_max = max(amp.size for amp in amps)
    _row_pass(seed, reps, 2 * m_max, m_max, partial(_circulant_block, lengths, amps, visit))


def _circulant_spectrum(model: ProcessModel, n: int) -> np.ndarray:
    """Eigenvalues, those within tolerance of 0 set to 0, of the first nonnegative
    circulant of sigma(0..half), half = (n - 1) 2^j (Wood & Chan 1994)."""
    half = n - 1
    while True:
        g = np.asarray(acvf(model, half).prefix(half))
        lam = np.fft.fft(np.concatenate([g, g[half - 1: 0: -1]])).real
        if np.min(lam) >= -_EIGENVALUE_TOL_REL * g[0]:
            return np.maximum(lam, 0.0)
        if half == 0 or 4 * half > _MAX_EMBEDDING:  # the 1-circulant cannot grow
            raise NumericError(f"circulant embedding of length {2 * half} produced eigenvalue "
                               f"{np.min(lam):.3e}, beyond the nonnegativity tolerance")
        half *= 2


def _ma_tail_sq_bound(model: ProcessModel, order: int) -> float | None:
    """Bound on sum_{m > order} b_m^2 of a short-memory model, or None: proven
    for a finite MA, and for an infinite rational filter by the estimates the
    ARMA autocovariance certifies its tail with."""
    support = model.finite_ma_support
    if support is not None:
        return 0.0 if order >= support else None
    # the block estimate, or, once the squares underflow, the L1 tail T of the
    # filter expansion: sum_{m > order} b_m^2 <= T^2 when that stops by b_order
    b = _ma_series(model.ma_filter, order)
    tail_sq = _tail_sq_bound(b)
    if tail_sq is not None or not _stuck_rational_tail(model.ma_filter[1], b):
        return tail_sq
    psi, psi_tail = _psi_series(model, MA, DEFAULT_ACVF_TOL)
    return psi_tail ** 2 if psi.size <= order + 1 else None


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
    order = _ma_truncation_order(plan)
    b_rev = ma_coeffs(plan.model, order).prefix(order)[::-1].copy()
    scale = math.sqrt(plan.model.noise_variance)

    def convolve(lo: int, block: np.ndarray, _: np.ndarray) -> None:
        block *= scale
        # one ddot per output, as np.convolve(eps, b, "valid") takes; a
        # negative-stride b[::-1] would skip BLAS and move the bits
        np.vecdot(sliding_window_view(block, order + 1, axis=1), b_rev,
                  out=out[lo:lo + len(block)])

    _row_pass(plan.seed, reps, n + order, 0, convolve)
    return out


def _squared_errors(paths: np.ndarray, weights: PredictorWeights,
                    noise_variance: float) -> np.ndarray:
    """Squared error of forecasting X_{k+h} from (X_1..X_k), row by row, in units
    of ``noise_variance``, so that neither it nor its squared deviation from the
    mean overflows or underflows at a variance far from 1."""
    k, h = weights.k, weights.h
    preds = paths[:, :k][:, ::-1] @ weights.weights
    return ((paths[:, k + h - 1] - preds) / math.sqrt(noise_variance)) ** 2


def _estimate(errs: np.ndarray, noise_variance: float) -> McEstimate:
    """Sample mean of one predictor's squared errors in units of
    ``noise_variance`` with its standard error, both scaled back."""
    r = errs.size
    return McEstimate(mean=float(np.mean(errs)) * noise_variance,
                      std_error=float(np.std(errs, ddof=1) / math.sqrt(r)) * noise_variance,
                      replications=r)


def empirical_mses(plan: SimulationPlan, weights,
                   paths_out: np.ndarray | None = None) -> list[McEstimate]:
    """Monte-Carlo squared prediction error of each weight vector, in order,
    on the plan's replications at length k + h (``plan.length`` is not read).

    Entry i is, bit for bit, the sample mean and its standard error of the
    squared errors of forecasting X_{k+h} from (X_1..X_k) with ``weights[i]``
    over the rows of ``simulate(replace(plan, length=k + h))``.  Both
    samplers hand the paths of each distinct length to one scoring visitor.
    The circulant sampler draws each row's normals once for every length
    and scores every weight vector on row blocks, so it builds no array of
    paths but ``paths_out``; MA truncation simulates each distinct length
    once and scores all its rows in one block.  ``paths_out``, of shape
    (replications, n) for a length n = k + h of the weights (another n raises
    ``ValueError``), receives the rows that length is scored on.
    """
    if plan.replications < 30:  # McEstimate's floor, checked before any draw
        raise ValueError("reported estimates need at least 30 replications")
    weights = tuple(weights)
    by_length: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        by_length.setdefault(w.k + w.h, []).append(i)
    if not weights:
        return []
    errs = np.empty((len(weights), plan.replications))
    lengths, groups = list(by_length), list(by_length.values())
    kept = -1 if paths_out is None else lengths.index(paths_out.shape[1])
    s2 = plan.model.noise_variance

    def score(i: int, lo: int, paths: np.ndarray) -> None:
        if i == kept:
            paths_out[lo:lo + len(paths)] = paths
        for j in groups[i]:
            errs[j, lo:lo + len(paths)] = _squared_errors(paths, weights[j], s2)

    if plan.method == MA_TRUNCATION:
        for i, n in enumerate(lengths):
            score(i, 0, simulate(replace(plan, length=n)))
    else:
        _circulant_pass(plan.model, lengths, plan.replications, plan.seed, score)
    return [_estimate(e, s2) for e in errs]
