import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (empirical_mse, per_row_paths, reference_circulant_block,
                      reference_circulant_spectrum, same_bits)
from longpred import sim
from longpred.cli import main
from longpred.errors import CertificationError, NumericError
from longpred.fit import projection_weights_at
from longpred.mse import mse_of_weights
from longpred.predict import PredictorWeights, truncated_wk_weights_at
from longpred.process import ACVF, CoefSeq, ProcessModel, acvf, ar_coeffs, ma_coeffs
from longpred.sim import (CIRCULANT_EMBEDDING, MA_TRUNCATION, SimulationPlan, empirical_mses,
                          simulate)


def _cov_se(gamma, i, j, reps):
    # normal-theory standard error of a sample covariance entry
    s = abs(i - j)
    return np.sqrt((gamma[0] ** 2 + gamma[s] ** 2) / reps)


def test_plan_validation():
    model = ProcessModel.white_noise()
    with pytest.raises(ValueError):
        SimulationPlan(model, length=0, replications=10, seed=1)
    with pytest.raises(ValueError):
        SimulationPlan(model, length=5, replications=0, seed=1)
    with pytest.raises(ValueError):
        SimulationPlan(model, length=5, replications=10, seed=1, method="magic")
    for tol in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SimulationPlan(model, length=5, replications=10, seed=1, ma_cov_tol=tol)


def test_fixed_seed_is_bit_identical():
    plan = SimulationPlan(ProcessModel.frac_noise(0.3), length=16,
                          replications=32, seed=987)
    a = simulate(plan)
    b = simulate(plan)
    assert np.array_equal(a, b)


def test_replication_streams_do_not_depend_on_batch_shape():
    model = ProcessModel.frac_noise(0.3)
    full = simulate(SimulationPlan(model, length=8, replications=6, seed=5))
    one = simulate(SimulationPlan(model, length=8, replications=1, seed=5))
    assert np.array_equal(full[0], one[0])


@pytest.mark.parametrize("start, stop", ((0, 3), (2 ** 20, 2 ** 20 + 2)))
def test_streams_match_fresh_philox_at_the_largest_seed(start, stop):
    # the re-keyed state holds the key as Python ints; 2^64 - 1 must reach
    # Philox as its own uint64, as a fresh generator's uint64 key does
    seed = 2 ** 64 - 1
    drawn = [rng.standard_normal(9) for rng in sim._streams(seed, start, stop)]
    assert len(drawn) == stop - start
    for r, got in zip(range(start, stop), drawn):
        key = np.array([seed, r], dtype=np.uint64)
        assert np.array_equal(got, np.random.Generator(np.random.Philox(key=key))
                              .standard_normal(9))


@pytest.mark.parametrize("n", (1, 2, 51, 221))
def test_circulant_matches_per_row_oracle(n):
    # 700 replications span more than one block at n = 51 and n = 221 and
    # end part-way through the last one
    plan = SimulationPlan(ProcessModel.frac_noise(0.3), length=n,
                          replications=700, seed=2 ** 63 + 5)
    assert np.array_equal(simulate(plan), per_row_paths(plan))


@pytest.mark.parametrize("n", (1, 2, 51, 221))
@pytest.mark.parametrize("reps", (700, 10))
@pytest.mark.parametrize("workers", (1, 2, 3))
def test_circulant_bytes_do_not_depend_on_worker_count(workers, reps, n, monkeypatch):
    # with 3 workers, 700 replications run in fifteen 49-row blocks on three
    # threads at n = 221 and in three blocks on two threads at n = 51; the
    # other cells fit in one block, so they run one thread whatever the count
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    plan = SimulationPlan(ProcessModel.frac_noise(0.3), length=n,
                          replications=reps, seed=2 ** 63 + 5)
    assert np.array_equal(simulate(plan), per_row_paths(plan))


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("n", (2, 51))
@pytest.mark.parametrize("block_rows", (1, 3))
def test_circulant_block_edges_match_per_row_oracle(n, block_rows, monkeypatch):
    # one worker keeps the whole budget, so blocks hold block_rows rows
    monkeypatch.setattr(sim, "_worker_count", lambda: 1)
    monkeypatch.setattr(sim, "_BLOCK_BYTES", block_rows * 16 * (2 * n - 2))
    plan = SimulationPlan(ProcessModel.frac_noise(0.2), length=n,
                          replications=10, seed=4)
    assert np.array_equal(simulate(plan), per_row_paths(plan))


@pytest.mark.parametrize("workers", (1, 3))
def test_circulant_temporaries_stay_within_the_block_budget(workers, monkeypatch):
    # the threads split one budget: the blocks' complex values and the
    # normals they are assembled from take 2 * _BLOCK_BYTES in all
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    plan = SimulationPlan(ProcessModel.frac_noise(0.3), length=221,
                          replications=700, seed=3)
    simulate(plan)  # warm caches outside the traced region
    tracemalloc.start()
    try:
        out = simulate(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 2.5 * sim._BLOCK_BYTES


def _horizon_weights(model, k, horizons):
    """Both predictors at every horizon, as ``montecarlo`` scores them."""
    longest = k + max(horizons)
    return [w for pair in zip(truncated_wk_weights_at(ar_coeffs(model, longest), k, horizons),
                              projection_weights_at(acvf(model, longest), k, horizons))
            for w in pair]


def _per_length(plan, weights):
    return [empirical_mse(simulate(replace(plan, length=w.k + w.h)), w) for w in weights]


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("model, k, horizons, reps", [
    (ProcessModel.frac_noise(0.3), 20, (20, 1, 5), 100),
    (ProcessModel.frac_noise(0.45), 1, (1, 2, 3), 50),
    (ProcessModel.farima(0.2, ar=(0.5,), ma=(0.3,)), 12, (4, 1), 61),
])
@pytest.mark.parametrize("block_rows", (None, 7))
@pytest.mark.parametrize("workers", (1, 3))
def test_empirical_mses_match_per_length_simulations(model, k, horizons, reps, block_rows,
                                                     workers, monkeypatch):
    # 7-row blocks at the longest embedding leave a short last block (one
    # worker) or 2-row blocks that three threads take in turn (three workers)
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    if block_rows is not None:
        monkeypatch.setattr(sim, "_BLOCK_BYTES",
                            block_rows * 16 * (2 * (k + max(horizons)) - 2))
    weights = _horizon_weights(model, k, horizons)
    plan = SimulationPlan(model, length=1, replications=reps, seed=2 ** 63 + 11)
    expected = _per_length(plan, weights)
    # threads write disjoint slices of one error array; switching threads
    # often would expose a lost or misplaced block
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = empirical_mses(plan, weights)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


@pytest.mark.parametrize("workers", (1, 2))
def test_circulant_assembly_matches_copy_copy_product_at_zero_amplitudes(workers,
                                                                         monkeypatch):
    # scaling each half of a row's normals into the buffer differs from
    # copying both halves and multiplying by the real amplitudes only in the
    # sign of a zero product; a third of the amplitudes is set to exactly 0
    spectrum = sim._circulant_spectrum

    def with_zeros(model, n):
        lam = spectrum(model, n)
        lam[::3] = 0.0
        return lam

    monkeypatch.setattr(sim, "_circulant_spectrum", with_zeros)
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    model = ProcessModel.frac_noise(0.3)
    weights = _horizon_weights(model, 20, (20, 1, 5))
    plan = SimulationPlan(model, length=51, replications=200, seed=2 ** 63 + 7)
    paths, estimates = simulate(plan), empirical_mses(plan, weights)
    monkeypatch.setattr(sim, "_circulant_block", reference_circulant_block)
    assert same_bits(paths, simulate(plan))
    assert estimates == empirical_mses(plan, weights)


# model_zoo's and mc_many_short's models (d from 0.05 to 0.45, FARIMA(1, d, 1)
# with |ar|, |ma| <= 0.5, ARMA ar = 0.9, a finite MA of four small thetas,
# white noise), more filters, and those whose minimal embedding fails at a length tried
_SPECTRUM_MODELS = {
    **{f"frac_noise_{d}": ProcessModel.frac_noise(d) for d in (0.05, 0.3, 0.45, 0.49)},
    "farima_0.05_ar0.5_ma-0.5": ProcessModel.farima(0.05, ar=(0.5,), ma=(-0.5,)),
    "farima_0.45_ar-0.5_ma0.5": ProcessModel.farima(0.45, ar=(-0.5,), ma=(0.5,)),
    "farima_0.45_ar0.5_ma0.5": ProcessModel.farima(0.45, ar=(0.5,), ma=(0.5,)),
    "arma_0.9": ProcessModel.arma(ar=(0.9,)),
    "finite_ma": ProcessModel.generic_ma((1.0, 0.2311, -0.1822, 0.0935, -0.2399)),
    "white_noise": ProcessModel.white_noise(),
    "farima_0.3_ar0.9": ProcessModel.farima(0.3, ar=(0.9,)),
    "farima_0.45_ma0.9": ProcessModel.farima(0.45, ma=(0.9,)),
    "farima_0.2_ar0.5_ma0.3": ProcessModel.farima(0.2, ar=(0.5,), ma=(0.3,)),
    "arma_1.2_-0.5": ProcessModel.arma(ar=(1.2, -0.5)),
}
_GROWN = {"farima_0.45_ar0.5_ma0.5", "farima_0.3_ar0.9", "farima_0.45_ma0.9",
          "farima_0.2_ar0.5_ma0.3", "arma_1.2_-0.5"}


@pytest.mark.parametrize("name", _SPECTRUM_MODELS)
def test_circulant_spectrum_is_the_minimal_one_wherever_that_passes(name):
    # where the 2(n - 1) embedding is nonnegative its spectrum keeps its bits;
    # elsewhere the embedding doubles to the first nonnegative length
    model, grown = _SPECTRUM_MODELS[name], 0
    for n in (1, 2, 3, 5, 11, 21, 26, 51, 201, 205, 210, 220):
        got = sim._circulant_spectrum(model, n)
        want = reference_circulant_spectrum(model, n - 1)
        if want is not None:
            assert same_bits(got, want), n
            continue
        grown += 1
        half = got.size // 2
        assert half // (n - 1) in (2, 4, 8, 16, 32, 64) and half % (n - 1) == 0, n
        assert reference_circulant_spectrum(model, half // 2) is None, n
        assert same_bits(got, reference_circulant_spectrum(model, half)), n
    assert (grown > 0) == (name in _GROWN)


@pytest.mark.parametrize("model, n, m", [(ProcessModel.farima(0.3, ar=(0.9,)), 11, 80),
                                         (ProcessModel.arma(ar=(1.2, -0.5)), 3, 16)])
@pytest.mark.parametrize("workers", (1, 2))
def test_grown_embedding_matches_per_row_oracle(model, n, m, workers, monkeypatch):
    # 700 rows of the grown embedding run in 100-row budgets, blocks that two
    # workers take in turn
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 100 * 16 * m)
    assert sim._circulant_spectrum(model, n).size == m
    plan = SimulationPlan(model, length=n, replications=700, seed=2 ** 63 + 5)
    assert np.array_equal(simulate(plan), per_row_paths(plan))


@pytest.mark.parametrize("workers", (1, 3))
def test_a_grown_length_keeps_the_other_lengths_estimates(workers, monkeypatch):
    # k + h = 26 embeds at its minimal length 50; k + h = 21 grows from 40 to
    # 80, so each row draws 160 normals, and the length-26 embedding reads
    # the first 100 of them, as a plan of that length alone does
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    model = ProcessModel.farima(0.3, ar=(0.9,))
    assert [sim._circulant_spectrum(model, n).size for n in (26, 21)] == [50, 80]
    weights = _horizon_weights(model, 20, (6, 1))
    plan = SimulationPlan(model, length=1, replications=300, seed=2 ** 63 + 13)
    got = empirical_mses(plan, weights)
    assert got[:2] == empirical_mses(plan, weights[:2])
    assert got == _per_length(plan, weights)


_MA_MODELS = ("arma_0.9", "finite_ma", "white_noise")  # model_zoo's MA-truncation models


@pytest.mark.parametrize("name", _MA_MODELS)
@pytest.mark.parametrize("budget", (None, 1))
@pytest.mark.parametrize("workers", (1, 2, 3))
def test_ma_bytes_do_not_depend_on_worker_count(name, budget, workers, monkeypatch):
    # 2000 rows of length 13 take two or three budgets; a 1-byte budget runs
    # one row per block
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    if budget is not None:
        monkeypatch.setattr(sim, "_BLOCK_BYTES", budget)
    plan = SimulationPlan(_SPECTRUM_MODELS[name], length=13, replications=2000, seed=2 ** 63 + 5,
                          method=MA_TRUNCATION)
    assert np.array_equal(simulate(plan), per_row_paths(plan))


@pytest.mark.parametrize("name", _MA_MODELS)
@pytest.mark.parametrize("budget", (None, 1))
@pytest.mark.parametrize("workers", (1, 2))
def test_ma_empirical_mses_match_per_row_paths(name, budget, workers, monkeypatch):
    # 700 rows of length up to 40 take two budgets; threads write disjoint
    # slices of the simulated paths, and switching threads often would
    # expose a lost or misplaced block
    model = _SPECTRUM_MODELS[name]
    weights = _horizon_weights(model, 20, (20, 1, 5))
    plan = SimulationPlan(model, length=1, replications=700, seed=2 ** 63 + 11,
                          method=MA_TRUNCATION)
    expected = [empirical_mse(per_row_paths(replace(plan, length=w.k + w.h)), w)
                for w in weights]
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    if budget is not None:
        monkeypatch.setattr(sim, "_BLOCK_BYTES", budget)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = empirical_mses(plan, weights)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


@pytest.mark.parametrize("workers", (2, 3))
def test_row_pass_hands_out_every_block_start_once(workers, monkeypatch):
    # a 6-row budget of 4-normal rows makes 2- or 3-row blocks; each thread
    # waits on its first block until every thread holds one, so all of them
    # take blocks from the hand-out at once
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 6 * 8 * 4)
    seed, reps, block = 2 ** 63 + 3, 100, 6 // workers
    taken, lock, first = [], threading.Lock(), threading.local()
    barrier = threading.Barrier(workers, timeout=30)

    def run(lo, rows, _):
        with lock:
            taken.append((lo, rows.copy(), threading.get_ident()))
        if not getattr(first, "taken", False):
            first.taken = True
            barrier.wait()

    sim._row_pass(seed, reps, 4, 0, run)
    assert sorted(lo for lo, _, _ in taken) == list(range(0, reps, block))
    assert len({ident for _, _, ident in taken}) == workers
    for lo, rows, _ in taken:
        assert len(rows) == min(block, reps - lo)
        for r, row in enumerate(rows, start=lo):
            key = np.array([seed, r], dtype=np.uint64)
            assert np.array_equal(row, np.random.Generator(np.random.Philox(key=key))
                                  .standard_normal(4))


@pytest.mark.parametrize("method, model", [(CIRCULANT_EMBEDDING, ProcessModel.frac_noise(0.3)),
                                           (MA_TRUNCATION, ProcessModel.arma(ar=(0.9,)))])
@pytest.mark.parametrize("workers", (2, 3))
def test_a_stalled_worker_keeps_the_one_worker_bits(method, model, workers, monkeypatch):
    # the thread that takes the first block sleeps 20 ms before drawing it,
    # while the others take the rest of the one-row blocks
    weights = _horizon_weights(model, 10, (5, 1))
    plan = SimulationPlan(model, length=15, replications=200, seed=2 ** 63 + 17,
                          method=method)
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(sim, "_worker_count", lambda: 1)
    paths, estimates = simulate(plan), empirical_mses(plan, weights)
    streams, stalled, lock = sim._streams, [], threading.Lock()

    def stall_first(seed, start, stop):
        with lock:
            first = not stalled
            stalled.append(start)
        if first:
            time.sleep(0.02)
        return streams(seed, start, stop)

    monkeypatch.setattr(sim, "_streams", stall_first)
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    assert np.array_equal(simulate(plan), paths)
    assert len(stalled) == plan.replications
    stalled.clear()
    assert empirical_mses(plan, weights) == estimates


def test_empirical_mses_ma_truncation_simulates_each_length_once(monkeypatch):
    model = ProcessModel.arma(ar=(0.5,), ma=(0.3,))
    weights = _horizon_weights(model, 6, (3, 1))
    plan = SimulationPlan(model, length=1, replications=40, seed=5, method=MA_TRUNCATION)
    expected = _per_length(plan, weights)
    lengths = []

    def counted(p):
        lengths.append(p.length)
        return simulate(p)

    monkeypatch.setattr(sim, "simulate", counted)
    assert empirical_mses(plan, weights) == expected
    assert lengths == [9, 7]


@pytest.mark.parametrize("method", (CIRCULANT_EMBEDDING, MA_TRUNCATION))
def test_empirical_mses_rejects_too_few_replications_before_drawing(method, monkeypatch):
    # McEstimate needs 30 replications; a 20-rep plan fails before any draw
    def spy(*args):
        raise AssertionError("a sampler pass ran")

    monkeypatch.setattr(sim, "_circulant_pass", spy)
    monkeypatch.setattr(sim, "simulate", spy)
    model = ProcessModel.arma(ar=(0.5,))
    plan = SimulationPlan(model, length=1, replications=20, seed=5, method=method)
    with pytest.raises(ValueError, match="at least 30 replications"):
        empirical_mses(plan, _horizon_weights(model, 6, (1,)))


def test_empirical_mses_of_no_weights_is_empty():
    assert empirical_mses(SimulationPlan(ProcessModel.frac_noise(0.3), length=1,
                                         replications=30, seed=5), []) == []


def test_empirical_mses_keeps_only_a_scored_length():
    # the kept paths must be one of the lengths scored; checked before any draw
    model = ProcessModel.frac_noise(0.3)
    plan = SimulationPlan(model, length=1, replications=30, seed=5)
    with pytest.raises(ValueError):
        empirical_mses(plan, _horizon_weights(model, 6, (1,)), np.empty((30, 9)))


@pytest.mark.parametrize("workers", (1, 3))
def test_empirical_mses_temporaries_stay_within_the_block_budget(workers, monkeypatch):
    # the scorer keeps the squared errors and one budget of row blocks; the
    # paths of one horizon alone would take more than 2.5 budgets
    monkeypatch.setattr(sim, "_worker_count", lambda: workers)
    model, k, reps = ProcessModel.frac_noise(0.3), 200, 2000
    weights = _horizon_weights(model, k, (1, 5, 10, 20))
    plan = SimulationPlan(model, length=1, replications=reps, seed=3)
    assert 8 * reps * (k + 1) > 2.5 * sim._BLOCK_BYTES
    empirical_mses(plan, weights)  # warm caches outside the traced region
    tracemalloc.start()
    try:
        empirical_mses(plan, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 8 * len(weights) * reps <= 2.5 * sim._BLOCK_BYTES


@pytest.mark.parametrize("model", (ProcessModel.white_noise(1.5),
                                   ProcessModel.arma(ar=(0.5,), ma=(0.3,))))
def test_ma_truncation_matches_per_row_oracle(model):
    plan = SimulationPlan(model, length=13, replications=40, seed=77,
                          method=MA_TRUNCATION)
    assert sim._ma_truncation_order(plan) == 64
    assert np.array_equal(simulate(plan), per_row_paths(plan))


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("model", (ProcessModel.white_noise(1.5),
                                   ProcessModel.arma(ar=(0.5,), ma=(0.3,)),
                                   ProcessModel.arma(ar=(0.9,)),
                                   ProcessModel.generic_ma((1.0, 0.2, -0.1, 0.05, 0.2))))
@pytest.mark.parametrize("block_rows", (7, 0))
def test_ma_block_bits_match_per_row_oracle(model, block_rows, monkeypatch):
    # 40 replications in 7-row blocks end in a 5-row block; a budget below
    # one row leaves one row per block
    plan = SimulationPlan(model, length=13, replications=40, seed=2 ** 63 + 5,
                          method=MA_TRUNCATION)
    row_bytes = 8 * (plan.length + sim._ma_truncation_order(plan))
    monkeypatch.setattr(sim, "_BLOCK_BYTES", max(block_rows * row_bytes, row_bytes - 1))
    assert np.array_equal(simulate(plan), per_row_paths(plan))


@pytest.mark.one_blas_thread
def test_ma_block_bits_match_per_row_oracle_past_blas_split(monkeypatch):
    # near a unit root each output is a dot of 16385 terms, long enough for
    # OpenBLAS to split it across threads; 8 rows fill blocks of 3, 3 and 2
    plan = SimulationPlan(ProcessModel.arma(ar=(0.9995,)), length=5, replications=8,
                          seed=9, method=MA_TRUNCATION)
    order = sim._ma_truncation_order(plan)
    assert order > 10 ** 4
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 3 * 8 * (plan.length + order))
    assert np.array_equal(simulate(plan), per_row_paths(plan))


def test_ma_truncation_temporaries_stay_within_the_block_budget(monkeypatch):
    # the normals of all rows at once would take more than 2.5 budgets; the
    # threads split one budget
    plan = SimulationPlan(ProcessModel.arma(ar=(0.5,), ma=(0.3,)), length=64,
                          replications=1200, seed=3, method=MA_TRUNCATION)
    order = sim._ma_truncation_order(plan)
    assert 8 * plan.replications * (plan.length + order) > 2.5 * sim._BLOCK_BYTES
    for workers in (1, 2):
        monkeypatch.setattr(sim, "_worker_count", lambda: workers)
        simulate(plan)  # warm caches outside the traced region
        tracemalloc.start()
        try:
            out = simulate(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.25 * sim._BLOCK_BYTES, workers


@pytest.mark.parametrize("length, order", [(51, 204), (2001, 8004)])
def test_ma_truncation_order_near_unit_root_arma(length, order):
    # at 204 the block test certifies; at 8004 the squared tail underflows and
    # the filter expansion's L1 tail certifies the first order tried
    plan = SimulationPlan(ProcessModel.arma(ar=(0.9,)), length=length,
                          replications=30, seed=1, method=MA_TRUNCATION)
    assert sim._ma_truncation_order(plan) == order


_ORDER_CELLS = [(length, tol) for length in (5, 13, 51, 2001) for tol in (1e-6, 1e-10)]
# (ar, ma): MA-truncation order at each of _ORDER_CELLS
_ORDER_TABLE = {
    ((0.5,), ()): (64, 64, 64, 64, 204, 204, 8004, 8004),
    ((0.5,), (0.3,)): (64, 64, 64, 64, 204, 204, 8004, 8004),
    ((0.9,), ()): (128, 128, 128, 128, 204, 204, 8004, 8004),
    ((0.9,), (0.3,)): (128, 128, 128, 128, 204, 204, 8004, 8004),
    ((0.99,), ()): (1024, 2048, 1024, 2048, 816, 1632, 8004, 8004),
    ((0.99,), (0.3,)): (1024, 2048, 1024, 2048, 816, 1632, 8004, 8004),
    ((-0.9,), ()): (128, 128, 128, 128, 204, 204, 8004, 8004),
    ((-0.9,), (0.3,)): (128, 128, 128, 128, 204, 204, 8004, 8004),
    # complex roots: the block estimate from b_0..b_64 reads 1.13e-6 sigma(0),
    # above 1e-6, where the true tail past 64 is 6.1e-7 sigma(0)
    ((1.6, -0.8), ()): (128, 128, 128, 128, 204, 204, 8004, 8004),
    ((0.5, -0.2), (0.4,)): (64, 64, 64, 64, 204, 204, 8004, 8004),
}


@pytest.mark.parametrize("ar, ma, length, tol, order", [
    (ar, ma, length, tol, order) for (ar, ma), orders in _ORDER_TABLE.items()
    for (length, tol), order in zip(_ORDER_CELLS, orders, strict=True)], ids=str)
def test_ma_truncation_order_table(ar, ma, length, tol, order):
    plan = SimulationPlan(ProcessModel.arma(ar=ar, ma=ma), length=length, replications=30,
                          seed=1, method=MA_TRUNCATION, ma_cov_tol=tol)
    assert sim._ma_truncation_order(plan) == order


def _montecarlo_failure(tmp_path, capsys, config):
    """Exit code and stderr line of ``montecarlo --k 10`` on a config file."""
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(config)
    code = main(["montecarlo", "--k", "10", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err.strip()


def test_circulant_embedding_fails_typed_on_a_negative_eigenvalue(tmp_path, capsys,
                                                                  monkeypatch):
    # sigma = (1, 0.9, 0, ...), patched in, embeds into circulants whose
    # eigenvalues 1 + 1.8 cos(2 pi j / m) reach 1 - 1.8 at every even m, so
    # the embedding grows to the cap, 16 here, and fails there
    monkeypatch.setattr(sim, "acvf", lambda model, n: CoefSeq(
        model, ACVF, np.concatenate([[1.0, 0.9], np.zeros(n - 1)])))
    monkeypatch.setattr(sim, "_MAX_EMBEDDING", 16)
    with pytest.raises(NumericError, match="length 16 produced eigenvalue -8.000e-01"):
        sim._circulant_spectrum(ProcessModel.white_noise(), 3)
    code, line = _montecarlo_failure(tmp_path, capsys, "reps = 30\n")
    assert code == 2 and line.startswith("longpred: numeric certification failure: ")
    assert line.endswith("beyond the nonnegativity tolerance")


def test_ma_truncation_fails_typed_when_the_filter_expansion_outruns_every_order(
        tmp_path, capsys, monkeypatch):
    # an MA series flat at 1e-170 and a filter expansion of 300 terms, both
    # patched in: the squares underflow, so the block estimate sees no tail,
    # and the expansion stops past every order tried, so it bounds none; with
    # no bound at any order the error has none
    monkeypatch.setattr(sim, "_ma_series", lambda ma_filter, n: np.full(n + 1, 1e-170))
    monkeypatch.setattr(sim, "_psi_series", lambda model, kind, tol: (np.zeros(300), 0.0))
    monkeypatch.setattr(sim, "_MAX_MA_ORDER", 256)
    model = ProcessModel.arma(ar=(0.5,))
    assert sim._ma_tail_sq_bound(model, 64) is None
    plan = SimulationPlan(model, length=11, replications=30, seed=1, method=MA_TRUNCATION)
    with pytest.raises(CertificationError, match="within 256 terms") as info:
        sim._ma_truncation_order(plan)
    assert info.value.achieved_bound is None
    code, line = _montecarlo_failure(
        tmp_path, capsys, "kind = arma\nar = 0.5\nsim_method = ma_truncation\nreps = 30\n")
    assert code == 2 and line.startswith("longpred: numeric certification failure: ")
    assert line.endswith("within 256 terms")


def test_white_noise_sample_covariance():
    s2 = 1.5
    plan = SimulationPlan(ProcessModel.white_noise(s2), length=4,
                          replications=100_000, seed=42)
    x = simulate(plan)
    cov = x.T @ x / plan.replications
    gamma = np.array([s2, 0.0, 0.0, 0.0])
    for i in range(4):
        for j in range(4):
            want = s2 if i == j else 0.0
            assert abs(cov[i, j] - want) <= 3.0 * _cov_se(gamma, i, j, plan.replications)


def test_fractional_noise_sample_covariance_entrywise():
    d, n, reps = 0.3, 64, 100_000
    model = ProcessModel.frac_noise(d)
    gamma = acvf(model, n - 1).prefix(n - 1)
    x = simulate(SimulationPlan(model, length=n, replications=reps, seed=2026))
    cov = x.T @ x / reps
    idx = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    dev = np.abs(cov - gamma[idx])
    se = np.sqrt((gamma[0] ** 2 + gamma[idx] ** 2) / reps)
    assert np.max(dev / se) <= 4.0


def test_lag_one_covariance_quick():
    d, n, reps = 0.3, 8, 20_000
    model = ProcessModel.frac_noise(d)
    gamma = acvf(model, 1).prefix(1)
    x = simulate(SimulationPlan(model, length=n, replications=reps, seed=7))
    est = float(np.mean(x[:, :-1] * x[:, 1:]))
    se = np.sqrt((gamma[0] ** 2 + gamma[1] ** 2) / (reps * (n - 1)))
    assert abs(est - gamma[1]) <= 4.0 * se


def test_disjoint_replication_blocks_are_uncorrelated():
    model = ProcessModel.frac_noise(0.4)
    x = simulate(SimulationPlan(model, length=4, replications=40_000, seed=11))
    first, second = x[:20_000, 0], x[20_000:, 0]
    sigma0 = acvf(model, 0)[0]
    corr = float(np.mean(first * second)) / sigma0
    assert abs(corr) <= 3.0 / np.sqrt(20_000)


def test_ma_truncation_matches_circulant_on_arma_cell():
    model = ProcessModel.arma(ar=(0.5,), ma=(0.3,))
    k, h, reps = 12, 1, 4000
    seq = acvf(model, k + h)
    w = projection_weights_at(seq, k, (h,))[0]
    ce = empirical_mse(simulate(SimulationPlan(model, length=k + h, replications=reps,
                                               seed=31, method=CIRCULANT_EMBEDDING)), w)
    ma = empirical_mse(simulate(SimulationPlan(model, length=k + h, replications=reps,
                                               seed=77, method=MA_TRUNCATION)), w)
    combined = np.hypot(ce.std_error, ma.std_error)
    assert abs(ce.mean - ma.mean) <= 3.0 * combined
    analytic = mse_of_weights(seq, ma_coeffs(model, h - 1), w).total
    assert abs(ce.mean - analytic) <= 3.0 * ce.std_error
    assert abs(ma.mean - analytic) <= 3.0 * ma.std_error


def test_ma_truncation_exact_zero_tail_simulates_as_the_finite_list():
    # ar = 0 leaves an infinite filter whose series is exactly zero past
    # b_1: the tail bound reads 0 there, so the order is the floor of 64 and
    # the rows are the finite list's, bit for bit
    plans = [SimulationPlan(model, length=10, replications=50, seed=3, method=MA_TRUNCATION)
             for model in (ProcessModel.arma(ar=(0.0,), ma=(0.5,)),
                           ProcessModel.generic_ma((1.0, 0.5)))]
    assert plans[0].model.finite_ma_support is None
    assert sim._ma_tail_sq_bound(plans[0].model, 64) == 0.0
    assert [sim._ma_truncation_order(p) for p in plans] == [64, 64]
    assert np.array_equal(simulate(plans[0]), simulate(plans[1]))


def test_ma_truncation_rejects_long_memory_at_default_tolerance():
    # a power-law tail has no certified truncation order at the default
    # tolerance within resource limits, and circulant embedding samples long
    # memory exactly: a plan refuses the pair, at any tolerance
    for model in (ProcessModel.frac_noise(0.3), ProcessModel.farima(0.1, ar=(0.5,), ma=(0.3,))):
        for tol in (1e-6, 1e-2):
            with pytest.raises(ValueError, match="short-memory models only"):
                SimulationPlan(model, length=8, replications=4, seed=3,
                               method=MA_TRUNCATION, ma_cov_tol=tol)


def test_farima_analytic_mse_validated_by_ma_sampler():
    # paths filtered from the moving-average stream alone, truncated at 1024
    # terms (a covariance error of about 2e-4 sigma(0), far below the standard
    # error), cross-check the filtered-core autocovariance path end to end
    model = ProcessModel.farima(0.1, ar=(0.5,), ma=(0.3,))
    k, h, reps, order = 15, 2, 3000, 1024
    seq = acvf(model, k + h)
    w = projection_weights_at(seq, k, (h,))[0]
    analytic = mse_of_weights(seq, ma_coeffs(model, h - 1), w).total
    b = np.asarray(ma_coeffs(model, order).prefix(order))
    rng = np.random.default_rng(61)
    paths = np.array([np.convolve(rng.standard_normal(k + h + order), b, "valid")
                      for _ in range(reps)])
    est = empirical_mse(paths, w)
    assert abs(est.mean - analytic) <= 3.0 * est.std_error


def test_empirical_mse_white_noise_zero_predictor():
    model = ProcessModel.white_noise(2.0)
    w = PredictorWeights(np.zeros(5), k=5, h=1, method="truncated_wk")
    est = empirical_mse(simulate(SimulationPlan(model, length=6, replications=20_000,
                                                seed=13)), w)
    assert abs(est.mean - 2.0) <= 3.0 * est.std_error


@pytest.mark.parametrize("h", (1, 5))
def test_empirical_matches_analytic_truncated(h):
    model = ProcessModel.frac_noise(0.3)
    k, reps = 50, 2000
    w = truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0]
    est = empirical_mse(simulate(SimulationPlan(model, length=k + h, replications=reps,
                                                seed=100 + h)), w)
    analytic = mse_of_weights(acvf(model, k + h - 1), ma_coeffs(model, h - 1), w).total
    assert abs(est.mean - analytic) <= 3.0 * est.std_error


def test_empirical_projection_not_worse_than_truncated():
    model = ProcessModel.frac_noise(0.3)
    k, h, reps = 50, 1, 2000
    seq = acvf(model, k + h)
    wp = projection_weights_at(seq, k, (h,))[0]
    wt = truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0]
    plan = SimulationPlan(model, length=k + h, replications=reps, seed=55)
    ep = empirical_mse(simulate(plan), wp)
    et = empirical_mse(simulate(plan), wt)
    assert abs(ep.mean - mse_of_weights(seq, ma_coeffs(model, h - 1), wp).total) \
        <= 3.0 * ep.std_error
    assert ep.mean <= et.mean + 3.0 * np.hypot(ep.std_error, et.std_error)


def test_empirical_mse_reads_only_the_first_k_plus_h_columns():
    # one simulation at the longest k + h can serve every shorter horizon
    model = ProcessModel.frac_noise(0.3)
    k, h = 20, 3
    w1 = truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0]
    w2 = projection_weights_at(acvf(model, k + h), k, (h,))[0]
    x = simulate(SimulationPlan(model, length=220, replications=300, seed=9))
    for w in (w1, w2):
        expected = empirical_mse(x[:, :k + h].copy(), w)
        for n in (23, 24, 40, 220):
            assert empirical_mse(x[:, :n].copy(), w) == expected


def test_empirical_mse_length_guard():
    model = ProcessModel.frac_noise(0.3)
    w = truncated_wk_weights_at(ar_coeffs(model, 11), 10, (2,))[0]
    with pytest.raises(ValueError):
        empirical_mse(simulate(SimulationPlan(model, length=11, replications=4, seed=1)), w)


def test_single_point_paths():
    plan = SimulationPlan(ProcessModel.frac_noise(0.25), length=1,
                          replications=50_000, seed=8)
    x = simulate(plan)
    sigma0 = acvf(plan.model, 0)[0]
    assert x.shape == (50_000, 1)
    assert abs(np.var(x) - sigma0) <= 4.0 * sigma0 * np.sqrt(2.0 / 50_000)
