import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _oracles import empirical_mse, per_row_paths, reference_power_tail_sq_bound, same_bits
from longpred import sim
from longpred.errors import CertificationError
from longpred.fit import projection_weights_at
from longpred.mse import mse_of_weights
from longpred.predict import PredictorWeights, truncated_wk_weights_at
from longpred.process import ProcessModel, acvf, ar_coeffs, ma_coeffs
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
    # with 3 workers, 700 replications run 3 row ranges of 49-row blocks at
    # n = 221 and 2 ranges at n = 51; the other cells fit in one block, so
    # they run one range whatever the worker count
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
    # worker) or 2-row blocks over three uneven row ranges (three workers)
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


def test_ma_truncation_temporaries_stay_within_the_block_budget():
    # the normals of all rows at once would take more than 2.5 budgets
    plan = SimulationPlan(ProcessModel.arma(ar=(0.5,), ma=(0.3,)), length=64,
                          replications=1200, seed=3, method=MA_TRUNCATION)
    order = sim._ma_truncation_order(plan)
    assert 8 * plan.replications * (plan.length + order) > 2.5 * sim._BLOCK_BYTES
    simulate(plan)  # warm caches outside the traced region
    tracemalloc.start()
    try:
        out = simulate(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 1.25 * sim._BLOCK_BYTES


@pytest.mark.parametrize("model", (ProcessModel.frac_noise(0.1), ProcessModel.frac_noise(0.3),
                                   ProcessModel.frac_noise(0.45),
                                   ProcessModel.farima(0.1, ar=(0.5,), ma=(0.3,))))
def test_power_tail_bound_matches_per_kind_reference(model):
    for order in (64 << i for i in range(8)):  # 64 .. 8192
        got = sim._ma_tail_sq_bound(model, order)
        assert same_bits(got, reference_power_tail_sq_bound(model, order)), order


@pytest.mark.parametrize("length, order", [(51, 204), (2001, 8004)])
def test_ma_truncation_order_near_unit_root_arma(length, order):
    # at 204 the block test certifies; at 8004 the squared tail underflows and
    # the root-modulus envelope certifies the first order tried
    plan = SimulationPlan(ProcessModel.arma(ar=(0.9,)), length=length,
                          replications=30, seed=1, method=MA_TRUNCATION)
    assert sim._ma_truncation_order(plan) == order


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


def test_ma_truncation_rejects_long_memory_at_default_tolerance():
    # power-law tails cannot be certified at 1e-6 sigma(0) within resource
    # limits; construction must fail loudly instead of sampling quietly
    plan = SimulationPlan(ProcessModel.frac_noise(0.3), length=8,
                          replications=4, seed=3, method=MA_TRUNCATION)
    with pytest.raises(CertificationError):
        simulate(plan)


def test_ma_truncation_long_memory_loose_tolerance():
    # at small d and a documented loose tolerance the sampler certifies and
    # matches the exact sampler within Monte-Carlo error
    d = 0.1
    model = ProcessModel.frac_noise(d)
    k, h, reps = 10, 1, 3000
    w = truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0]
    ce = empirical_mse(simulate(SimulationPlan(model, length=k + h, replications=reps,
                                               seed=19)), w)
    ma = empirical_mse(simulate(SimulationPlan(model, length=k + h, replications=reps,
                                               seed=23, method=MA_TRUNCATION,
                                               ma_cov_tol=1e-4)), w)
    assert abs(ce.mean - ma.mean) <= 3.0 * np.hypot(ce.std_error, ma.std_error)


def test_farima_analytic_mse_validated_by_ma_sampler():
    # the MA-truncation sampler uses only the moving-average stream, so it
    # cross-checks the filtered-core autocovariance path end to end
    model = ProcessModel.farima(0.1, ar=(0.5,), ma=(0.3,))
    k, h, reps = 15, 2, 3000
    seq = acvf(model, k + h)
    w = projection_weights_at(seq, k, (h,))[0]
    analytic = mse_of_weights(seq, ma_coeffs(model, h - 1), w).total
    est = empirical_mse(simulate(SimulationPlan(model, length=k + h, replications=reps,
                                                seed=61, method=MA_TRUNCATION,
                                                ma_cov_tol=1e-4)), w)
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
