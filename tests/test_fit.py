import functools
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longpred.cli import _FIGURE2_D_GRID, _FIGURE2_K_GRID
from longpred.errors import IllConditionedError, NotPositiveDefiniteError
from longpred.fit import (_VARIANCE_FLOOR_REL, closed_form_log_inflation, levinson_durbin,
                          projection_weights_at, solve_toeplitz, yule_walker)
from longpred.process import ACVF, CoefSeq, ProcessModel, acvf

from _oracles import (closed_form_ar_fit, decimal_fit_phi, dense_toeplitz_solve,
                      reference_levinson_durbin, reference_log_inflation,
                      reference_solve_toeplitz, same_bits)

D_VALUES = (0.1, 0.3, 0.45)


def test_order_one_weight_is_lag_one_correlation():
    model = ProcessModel.frac_noise(0.4)
    fit = yule_walker(acvf(model, 1), 1)
    assert fit.phi[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert fit.a_fit[0] == 1.0
    assert fit.a_fit[1] == pytest.approx(-2.0 / 3.0, rel=1e-14)


def test_white_noise_fit_is_zero():
    model = ProcessModel.white_noise(3.0)
    fit = yule_walker(acvf(model, 8), 8)
    assert np.array_equal(fit.phi, np.zeros(8))
    assert fit.innovation_variance == pytest.approx(3.0)


@pytest.mark.parametrize("d", D_VALUES)
@pytest.mark.parametrize("k", (4, 32, 256))
def test_levinson_matches_dense_solver(d, k):
    seq = acvf(ProcessModel.frac_noise(d), k)
    g = seq.prefix(k)
    fit = yule_walker(seq, k)
    dense = dense_toeplitz_solve(g[:k], g[1: k + 1])
    assert np.max(np.abs(fit.phi - dense)) < 1e-9


def test_yule_walker_residual():
    d, k = 0.3, 64
    seq = acvf(ProcessModel.frac_noise(d), k)
    g = seq.prefix(k)
    fit = yule_walker(seq, k)
    idx = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    residual = g[idx] @ fit.phi - g[1: k + 1]
    assert np.max(np.abs(residual)) < 1e-8 * g[0]


@pytest.mark.parametrize("d", D_VALUES)
def test_closed_form_matches_levinson(d):
    for k in (1, 8, 64, 512):
        cf = closed_form_ar_fit(d, k)
        lv = yule_walker(acvf(ProcessModel.frac_noise(d), k), k)
        assert np.max(np.abs(cf.phi - lv.phi)) < 1e-10
        assert cf.innovation_variance == pytest.approx(lv.innovation_variance,
                                                       rel=1e-10)


# the analytic_exact benchmark's rates grid, figure2's grid, and orders up to
# 12, where some or all pairs fall below the Stirling threshold and take lgamma
INFLATION_GRIDS = {
    "rates": ((0.05, 0.2, 0.3, 0.35, 0.4499), tuple(2 ** e for e in range(7, 15))),
    "figure2": (_FIGURE2_D_GRID, _FIGURE2_K_GRID),
    "small_k": ((0.01, 0.25, 0.45, 0.499), tuple(range(1, 13))),
}


@pytest.mark.parametrize("grid", INFLATION_GRIDS)
def test_inflation_matches_the_scalar_loop_bit_for_bit(grid):
    d_grid, k_grid = INFLATION_GRIDS[grid]
    for d in d_grid:
        for k in k_grid:
            assert same_bits(closed_form_log_inflation(d, k), reference_log_inflation(d, k)), (d, k)


@pytest.mark.parametrize("d", (0.2, 0.35, 0.45))
def test_fractional_noise_reflections_are_d_over_j_minus_d(d):
    # Hosking (1981): the partial autocorrelations are kappa_j = d / (j - d)
    k = 1024
    kappa = yule_walker(acvf(ProcessModel.frac_noise(d), k), k).reflections
    j = np.arange(1, k + 1)
    np.testing.assert_allclose(kappa, d / (j - d), rtol=1e-11, atol=0.0)


def test_closed_form_last_coefficient():
    # phi_k = d / (k - d) after simplifying the Gamma ratio at j = k
    cf = closed_form_ar_fit(0.4, 4)
    assert cf.phi[-1] == pytest.approx(0.4 / 3.6, rel=1e-13)
    assert cf.phi[-1] == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_closed_form_order_one():
    cf = closed_form_ar_fit(0.4, 1)
    assert cf.phi[0] == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_reflection_coefficients_closed_form():
    # partial correlations of fractional noise are d / (m - d)
    d, k = 0.3, 40
    lv = yule_walker(acvf(ProcessModel.frac_noise(d), k), k)
    m = np.arange(1, k + 1, dtype=float)
    assert np.allclose(lv.reflections, d / (m - d), rtol=1e-10)


@pytest.mark.parametrize("d", D_VALUES)
def test_fitted_sign_property(d):
    # a_j - a_{j,k} > 0 for 1 <= j <= k; checked through both routes
    from longpred.process import ar_coeffs

    for k in (16, 128, 512):
        a = ar_coeffs(ProcessModel.frac_noise(d), k).prefix(k)
        cf = closed_form_ar_fit(d, k)
        assert np.all(a[1:] - cf.a_fit[1:] > 0.0)
        lv = yule_walker(acvf(ProcessModel.frac_noise(d), k), k)
        assert np.all(a[1:] - lv.a_fit[1:] > 0.0)


def test_innovation_variance_monotone_and_floored():
    model = ProcessModel.frac_noise(0.35, noise_variance=2.0)
    seq = acvf(model, 65)
    prev = np.inf
    for k in (1, 2, 4, 8, 16, 32, 64):
        v = yule_walker(seq, k).innovation_variance
        assert v <= prev + 1e-14
        assert v >= model.noise_variance
        prev = v


@pytest.mark.parametrize("d", D_VALUES)
@pytest.mark.parametrize("k,h", [(8, 3), (32, 5), (64, 2)])
def test_projection_weights_match_dense_solver(d, k, h):
    seq = acvf(ProcessModel.frac_noise(d), k + h)
    g = seq.prefix(k + h - 1)
    w = projection_weights_at(seq, k, (h,))[0]
    dense = dense_toeplitz_solve(g[:k], g[h: h + k])
    assert np.max(np.abs(w.weights - dense)) < 1e-10
    assert w.method == "projection"


def test_projection_horizon_one_equals_yule_walker():
    seq = acvf(ProcessModel.frac_noise(0.4), 13)
    w = projection_weights_at(seq, 12, (1,))[0]
    fit = yule_walker(seq, 12)
    assert np.array_equal(w.weights, fit.phi)


def test_projection_residual():
    d, k, h = 0.35, 48, 4
    seq = acvf(ProcessModel.frac_noise(d), k + h)
    g = seq.prefix(k + h - 1)
    w = projection_weights_at(seq, k, (h,))[0]
    idx = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    residual = g[idx] @ w.weights - g[h: h + k]
    assert np.max(np.abs(residual)) < 1e-8 * g[0]


def test_projection_white_noise_is_zero():
    seq = acvf(ProcessModel.white_noise(), 10)
    for h in (1, 3):
        w = projection_weights_at(seq, 7, (h,))[0]
        assert np.array_equal(w.weights, np.zeros(7))


def test_not_positive_definite_raises():
    with pytest.raises(NotPositiveDefiniteError):
        levinson_durbin(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(NotPositiveDefiniteError):
        levinson_durbin(np.array([1.0, 1.2]))
    with pytest.raises(NotPositiveDefiniteError):
        solve_toeplitz(np.array([-1.0, 0.5]), np.array([1.0, 0.0]))


def test_variance_floor_diagnostic():
    # a nearly singular sequence trips the precision-floor guard when a
    # floor is requested
    g = np.array([1.0, 1.0 - 1e-9, 1.0 - 2e-9])
    levinson_durbin(g)  # fine without a floor
    with pytest.raises(IllConditionedError):
        levinson_durbin(g, variance_floor=1e-3)


def test_too_short_acvf_rejected():
    seq = acvf(ProcessModel.frac_noise(0.3), 5)
    with pytest.raises(ValueError):
        yule_walker(seq, 6)
    with pytest.raises(ValueError):
        projection_weights_at(seq, 5, (2,))[0]


def test_toeplitz_system_solve():
    g = acvf(ProcessModel.frac_noise(0.3), 6).prefix(5)
    rhs = np.array([0.3, -0.1, 0.7, 0.0, 1.0])
    x = solve_toeplitz(g[:5], rhs)
    assert np.max(np.abs(x - dense_toeplitz_solve(g[:5], rhs))) < 1e-11


@given(st.integers(min_value=1, max_value=24),
       st.floats(min_value=0.05, max_value=0.45),
       st.integers(min_value=1, max_value=6))
def test_general_solve_agrees_with_dense(k, d, h):
    seq = acvf(ProcessModel.frac_noise(d), k + h)
    g = seq.prefix(k + h - 1)
    x = solve_toeplitz(g[:k], g[h: h + k])
    dense = dense_toeplitz_solve(g[:k], g[h: h + k])
    assert np.max(np.abs(x - dense)) < 1e-10 * max(1.0, np.max(np.abs(dense)))


@given(st.lists(st.floats(min_value=-0.6, max_value=0.6), min_size=1, max_size=4))
def test_levinson_on_random_invertible_ma(theta):
    # random finite MA models give PD covariances; Levinson must match the
    # dense solve on all of them (coefficient sum < 1 keeps them invertible)
    coeffs = np.concatenate([[1.0], 0.2 * np.asarray(theta)])
    model = ProcessModel.generic_ma(coeffs)
    k = 10
    seq = acvf(model, k)
    fit = yule_walker(seq, k)
    g = seq.prefix(k)
    dense = dense_toeplitz_solve(g[:k], g[1: k + 1])
    assert np.max(np.abs(fit.phi - dense)) < 1e-9


# The Levinson kernel behind levinson_durbin and solve_toeplitz must
# reproduce the two loops written out apart (tests/_oracles.py) bit for bit.
KERNEL_MODELS = {
    "frac_noise_0.05": ProcessModel.frac_noise(0.05),
    "frac_noise_0.3": ProcessModel.frac_noise(0.3),
    "frac_noise_0.49": ProcessModel.frac_noise(0.49),
    "farima_1_d_1": ProcessModel.farima(0.3, ar=(0.4,), ma=(-0.3,)),
    "arma_0.9": ProcessModel.arma(ar=(0.9,)),
    "finite_ma": ProcessModel.generic_ma([1.0, 0.2, -0.1, 0.05]),
}
KERNEL_K = (1, 2, 3, 50, 1024)
KERNEL_H = (1, 2, 7)
# horizon tuples of the batched paths: every h up to 7, unsorted, and no h = 1
KERNEL_HORIZONS = (tuple(range(1, 8)), (7, 2), (5,))


@functools.lru_cache(maxsize=None)
def _kernel_seq(name: str) -> CoefSeq:
    return acvf(KERNEL_MODELS[name], max(KERNEL_K) + max(KERNEL_H))


def _kernel_acvf(name: str) -> np.ndarray:
    return np.array(_kernel_seq(name).values)


def _outcome(fn, *args):
    """Arrays fn(*args) returns, or the type and message of what it raised."""
    try:
        out = fn(*args)
    except (NotPositiveDefiniteError, IllConditionedError) as exc:
        return type(exc), str(exc)
    return tuple(np.atleast_1d(a) for a in (out if isinstance(out, tuple) else (out,)))


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
        else:
            assert g == w


@pytest.mark.parametrize("k", KERNEL_K)
@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_levinson_kernel_bitwise_matches_reference_loops(name, k):
    g = _kernel_acvf(name)
    floor = _VARIANCE_FLOOR_REL * KERNEL_MODELS[name].noise_variance
    _assert_bitwise(_outcome(levinson_durbin, g[: k + 1], floor),
                    _outcome(reference_levinson_durbin, g[: k + 1], floor))
    for h in KERNEL_H:
        _assert_bitwise(_outcome(solve_toeplitz, g[:k], g[h: h + k], floor),
                        _outcome(reference_solve_toeplitz, g[:k], g[h: h + k], floor))


@pytest.mark.parametrize("g, floor", [
    (np.array([1.0, 1.0 - 1e-9, 1.0 - 2e-9]), 1e-3),  # floor at order 1
    (np.array([1.0, 0.5, 0.9, 0.2]), 0.5),            # floor at order 2
    (np.array([1.0, 1.2, 0.3]), 0.0),                 # not PD at order 1
    (np.array([-1.0, 0.5, 0.1]), 0.0),                # not PD at order 0
])
def test_levinson_kernel_fails_like_reference_loops(g, floor):
    want = _outcome(reference_levinson_durbin, g, floor)
    assert isinstance(want, tuple) and isinstance(want[0], type)
    assert _outcome(levinson_durbin, g, floor) == want
    rhs = np.linspace(1.0, 0.5, g.size)
    assert _outcome(solve_toeplitz, g, rhs, floor) == \
        _outcome(reference_solve_toeplitz, g, rhs, floor)
    # several right-hand sides fail once, like each of them alone
    assert _outcome(solve_toeplitz, g, np.stack([rhs, rhs[::-1], -rhs]), floor) == \
        _outcome(reference_solve_toeplitz, g, rhs, floor)


@pytest.mark.parametrize("k", KERNEL_K)
@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_batched_kernel_bitwise_matches_reference_loops(name, k):
    g = _kernel_acvf(name)
    floor = _VARIANCE_FLOOR_REL * KERNEL_MODELS[name].noise_variance
    solves = {h: _outcome(reference_solve_toeplitz, g[:k], g[h: h + k], floor)
              for h in range(1, 8)}
    # the single-horizon routes: Yule-Walker at h = 1, a solve otherwise
    singles = {**solves, 1: _outcome(lambda: reference_levinson_durbin(g[: k + 1], floor)[0])}
    for hs in KERNEL_HORIZONS:
        # every row of one 2-d solve carries the bits of its own 1-d solve
        got = _outcome(solve_toeplitz, g[:k], np.array([g[h: h + k] for h in hs]), floor)
        for row, h in enumerate(hs):
            _assert_bitwise((got[0][row],) if isinstance(got[0], np.ndarray) else got,
                            solves[h])
        # a horizon tuple gives each h the weights of its single-horizon route,
        # or fails like the first of them that fails
        got = _outcome(lambda: tuple(w.weights for w in
                                     projection_weights_at(_kernel_seq(name), k, hs)))
        failed = [singles[h] for h in sorted(hs) if isinstance(singles[h][0], type)]
        if failed:
            assert got == failed[0]
            continue
        for w, h in zip(got, hs):
            _assert_bitwise((w,), singles[h])
    for h in (1, 5):
        one = _outcome(lambda: projection_weights_at(_kernel_seq(name), k, (h,))[0].weights)
        _assert_bitwise(one, singles[h])


def test_batched_kernel_bitwise_above_the_blas_threading_threshold():
    # OpenBLAS splits dot products of more than about 10^4 terms across
    # threads; each row's residual must still carry its one-row solve's bits
    k, hs = 12000, (7, 2)
    seq = acvf(ProcessModel.frac_noise(0.3), k + max(hs))
    g = np.array(seq.values)
    for w, h in zip(projection_weights_at(seq, k, hs), hs):
        _assert_bitwise((w.weights,),
                        (reference_solve_toeplitz(g[:k], g[h: h + k], _VARIANCE_FLOOR_REL),))


def test_predictor_bitwise_above_the_blas_threading_threshold():
    # the predictor's own dots split across threads too; phi, v and kappa
    # must keep the reference loop's bits
    g = np.array(acvf(ProcessModel.frac_noise(0.3), 12000).values)
    _assert_bitwise(_outcome(levinson_durbin, g, _VARIANCE_FLOOR_REL),
                    _outcome(reference_levinson_durbin, g, _VARIANCE_FLOOR_REL))


@pytest.mark.parametrize("d", (0.3, 0.45))
def test_yule_walker_bitwise_at_the_benchmark_order(d):
    # the order fit --k 16384 runs at
    k = 16384
    seq = acvf(ProcessModel.frac_noise(d), k)
    fit = yule_walker(seq, k)
    _assert_bitwise((fit.phi, fit.innovation_variance, fit.reflections),
                    reference_levinson_durbin(seq.prefix(k), _VARIANCE_FLOOR_REL))


# (median, worst) relative error of phi at k = 1024 against 60 digits;
# measured: d = 0.1 2.6e-14, 6.0e-14; 0.3 7.2e-14, 4.9e-13; 0.45 3.4e-12, 3.7e-11
FIT_PHI_BOUNDS = {0.1: (1e-13, 2.5e-13), 0.3: (3e-13, 2e-12), 0.45: (1.5e-11, 1.5e-10)}


@pytest.mark.parametrize("d", D_VALUES)
def test_fit_phi_matches_60_digit_reference(d):
    k = 1024
    phi = yule_walker(acvf(ProcessModel.frac_noise(d), k), k).phi
    rel = np.array([float(abs((Decimal(float(p)) - r) / r))
                    for p, r in zip(phi, decimal_fit_phi(d, k))])
    median_bound, worst_bound = FIT_PHI_BOUNDS[d]
    assert np.median(rel) <= median_bound and rel.max() <= worst_bound


def test_horizons_without_one_skip_the_order_k_variance_check():
    # only the order-k predictor sees the order-1 variance 1 - 0.9999^2 ~ 2e-4,
    # below the floor 1e-3; the h >= 2 solves stop at order k - 1 = 0
    g = np.array([1.0, 0.9999, 0.9998, 0.9997, 0.9996, 0.9995])
    seq = CoefSeq(ProcessModel.white_noise(), ACVF, g)
    with pytest.raises(IllConditionedError, match="at order 1"):
        projection_weights_at(seq, 1, (5, 1))
    w2, w5 = projection_weights_at(seq, 1, (2, 5))
    assert w2.weights[0] == 0.9998 and w5.weights[0] == 0.9995


def test_horizon_tuple_validation():
    seq = acvf(ProcessModel.frac_noise(0.3), 12)
    for k, hs in [(0, (1,)), (4, ()), (4, (2, 0)), (4, (1, -3))]:
        with pytest.raises(ValueError):
            projection_weights_at(seq, k, hs)
    with pytest.raises(ValueError):
        projection_weights_at(seq, 4, (1, 10))  # needs sigma(0..13)
    with pytest.raises(ValueError):
        solve_toeplitz(seq.prefix(3), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        solve_toeplitz(seq.prefix(3), np.zeros((2, 2, 4)))


def test_two_dimensional_rhs_keeps_its_shape():
    g = acvf(ProcessModel.frac_noise(0.3), 6).prefix(3)
    rhs = np.array([[0.3, -0.1, 0.7, 1.0], [1.0, 0.0, 0.0, 0.0]])
    x = solve_toeplitz(g, rhs)
    assert x.shape == (2, 4)
    assert np.array_equal(solve_toeplitz(g, rhs[:1]), x[:1])
    assert np.max(np.abs(x[1] - dense_toeplitz_solve(g, rhs[1]))) < 1e-12
