import numpy as np
import pytest
from hypothesis import given, strategies as st

from longpred.predict import PredictorWeights, forecast, truncated_wk_weights_at
from longpred.process import ProcessModel, ar_coeffs, ma_coeffs

from _oracles import (infinite_past_coeffs, recursive_truncated_forecast,
                      reference_truncated_wk_weights)


def test_one_step_weights_are_negated_ar_coefficients():
    model = ProcessModel.frac_noise(0.4)
    w = truncated_wk_weights_at(ar_coeffs(model, 2), 2, (1,))[0]
    assert np.allclose(w.weights, [0.4, 0.12], atol=1e-15)
    a = ar_coeffs(model, 5).prefix(5)
    w5 = truncated_wk_weights_at(ar_coeffs(model, 5), 5, (1,))[0]
    assert np.array_equal(w5.weights, -a[1:6])


def test_two_step_weights_by_hand():
    # w(2) = -a_1 w(1) - (a_2, a_3)
    model = ProcessModel.frac_noise(0.4)
    a = ar_coeffs(model, 3).prefix(3)
    w = truncated_wk_weights_at(ar_coeffs(model, 3), 2, (2,))[0]
    expected = -a[1] * np.array([-a[1], -a[2]]) - np.array([a[2], a[3]])
    assert np.allclose(w.weights, expected, atol=1e-15)
    # pattern a_1 a_j - a_{j+1} on the truncated range
    assert np.allclose(w.weights, [a[1] * a[1] - a[2], a[1] * a[2] - a[3]],
                       atol=1e-15)


def test_white_noise_has_nothing_to_predict():
    model = ProcessModel.white_noise()
    for h in (1, 2, 7):
        w = truncated_wk_weights_at(ar_coeffs(model, 6 + h - 1), 6, (h,))[0]
        assert np.array_equal(w.weights, np.zeros(6))


def test_forecast_dot_product():
    w = PredictorWeights(np.array([0.4, 0.12]), k=2, h=1, method="truncated_wk")
    assert forecast(w, np.array([1.0, 1.0])) == pytest.approx(0.52)
    # X_1 receives the smallest lag weight
    assert forecast(w, np.array([2.0, 1.0])) == pytest.approx(0.4 + 0.24)


def test_forecast_zero_weights():
    w = PredictorWeights(np.zeros(3), k=3, h=1, method="truncated_wk")
    assert forecast(w, np.array([5.0, -2.0, 1.0])) == 0.0


def test_forecast_length_mismatch():
    w = PredictorWeights(np.zeros(3), k=3, h=1, method="truncated_wk")
    with pytest.raises(ValueError):
        forecast(w, np.zeros(4))


@pytest.mark.parametrize("h", (1, 2, 3, 7, 20))
def test_unrolled_weights_match_literal_recursion(h):
    model = ProcessModel.frac_noise(0.3)
    k = 100
    rng = np.random.default_rng(12345)
    obs = rng.standard_normal(k)
    a = ar_coeffs(model, h + k).prefix(h + k)
    w = truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0]
    unrolled = forecast(w, obs)
    literal = recursive_truncated_forecast(a, k, h, obs)
    assert unrolled == pytest.approx(literal, rel=1e-12, abs=1e-12)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=9),
       st.floats(min_value=0.05, max_value=0.45))
def test_unrolled_weights_match_recursion_property(k, h, d):
    model = ProcessModel.frac_noise(d)
    rng = np.random.default_rng(k * 1000 + h)
    obs = rng.standard_normal(k)
    a = ar_coeffs(model, h + k).prefix(h + k)
    w = truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0]
    assert forecast(w, obs) == pytest.approx(
        recursive_truncated_forecast(a, k, h, obs), rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("h", (1, 2, 5, 11))
def test_unrolled_weights_closed_form(h):
    # w_j(h) = -sum_{m=0..h-1} b_m a_{j+h-1-m}
    model = ProcessModel.frac_noise(0.35)
    k = 40
    a = ar_coeffs(model, h + k).prefix(h + k)
    b = ma_coeffs(model, h - 1).prefix(h - 1)
    w = truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0]
    j = np.arange(1, k + 1)
    expected = -np.array([np.dot(b, a[jj + h - 1: jj - 1 if jj >= 1 else None: -1])
                          for jj in j])
    assert np.allclose(w.weights, expected, rtol=1e-12, atol=1e-14)


def test_infinite_past_coeffs_shift():
    model = ProcessModel.frac_noise(0.4)
    b = ma_coeffs(model, 10).prefix(10)
    assert np.array_equal(infinite_past_coeffs(model, 1, 9), b[1:])
    assert infinite_past_coeffs(model, 3, 5)[0] == b[3]


def test_infinite_past_coeffs_white_noise():
    got = infinite_past_coeffs(ProcessModel.white_noise(), 2, 6)
    assert np.array_equal(got, np.zeros(7))


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        PredictorWeights(np.zeros(3), k=4, h=1, method="truncated_wk")
    with pytest.raises(ValueError):
        PredictorWeights(np.zeros(3), k=3, h=0, method="truncated_wk")
    with pytest.raises(ValueError):
        PredictorWeights(np.zeros(3), k=3, h=1, method="nonsense")


STACK_MODELS = {
    "frac_noise_0.3": ProcessModel.frac_noise(0.3),
    "frac_noise_0.49": ProcessModel.frac_noise(0.49),
    "farima_1_d_1": ProcessModel.farima(0.3, ar=(0.4,), ma=(-0.3,)),
    "arma_0.9": ProcessModel.arma(ar=(0.9,)),
    "finite_ma": ProcessModel.generic_ma([1.0, 0.2, -0.1, 0.05]),
}


@pytest.mark.parametrize("k", (1, 3, 50, 1024))
@pytest.mark.parametrize("name", sorted(STACK_MODELS))
def test_one_stack_bitwise_matches_per_horizon_loop(name, k):
    ar = ar_coeffs(STACK_MODELS[name], k + 6)
    a = ar.prefix(k + 6)
    for hs in (tuple(range(1, 8)), (7, 2), (5,)):
        got = truncated_wk_weights_at(ar, k, hs)
        assert [w.h for w in got] == list(hs)
        for w, h in zip(got, hs):
            want = reference_truncated_wk_weights(a, k, h)
            for weights in (w.weights, truncated_wk_weights_at(ar, k, (h,))[0].weights):
                assert np.array_equal(weights, want)
                assert np.array_equal(np.signbit(weights), np.signbit(want))


def test_stack_reads_the_longest_horizon_prefix():
    ar = ar_coeffs(ProcessModel.frac_noise(0.3), 12)
    truncated_wk_weights_at(ar, 6, (7, 2))  # a_0..a_12
    with pytest.raises(IndexError):
        truncated_wk_weights_at(ar, 6, (2, 8))
    for k, hs in [(0, (1,)), (6, ()), (6, (0, 2))]:
        with pytest.raises(ValueError):
            truncated_wk_weights_at(ar, k, hs)


def test_weights_are_a_read_only_contiguous_copy():
    source = np.arange(8.0)
    w = PredictorWeights(source[::2], k=4, h=1, method="projection")
    assert w.weights.flags.c_contiguous and not w.weights.flags.writeable
    assert w.weights.dtype == np.float64
    assert np.array_equal(w.weights, [0.0, 2.0, 4.0, 6.0])
    source[:] = -1.0
    assert np.array_equal(w.weights, [0.0, 2.0, 4.0, 6.0])
    with pytest.raises(ValueError):
        w.weights[0] = 1.0
    # rows of one batch share no memory
    ar = ar_coeffs(ProcessModel.frac_noise(0.3), 12)
    w1, w2 = truncated_wk_weights_at(ar, 6, (1, 2))
    assert not np.shares_memory(w1.weights, w2.weights)
