import numpy as np
import pytest
from hypothesis import given, strategies as st

from longpred.predict import (PredictorWeights, forecast, infinite_past_coeffs,
                              truncated_wk_weights)
from longpred.process import ProcessModel, ar_coeffs, ma_coeffs

from _oracles import recursive_truncated_forecast


def test_one_step_weights_are_negated_ar_coefficients():
    model = ProcessModel.frac_noise(0.4)
    w = truncated_wk_weights(model, 2, 1)
    assert np.allclose(w.weights, [0.4, 0.12], atol=1e-15)
    a = ar_coeffs(model, 5).prefix(5)
    w5 = truncated_wk_weights(model, 5, 1)
    assert np.array_equal(w5.weights, -a[1:6])


def test_two_step_weights_by_hand():
    # w(2) = -a_1 w(1) - (a_2, a_3)
    model = ProcessModel.frac_noise(0.4)
    a = ar_coeffs(model, 3).prefix(3)
    w = truncated_wk_weights(model, 2, 2)
    expected = -a[1] * np.array([-a[1], -a[2]]) - np.array([a[2], a[3]])
    assert np.allclose(w.weights, expected, atol=1e-15)
    # pattern a_1 a_j - a_{j+1} on the truncated range
    assert np.allclose(w.weights, [a[1] * a[1] - a[2], a[1] * a[2] - a[3]],
                       atol=1e-15)


def test_white_noise_has_nothing_to_predict():
    model = ProcessModel.white_noise()
    for h in (1, 2, 7):
        w = truncated_wk_weights(model, 6, h)
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
    w = truncated_wk_weights(model, k, h)
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
    w = truncated_wk_weights(model, k, h)
    assert forecast(w, obs) == pytest.approx(
        recursive_truncated_forecast(a, k, h, obs), rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("h", (1, 2, 5, 11))
def test_unrolled_weights_closed_form(h):
    # w_j(h) = -sum_{m=0..h-1} b_m a_{j+h-1-m}
    model = ProcessModel.frac_noise(0.35)
    k = 40
    a = ar_coeffs(model, h + k).prefix(h + k)
    b = ma_coeffs(model, h - 1).prefix(h - 1)
    w = truncated_wk_weights(model, k, h)
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
