import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longpred import special
from longpred.special import log_gamma_diff

from _oracles import gamma_by_quadrature, reference_log_gamma_diff, same_bits


def test_only_the_log_gamma_difference_is_public():
    assert special.__all__ == ["log_gamma_diff"]


@pytest.mark.parametrize("x, y", [(0.3, 0.7), (-0.4, 1.4), (1.5, 9.99), (9.5, 25.0),
                                  (25.0, 3.0), (0.5, 1e6)])
def test_small_arguments_subtract_lgamma(x, y):
    # below 10 the difference is plain lgamma subtraction, bit for bit
    assert log_gamma_diff(x, y) == math.lgamma(x) - math.lgamma(y)


@pytest.mark.parametrize("x, y", [(10.0, 50.0), (12.25, 10.5), (17.3, 23.9),
                                  (31.0, 30.5), (44.4, 11.1), (50.0, 49.9)])
def test_large_arguments_against_quadrature(x, y):
    expected = gamma_by_quadrature(x) / gamma_by_quadrature(y)
    assert math.exp(log_gamma_diff(x, y)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("y", [10.5, 123.25, 16384.51, 1e6 + 0.3])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_integer_shift_is_a_sum_of_logs(y, n):
    # Gamma(y + n) / Gamma(y) = y (y + 1) ... (y + n - 1).  Subtracting two
    # lgamma values misses this by 2e-12 at y = 16384.51 and by 1.3e-10 at
    # 1e6 + 0.3; pairing the arguments keeps it to rounding.
    expected = math.fsum(math.log(y + i) for i in range(n))
    assert log_gamma_diff(y + n, y) == pytest.approx(expected, rel=1e-14)


@given(st.floats(min_value=10.0, max_value=1e6))
def test_functional_equation(x):
    # Gamma(y + 1) = y Gamma(y) at a y whose successor y + 1 is exact
    y = (x + 1.0) - 1.0
    assert log_gamma_diff(y + 1.0, y) == pytest.approx(math.log(y), rel=1e-14)


# pairs on both sides of the Stirling threshold 10: x < 10 <= y, y < 10 <= x,
# both below (no poles; Gamma(-0.4) < 0, where math.log would raise) and both
# above
STRADDLING = [(0.3, 12.0), (-0.4, 10.0), (9.99, 10.0), (12.0, 0.3), (10.0, -0.4),
              (25.0, 3.0), (0.3, 0.7), (-0.4, 1.4), (9.5, 9.9), (10.0, 50.0),
              (16384.7, 16384.0), (31.0, 30.5)]


def test_array_call_carries_the_bits_of_scalar_calls():
    x, y = np.array(STRADDLING).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_gamma_diff(x, y)
    assert same_bits(got, [log_gamma_diff(a, b) for a, b in STRADDLING])


def test_logs_are_the_c_librarys():
    # numpy's SIMD log and log1p differ from libm by an ulp on some
    # arguments; of these 10^5 pairs in [10, 20000], half independent and
    # half (y - d, y) as in the inflation, numpy's logs move about 500 results
    # on an AVX-512 host
    rng = np.random.default_rng(3)
    y = rng.uniform(10.0, 20000.0, 100_000)
    x = np.concatenate([rng.uniform(10.0, 20000.0, 50_000),
                        y[50_000:] - rng.uniform(0.0, 0.5, 50_000)])
    want = [reference_log_gamma_diff(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert same_bits(log_gamma_diff(x, y), want)
    assert all(log_gamma_diff(a, b) == w for a, b, w in zip(x[::500], y[::500], want[::500]))


def test_scalars_give_a_float_and_arrays_keep_their_shape():
    assert type(log_gamma_diff(12.0, 11.5)) is float
    assert type(log_gamma_diff(np.float64(3.0), 2)) is float
    zero_d = log_gamma_diff(np.array(12.0), 11.5)
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert zero_d == log_gamma_diff(12.0, 11.5)
    x = np.array([[0.3, 12.0, 40.0], [9.0, 10.0, 1e4]])
    y = np.array([20.0, 5.0, 300.0])
    got = log_gamma_diff(x, y)
    assert got.shape == (2, 3)
    assert same_bits(got, [[log_gamma_diff(a, b) for a, b in zip(row, y)] for row in x])
    assert log_gamma_diff(np.empty(0), 11.5).shape == (0,)
