import math

import pytest
from hypothesis import given, strategies as st

from longpred import special
from longpred.special import log_gamma_diff

from _oracles import gamma_by_quadrature


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
