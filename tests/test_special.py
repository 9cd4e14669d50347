import math

import pytest
from hypothesis import given, strategies as st

from longpred.errors import PoleError
from longpred.special import SignedLogValue, gamma_ratio, log_gamma

from _oracles import gamma_by_quadrature


def test_gamma_of_one():
    g = log_gamma(1.0)
    assert g.sign == 1
    assert g.log_magnitude == pytest.approx(0.0, abs=1e-15)


def test_gamma_of_half():
    g = log_gamma(0.5)
    assert g.sign == 1
    assert g.log_magnitude == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)


def test_gamma_negative_by_reflection():
    # Gamma(-0.4) = pi / (sin(-0.4 pi) Gamma(1.4)), with Gamma(1.4) from
    # quadrature so the check shares nothing with log_gamma
    expected = math.pi / (math.sin(-0.4 * math.pi) * gamma_by_quadrature(1.4))
    g = log_gamma(-0.4)
    assert g.sign == -1
    assert g.value() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_gamma_pole(x):
    with pytest.raises(PoleError):
        log_gamma(x)


@pytest.mark.parametrize("x", [0.3, 1.7, 5.25, 12.0, 37.5, 49.9, -0.7, -3.3, -49.5])
def test_gamma_against_quadrature(x):
    # positive axis directly; negative axis through the reflection formula
    if x > 0:
        expected = gamma_by_quadrature(x)
    else:
        expected = math.pi / (math.sin(math.pi * x) * gamma_by_quadrature(1.0 - x))
    assert log_gamma(x).value() == pytest.approx(expected, rel=1e-13)


def test_gamma_ratio_identity():
    assert gamma_ratio([2.0], [2.0]).value() == pytest.approx(1.0, abs=1e-15)


def test_gamma_ratio_functional_equation_example():
    # Gamma(1 - d) = -d Gamma(-d)
    assert gamma_ratio([1 - 0.4], [-0.4]).value() == pytest.approx(-0.4, rel=1e-13)


def test_gamma_ratio_matches_composition():
    d = 0.3
    direct = gamma_ratio([1 - 2 * d], [1 - d, 1 - d])
    composed = log_gamma(1 - 2 * d).log_magnitude - 2 * log_gamma(1 - d).log_magnitude
    assert direct.log_magnitude == pytest.approx(composed, rel=1e-13)
    assert direct.sign == 1


def test_gamma_ratio_avoids_overflow():
    # each factor overflows a float; the ratio must not
    r = gamma_ratio([300.5, 10.0], [299.5, 11.0])
    assert r.value() == pytest.approx(299.5 / 10.0, rel=1e-12)


@given(st.floats(min_value=-40.0, max_value=40.0).filter(
    lambda x: abs(x - round(x)) > 1e-3 or x > 0.5))
def test_functional_equation(x):
    # Gamma(x + 1) = x Gamma(x) for every non-pole argument
    lhs = gamma_ratio([x + 1.0], [x])
    assert lhs.value() == pytest.approx(x, rel=1e-13, abs=1e-13)


@given(st.floats(min_value=-30.0, max_value=-0.01).filter(
    lambda x: abs(x - round(x)) > 1e-3))
def test_negative_axis_sign_alternation(x):
    assert log_gamma(x).sign == (-1 if math.ceil(-x) % 2 else 1)


def test_signed_log_zero():
    z = SignedLogValue(0.0, 0)
    assert z.sign == 0
    assert z.value() == 0.0
