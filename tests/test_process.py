import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longpred import process
from longpred.cli import main
from longpred.errors import CertificationError, ModelError
from longpred.process import (ACVF, AR, DEFAULT_ACVF_TOL, MA, ProcessModel, _ma_series,
                              acvf, ar_coeffs, ma_coeffs)
from longpred.special import log_gamma_diff

from _oracles import (arma_acvf_brute, brute_orthogonality_sum, decimal_farima_acvf,
                      decimal_frac_noise, decimal_log_gamma, decimal_pi, read_csv, reference_block_ratio_acvf,
                      fraction_arma_acvf, fraction_rational_series, reference_dot_rational_series,
                      reference_filtered_core, reference_lag_products,
                      reference_rational_series, same_bits, verify_decay)

D_VALUES = (0.05, 0.25, 0.45)


# -- model construction ------------------------------------------------------

@pytest.mark.parametrize("d", [0.0, 0.5, -0.1, 0.73])
def test_memory_parameter_rejected_outside_range(d):
    with pytest.raises(ModelError):
        ProcessModel.frac_noise(d)


def test_noise_variance_must_be_positive():
    for noise_variance in (0.0, math.inf, math.nan):
        with pytest.raises(ModelError):
            ProcessModel.frac_noise(0.3, noise_variance=noise_variance)


def test_farima_unit_root_rejected():
    with pytest.raises(ModelError):
        ProcessModel.farima(0.3, ar=(1.0,))
    with pytest.raises(ModelError):
        ProcessModel.farima(0.3, ma=(-1.0,))
    ProcessModel.farima(0.3, ar=(0.5,), ma=(0.4,))  # stable case constructs


def test_generic_ma_leading_one_required():
    with pytest.raises(ModelError):
        ProcessModel.generic_ma((0.5, 1.0))


def test_generic_models_are_comparable_values():
    finite = ProcessModel.generic_ma((1.0, 0.5))
    equal = [
        (ProcessModel.arma(ar=(0.5,), ma=(0.3,)), ProcessModel.arma([0.5], np.array([0.3]))),
        (finite, ProcessModel.generic_ma(np.array([1.0, 0.5]))),
        (finite, ProcessModel.arma(ma=(0.5,))),
        (finite, ProcessModel(kind="generic_ma", ma_filter=([1, 0.5], [1]))),
        (ProcessModel.white_noise(2.0), ProcessModel.generic_ma((1.0,), noise_variance=2.0)),
    ]
    for a, b in equal:
        assert a == b and hash(a) == hash(b)
    different = [
        ProcessModel.arma(ar=(0.5,), ma=(0.3,)), ProcessModel.arma(ar=(0.5,)),
        finite, ProcessModel.farima(0.3, ma=(0.5,)),
        ProcessModel.generic_ma((1.0, 0.5), noise_variance=2.0),
        ProcessModel.white_noise(), ProcessModel.white_noise(2.0),
    ]
    assert len(set(different)) == len(different)


def test_farima_models_are_comparable_values():
    model = ProcessModel.farima(0.3, ar=(0.5,), ma=(0.3,))
    same = ProcessModel.farima(0.3, ar=[0.5], ma=np.array([0.3]))
    assert model == same and hash(model) == hash(same)
    arma = ProcessModel.arma(ar=(0.5,), ma=(0.3,))
    assert model.ma_filter == arma.ma_filter and model != arma
    different = [model, arma, ProcessModel.farima(0.2, ar=(0.5,), ma=(0.3,)),
                 ProcessModel.farima(0.3, ar=(0.5,)), ProcessModel.farima(0.3, ma=(0.3,))]
    assert len(set(different)) == len(different)


def test_farima_describe_keeps_signed_zeros():
    head = "kind=farima d=0.29999999999999999 noise_variance=1"
    assert (ProcessModel.farima(0.3, ar=(-0.0,), ma=(0.3, -0.0)).describe()
            == head + " ar=-0 ma=0.29999999999999999,-0")
    assert ProcessModel.farima(0.3, ar=(0.5, 0.0)).describe() == head + " ar=0.5,0"
    assert ProcessModel.farima(0.3).describe() == head


@pytest.mark.parametrize("fields", [
    {"kind": "generic_ma", "d": 0.3, "ma_filter": ((1.0,), (1.0,))},  # d on a generic model
    {"kind": "farima", "d": 0.3},                                     # FARIMA with no filter
    {"kind": "frac_noise", "d": 0.3, "ma_filter": ((1.0,), (1.0,))},  # filter on frac_noise
    {"kind": "farima", "ma_filter": ((1.0,), (1.0,))},                # FARIMA with no d
])
def test_model_fields_checked_on_construction(fields):
    with pytest.raises(ModelError):
        ProcessModel(**fields)


@pytest.mark.parametrize("ma_filter", [
    ((0.5, 1.0), (1.0,)),   # leading num coefficient != 1
    ((1.0,), (2.0, 0.5)),   # leading den coefficient != 1
    ((1.0, 2.0), (1.0,)),   # num has a root inside the unit disk
    ((1.0,), (1.0, -1.0)),  # den has a unit root
    ((1.0, math.nan), (1.0,)),  # non-finite num
    ((1.0,), (1.0, -math.inf)),  # non-finite den
])
def test_generic_ma_filter_checked_on_construction(ma_filter):
    with pytest.raises(ModelError):
        ProcessModel(kind="generic_ma", ma_filter=ma_filter)


# -- fractional-noise coefficients -------------------------------------------

def test_ar_first_coefficient():
    assert ar_coeffs(ProcessModel.frac_noise(0.4), 1)[1] == pytest.approx(-0.4)


def test_ar_second_coefficient_oracle():
    # a_2 = a_1 (1 - d) / 2; direct Gamma-ratio evaluation as oracle
    d = 0.3
    got = ar_coeffs(ProcessModel.frac_noise(d), 2)[2]
    assert got == pytest.approx(-0.105, abs=1e-15)
    oracle = math.gamma(2.0 - d) / (math.gamma(3.0) * math.gamma(-d))
    assert got == pytest.approx(oracle, rel=1e-13)


def test_ma_small_orders():
    assert ma_coeffs(ProcessModel.frac_noise(0.4), 1)[1] == pytest.approx(0.4)
    # b_3 = d (1 + d) (2 + d) / 6 from the product expansion
    d = 0.25
    assert ma_coeffs(ProcessModel.frac_noise(d), 3)[3] == pytest.approx(
        d * (1 + d) * (2 + d) / 6.0, rel=1e-14)
    assert ma_coeffs(ProcessModel.frac_noise(d), 3)[3] == pytest.approx(0.1171875)


def test_ar_ma_convolve_to_identity():
    model = ProcessModel.frac_noise(0.45)
    n = 200
    a = ar_coeffs(model, n).prefix(n)
    b = ma_coeffs(model, n).prefix(n)
    conv = np.convolve(a, b)[: n + 1]
    assert conv[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(conv[1:])) < 1e-10


def test_acvf_ratio_and_closed_form():
    d = 0.4
    g = acvf(ProcessModel.frac_noise(d), 1)
    assert g[1] / g[0] == pytest.approx(d / (1 - d), rel=1e-14)
    # both lags against direct Gamma-ratio evaluation
    s0 = math.gamma(1 - 2 * d) / math.gamma(1 - d) ** 2
    s1 = -math.gamma(1 - 2 * d) / (math.gamma(2 - d) * math.gamma(-d))
    assert g[0] == pytest.approx(s0, rel=1e-13)
    assert g[1] == pytest.approx(s1, rel=1e-13)


def test_acvf_vanishing_memory_approaches_white_noise():
    # sigma(j) -> 0 for j >= 1 as d -> 0 while sigma(0) -> noise variance
    g = acvf(ProcessModel.frac_noise(1e-6), 5).prefix(5)
    assert g[0] == pytest.approx(1.0, abs=1e-5)
    assert np.all(np.abs(g[1:]) < 1e-5)


def test_acvf_scales_with_noise_variance():
    g1 = acvf(ProcessModel.frac_noise(0.3), 5).prefix(5)
    g2 = acvf(ProcessModel.frac_noise(0.3, noise_variance=2.5), 5).prefix(5)
    assert np.allclose(g2, 2.5 * g1, rtol=1e-14)


# sigma(0) = Gamma(1-2d) / Gamma(1-d)^2 to the bit: a change in how its
# log-Gamma terms are summed moves golden output bytes
SIGMA0_BITS = {  # (d, noise_variance): sigma(0)
    (0.01, 1.0): "0x1.000af0f4a8737p+0", (0.05, 1.0): "0x1.012389b0f3b39p+0",
    (0.25, 1.0): "0x1.2e2acd2eea49dp+0", (0.3, 1.0): "0x1.510343b57824dp+0",
    (0.4, 1.0): "0x1.08f8fb5f5371fp+1", (0.45, 1.0): "0x1.d23b22538a659p+1",
    (0.49, 1.0): "0x1.05c3bc6960b23p+4", (0.4999, 1.0): "0x1.8dff683ca4da2p+10",
    (0.3, 2.5): "0x1.a54414a2d62e0p+1",
}


@pytest.mark.parametrize("d, noise_variance", sorted(SIGMA0_BITS))
def test_sigma0_bits_are_pinned(d, noise_variance):
    got = acvf(ProcessModel.frac_noise(d, noise_variance=noise_variance), 0)[0]
    assert got == float.fromhex(SIGMA0_BITS[d, noise_variance])


EPS = np.finfo(float).eps


def _relative_errors(values, reference):
    """|v_j - ref_j| / |ref_j| of each float against its decimal reference."""
    return np.array([float(abs((Decimal(float(v)) - r) / r)) for v, r in zip(values, reference)])


def test_decimal_log_gamma_self_checks():
    with localcontext() as ctx:
        ctx.prec = 60
        pi = decimal_pi()
        assert abs((2 * decimal_log_gamma(0.5)).exp() - pi) <= Decimal("1e-50") * pi
    for x in (0.1, 0.37, 0.5, 0.9, 1.0):
        ref = math.gamma(x)
        assert abs(float(decimal_log_gamma(x).exp()) - ref) <= math.ulp(ref)


@pytest.mark.parametrize("d", (0.01, 0.05, 0.1, 0.25, 0.3, 0.4, 0.45, 0.49, 0.4999))
def test_sigma0_matches_60_digit_reference(d):
    # worst measured: 6.1 eps at d = 0.45
    _, _, sigma = decimal_frac_noise(d, 0)
    got = acvf(ProcessModel.frac_noise(d), 0).prefix(0)
    assert _relative_errors(got, sigma)[0] <= 16 * EPS


@pytest.mark.parametrize("d", (0.05, 0.3, 0.45, 0.49))
def test_fractional_sequences_match_60_digit_references(d):
    # each recursion step rounds once or twice, so the bound grows with j;
    # measured: a_j and b_j within 0.26 j eps, sigma(j) within 0.38 (16 + j) eps
    n = 4096
    a, b, sigma = decimal_frac_noise(d, n)
    model = ProcessModel.frac_noise(d)
    j = np.arange(n + 1)
    assert np.all(_relative_errors(ar_coeffs(model, n).prefix(n), a) <= j * EPS)
    assert np.all(_relative_errors(ma_coeffs(model, n).prefix(n), b) <= j * EPS)
    assert np.all(_relative_errors(acvf(model, n).prefix(n), sigma) <= (16 + j) * EPS)


def test_acvf_alternating_closed_form_small_lags():
    # the (-1)^j / Gamma(1 - j - d) form, whose Gamma factor alternates in sign
    d = 0.45
    g = acvf(ProcessModel.frac_noise(d), 6)
    for j in range(7):
        jf = float(j)
        s_cf = (-1.0) ** (j % 2) * math.gamma(1.0 - 2.0 * d) / (
            math.gamma(jf - d + 1.0) * math.gamma(1.0 - jf - d))
        assert g[j] == pytest.approx(s_cf, rel=1e-13)


@pytest.mark.parametrize("d", D_VALUES)
def test_recursions_match_closed_forms_to_high_order(d):
    # ratio recursions against per-term Gamma-ratio evaluation, j up to 1e4;
    # sigma uses the equivalent all-positive-argument form
    # Gamma(1-2d) Gamma(j+d) / (Gamma(d) Gamma(1-d) Gamma(j+1-d)).
    # When j + d is not an exact double the oracle's own argument rounding
    # perturbs log Gamma by ~ psi(j) * ulp(j); the tolerance carries that
    # explicit allowance (it vanishes for exactly representable d = 0.25,
    # where the strict 1e-12 applies throughout).
    model = ProcessModel.frac_noise(d)
    n = 10_000
    js = np.unique(np.geomspace(1, n, 60).astype(int))
    a = ar_coeffs(model, n)
    b = ma_coeffs(model, n)
    g = acvf(model, n)
    exact_d = (d * 4.0) == round(d * 4.0)
    for j in js:
        jf = float(j)
        tol = 1e-12 if exact_d else 1e-12 + 4.0 * math.log(jf + 2.0) * 2.2e-16 * jf
        a_cf = math.exp(log_gamma_diff(jf - d, jf + 1.0)) / math.gamma(-d)
        b_cf = math.exp(log_gamma_diff(jf + d, jf + 1.0)) / math.gamma(d)
        s_cf = (math.gamma(1.0 - 2.0 * d) * math.exp(log_gamma_diff(jf + d, jf + 1.0 - d))
                / (math.gamma(d) * math.gamma(1.0 - d)))
        assert a[j] == pytest.approx(a_cf, rel=tol)
        assert b[j] == pytest.approx(b_cf, rel=tol)
        assert g[j] == pytest.approx(s_cf, rel=tol)


@given(st.floats(min_value=0.01, max_value=0.49))
def test_sign_structure(d):
    model = ProcessModel.frac_noise(d)
    a = ar_coeffs(model, 64).prefix(64)
    b = ma_coeffs(model, 64).prefix(64)
    g = acvf(model, 64).prefix(64)
    assert a[0] == 1.0 and np.all(a[1:] < 0)
    assert b[0] == 1.0 and np.all(b[1:] > 0)
    assert np.all(g > 0)


@pytest.mark.parametrize("d", (0.25, 0.45))
@pytest.mark.parametrize("j", (1, 2, 5))
def test_ar_acvf_orthogonality(d, j):
    # sum_l a_l sigma(l - j) = 0 for j >= 1, via partial sums plus
    # extrapolated tail
    s = brute_orthogonality_sum(d, j)
    assert abs(s) < 1e-6


# -- computed sequences ------------------------------------------------------

def test_prefix_views_are_read_only():
    seq = ar_coeffs(ProcessModel.frac_noise(0.3), 5)
    view = seq.prefix(5)
    with pytest.raises(ValueError):
        view[0] = 2.0


def test_entries_past_the_computed_end_raise():
    arma = ProcessModel.arma(ar=(0.5,), ma=(0.3,))
    for make, model in [(ar_coeffs, ProcessModel.frac_noise(0.3)),
                        (ma_coeffs, ProcessModel.farima(0.3, ar=(0.4,))),
                        (ar_coeffs, arma), (acvf, arma)]:
        seq = make(model, 10)
        assert len(seq) == 11 and seq.prefix(10).size == 11
        for bad in (11, 500, -1):
            with pytest.raises(IndexError):
                seq.prefix(bad)
            with pytest.raises(IndexError):
                seq[bad]


# -- generic moving averages -------------------------------------------------

def test_white_noise_inverts_to_itself():
    model = ProcessModel.white_noise()
    assert np.array_equal(ar_coeffs(model, 5).prefix(5), [1, 0, 0, 0, 0, 0])
    assert np.array_equal(ma_coeffs(model, 5).prefix(5), [1, 0, 0, 0, 0, 0])


def test_ma1_autocovariance_brute_force():
    model = ProcessModel.generic_ma((1.0, 0.5))
    g = acvf(model, 3).prefix(3)
    assert g[0] == pytest.approx(1.25)
    assert g[1] == pytest.approx(0.5)
    assert g[2] == 0.0 and g[3] == 0.0
    assert acvf(model, 3).certified_tol == 0.0


def test_generic_inversion_round_trip():
    coeffs = (1.0, 0.4, -0.2, 0.1)
    model = ProcessModel.generic_ma(coeffs)
    n = 50
    a = ar_coeffs(model, n).prefix(n)
    conv = np.convolve(a, np.asarray(coeffs))[: n + 1]
    assert conv[0] == pytest.approx(1.0)
    assert np.max(np.abs(conv[1:])) < 1e-12


# (model, indices j whose AR coefficient is 0 or None, and whether those are -0)
INVERSION_MODELS = {
    "arma_0.9": (ProcessModel.arma(ar=(0.9,)), slice(2, None), False),
    "arma_2_1": (ProcessModel.arma(ar=(0.5, -0.2), ma=(0.4,)), None, None),
    "finite_ma_1_0_0.5": (ProcessModel.generic_ma((1.0, 0.0, 0.5)), slice(1, None, 2), True),
    "white_noise": (ProcessModel.white_noise(), slice(1, None), False),
}


@pytest.mark.parametrize("name", sorted(INVERSION_MODELS))
def test_generic_ar_inversion_bitwise_matches_reference_loop(name):
    # a_j is the one series division of den/num, FARIMA's AR orientation
    model, zeros, negative = INVERSION_MODELS[name]
    n = 300
    num, den = model.ma_filter
    got = ar_coeffs(model, n).prefix(n)
    assert same_bits(got, reference_dot_rational_series(den, num, n))
    if zeros is not None:  # the zero rows coeffs_ar.csv writes
        assert np.all(got[zeros] == 0.0) and np.all(np.signbit(got[zeros]) == negative)


EXACT_AR_MODELS = {
    "arma_1_1": ProcessModel.arma(ar=(0.9,), ma=(0.3,)),
    "arma_2_1": ProcessModel.arma(ar=(0.5, -0.2), ma=(0.4,)),
    "ar_2": ProcessModel.arma(ar=(1.2, -0.5)),
    "ar_3": ProcessModel.arma(ar=(0.3, 0.2, 0.1)),
    "ma_1": ProcessModel.arma(ma=(0.5,)),
    # 1 - q(z) with q >= 0: every a_j sums terms of one sign, whereas a
    # complex-root MA's a_j cross zero and lose relative accuracy there
    "finite_ma_4": ProcessModel.generic_ma((1.0, -0.2, -0.1, -0.05, -0.2)),
    "white_noise": ProcessModel.white_noise(),
}


@pytest.mark.parametrize("name", sorted(EXACT_AR_MODELS))
def test_generic_ar_coeffs_match_exact_rational_division(name):
    # within 8 eps of the exact den/num where a_j != 0, and +0 where a_j = 0:
    # past lag p of a pure AR(p) too
    model = EXACT_AR_MODELS[name]
    n = 300
    num, den = model.ma_filter
    got = ar_coeffs(model, n).prefix(n).tolist()
    eps = float(np.finfo(float).eps)
    for j, (value, exact) in enumerate(zip(got, fraction_rational_series(den, num, n))):
        if exact == 0:
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, (j, value)
        else:
            assert abs(Fraction(value) / exact - 1) <= 8 * eps, (j, value, float(exact))


def test_ma_series_zero_signs():
    # the one series division writes a -0 of a finite list or an ARMA theta
    # as +0, so coeffs_ma.csv writes it unsigned
    finite = ma_coeffs(ProcessModel.generic_ma((1.0, -0.0, 0.5)), 4).prefix(4)
    arma = ma_coeffs(ProcessModel.arma(ma=(-0.0, 0.5)), 4).prefix(4)
    assert np.array_equal(finite, [1.0, 0.0, 0.5, 0.0, 0.0])
    assert np.array_equal(np.signbit(finite), [False, False, False, False, False])
    assert np.array_equal(arma, finite) and not np.any(np.signbit(arma))


@pytest.mark.parametrize("ar, ma, n", [
    ((0.9,), (), 300),
    ((0.5, -0.2), (0.4,), 300),
    ((-0.5,), (), 1500),  # underflows to exact zeros after about 1075 terms
])
def test_arma_stream_bitwise_matches_reference_series(ar, ma, n):
    want = reference_rational_series((1.0,) + ma, (1.0,) + tuple(-p for p in ar), n)
    got = ma_coeffs(ProcessModel.arma(ar=ar, ma=ma), n).prefix(n)
    assert same_bits(got, want)
    if n > 1100:  # coeffs_ma.csv writes these zeros unsigned
        assert np.any(got == 0.0) and not np.any(np.signbit(got[got == 0.0]))


@pytest.mark.parametrize("kind", [AR, MA])
def test_farima_filter_expansion_matches_reference_series(kind):
    model = ProcessModel.farima(0.3, ar=(0.4,), ma=(-0.3,))
    psi, _ = process._psi_series(model, kind, DEFAULT_ACVF_TOL)
    phi_op, theta_op = (1.0, -0.4), (1.0, -0.3)
    num, den = (phi_op, theta_op) if kind == AR else (theta_op, phi_op)
    assert same_bits(psi, reference_rational_series(num, den, psi.size - 1))


SERIES_NUMS = ((1.0,), (1.0, -0.0), (1.0, 0.4, -0.0), (1.0, -0.0, 0.5, -0.2))


def _series_lengths(num):
    return sorted({0, 1, len(num) - 1, len(num), 1500, 16388})


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("ar", (0.3, -0.3, 0.5, -0.5, 0.9, -0.9, 0.99))
def test_series_division_bits_first_order_den(ar):
    # past num's terms the tail is one cumprod; |ar| <= 0.5 underflows to
    # exact zeros, signed as c_{j-1} * ar, well before 16388 terms
    den = (1.0, -ar)
    zero_signs = set()
    for num in SERIES_NUMS:
        for n in _series_lengths(num):
            got = process._rational_series(num, den, n)
            assert same_bits(got, reference_dot_rational_series(num, den, n)), (num, n)
            zero_signs |= set(np.signbit(got[got == 0.0]).tolist())
    want_signs = set() if abs(ar) > 0.5 else {False, True} if ar < 0.0 else {False}
    assert want_signs <= zero_signs


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("den", ((1.0,), (1.0, -0.5, 0.2), (1.0, -1.2, 0.5),
                                 (1.0, 0.1, -0.2, 0.3)))
def test_series_division_bits_constant_and_higher_order_den(den):
    for num in SERIES_NUMS:
        for n in _series_lengths(num):
            got = process._rational_series(num, den, n)
            assert same_bits(got, reference_dot_rational_series(num, den, n)), (num, n)


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("model", (ProcessModel.arma(ar=(0.9,)),
                                   ProcessModel.generic_ma((1.0, 0.2, -0.1, 0.05, 0.2))),
                         ids=("arma_0.9", "finite_ma_4"))
def test_series_division_bits_ar_inversions(model):
    # the AR series den/num: a two-term numerator over a constant
    # denominator, and 1 over an order-4 MA polynomial
    n = 4096
    num, den = model.ma_filter
    got = process._rational_series(den, num, n)
    assert same_bits(got, reference_dot_rational_series(den, num, n))


def test_arma_stream_matches_textbook_acvf():
    model = ProcessModel.arma(ar=(0.5,), ma=(0.3,))
    got = acvf(model, 10).prefix(10)
    want = arma_acvf_brute(0.5, 0.3, 10)
    assert np.allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("model", [
    ProcessModel.arma(ar=(0.9,)), ProcessModel.arma(ar=(0.5,), ma=(0.3,)),
    ProcessModel.arma(ar=(1.2, -0.5)), ProcessModel.generic_ma((1.0, 0.2, -0.1, 0.05, 0.2)),
], ids=("ar0.9", "arma11", "ar2", "finite_ma"))
@pytest.mark.parametrize("n", (10, 50, 300))
def test_generic_acvf_within_two_eps_of_exact_equations(model, n):
    # against Brockwell & Davis's equations solved in fractions: every lag
    # within 2 eps sigma(0); measured 1.26 (ar 0.9), 0.46, 0.61 and 0.07 eps
    exact = fraction_arma_acvf(model, n)
    eps_sigma0 = Fraction(np.finfo(float).eps) * exact[0]
    got = acvf(model, n).prefix(n)
    assert max(abs(Fraction(float(v)) - e) for v, e in zip(got, exact)) <= 2 * eps_sigma0


def test_decimal_farima_acvf_satisfies_the_filter_identity():
    # (1 - phi B) X = (1 + theta B) F, so filtering sigma_X by the AR operator
    # on both sides gives sigma_F filtered by the MA operator on both sides
    d, phi, theta, n = 0.3, 0.5, 0.3, 40
    x = decimal_farima_acvf(ProcessModel.farima(d, ar=(phi,), ma=(theta,)), n + 1)
    _, _, f = decimal_frac_noise(d, n + 1)
    with localcontext() as ctx:
        ctx.prec = 60
        p, t = Decimal(phi), Decimal(theta)
        for s in range(1, n + 1):
            lhs = (1 + p * p) * x[s] - p * (x[s - 1] + x[s + 1])
            rhs = (1 + t * t) * f[s] + t * (f[s - 1] + f[s + 1])
            assert abs(lhs - rhs) <= Decimal("1e-39") * f[0], s


@pytest.mark.parametrize("d, ar, ma", [(0.3, 0.5, 0.3), (0.45, -0.5, 0.5), (0.05, 0.5, -0.5)])
def test_farima_acvf_within_lag_growing_eps_of_60_digit_reference(d, ar, ma):
    # every lag j <= 300 within (16 + j) eps sigma(0) / 2, the fractional core's
    # rounding growth; measured at most 0.08, 0.38 and 0.05 (16 + j) eps (4.7,
    # 33 and 0.8 eps of sigma(0) at worst), far above each certified_tol, which
    # bounds only the truncated series.  The last two filters cancel to 1, so
    # those models are fractional noise.
    n = 300
    model = ProcessModel.farima(d, ar=(ar,), ma=(ma,))
    exact = decimal_farima_acvf(model, n)
    seq = acvf(model, n)
    errs = np.array([float(abs(Decimal(float(v)) - e) / exact[0])
                     for v, e in zip(seq.prefix(n), exact)])
    print(f"FARIMA({d}; ar {ar}, ma {ma}): largest error {errs.max() / EPS:.2f} eps sigma(0), "
          f"certified_tol {seq.certified_tol:.3g}")
    assert np.all(errs <= (16 + np.arange(n + 1)) * EPS / 2)


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("n", [50, 240, 1024])
@pytest.mark.parametrize("ar, ma", [((0.9,), ()), ((0.5, -0.2), (0.4,)),
                                    ((0.99,), ()), ((0.999,), ())])
def test_arma_acvf_bitwise_matches_block_ratio_loop(ar, ma, n):
    # the reference never cuts the series: at n = 1024, ar = 0.9 reads no
    # tail and drops the products past b_3536, each too small to move a bit
    seq = acvf(ProcessModel.arma(ar=ar, ma=ma), n)
    want, want_tol = reference_block_ratio_acvf(ProcessModel.arma(ar=ar, ma=ma), n)
    assert same_bits(seq.prefix(n), want)
    assert seq.certified_tol == want_tol


def test_arma_near_unit_root_cuts_the_tail_its_squares_underflow(monkeypatch):
    # ar = 0.9: every square of b_j underflows past j = 3536 and the series
    # sticks at the subnormal 2.5e-323 from j ~ 6724, so the first block-test
    # prefix reads no tail and the lag products stop at b_3536
    model = ProcessModel.arma(ar=(0.9,))
    asked = []

    def counted(ma_filter, n):
        asked.append(n)
        return _ma_series(ma_filter, n)

    monkeypatch.setattr(process, "_ma_series", counted)
    n = 4096
    seq = acvf(model, n)
    assert asked == [4 * (n + 1)]  # one block-test prefix, no doubling
    assert seq.certified_tol == 0.0
    got = seq.prefix(n)
    want = 0.9 ** np.arange(n + 1) / 0.19
    eps = np.finfo(float).eps
    # measured 2.28 eps sigma(0) at worst; per lag 14.1 eps of itself up to
    # lag 3382, past which the cut drops 0.81^(3537 - s) of sigma(s)
    assert np.max(np.abs(got[:3537] - want[:3537])) <= 32 * eps * got[0]
    assert np.max(np.abs(got[:3001] / want[:3001] - 1.0)) <= 32 * eps
    assert got[3536] > 0.0 and not np.any(got[3537:])


def test_tail_sq_bound_reads_no_tail_once_every_square_is_zero():
    # exact zeros (ar = 0), squares that underflow while the values decay to
    # exact zeros (ARMA(0.5, -0.2; 0.4) from j ~ 462 on, zeros from j ~ 925),
    # and values stuck at a subnormal (ar = 0.9)
    exact = _ma_series(ProcessModel.arma(ar=(0.0,), ma=(0.5,)).ma_filter, 64)
    decaying = _ma_series(ProcessModel.arma(ar=(0.5, -0.2), ma=(0.4,)).ma_filter, 1024)
    stuck = _ma_series(ProcessModel.arma(ar=(0.9,)).ma_filter, 16388)
    assert not np.any(exact[32:]) and np.any(decaying[512:]) and decaying[-1] == 0.0
    assert stuck[-1] == 2.5e-323
    for b in (exact, decaying, stuck):
        assert process._tail_sq_bound(b) == 0.0
    # one square left in the last quarter block keeps an estimate
    assert process._tail_sq_bound(np.concatenate([stuck, [1e-160]])) is None


@pytest.mark.parametrize("args", [["coeffs", "--n", "4096"], ["fit", "--k", "2000"]])
def test_arma_near_unit_root_commands_succeed(tmp_path, args):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("kind = arma\nar = 0.9\n")
    out = tmp_path / "o"
    assert main([*args, "--config", str(cfgfile), "--out", str(out)]) == 0
    if args[0] == "coeffs":
        comments, _, rows = read_csv(out / "coeffs_acvf.csv")
        tol = float(next(c for c in comments if c.startswith("certified_tol:")).split()[1])
        assert tol == 0.0 and len(rows) == 4097


# closer to the unit root the MA series outruns 2^21 terms: at 0.999999 the
# block test still estimates the tail (about 0.0153 sigma(0)), at 0.9999999
# the series has not decayed enough for any estimate
UNCERTIFIED_ARMA = [(0.999999, "0.0153"), (0.9999999, None)]


@pytest.mark.parametrize("phi, bound", UNCERTIFIED_ARMA)
def test_arma_acvf_fails_typed_past_the_term_cap(phi, bound):
    with pytest.raises(CertificationError, match="within 2097152 terms") as info:
        acvf(ProcessModel.arma(ar=(phi,)), 10)
    got = info.value.achieved_bound
    assert got is None if bound is None else f"{got:.3g}" == bound


@pytest.mark.parametrize("phi, bound", UNCERTIFIED_ARMA)
def test_arma_coeffs_command_exits_2_past_the_term_cap(tmp_path, capsys, phi, bound):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"kind = arma\nar = {phi!r}\n")
    assert main(["coeffs", "--n", "10", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith("longpred: numeric certification failure: ")
    assert line.endswith("terms" if bound is None else f"terms; achieved_bound {bound}")


def _coeffs_failure(tmp_path, capsys, config):
    """Exit code and stderr line of ``coeffs --n 10`` on a config file."""
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(config)
    code = main(["coeffs", "--n", "10", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err.strip()


def test_farima_acvf_fails_typed_when_the_filter_tail_is_too_heavy(tmp_path, capsys,
                                                                   monkeypatch):
    # an L1 filter tail of 1e-3, patched in, leaves the autocovariance short of
    # acvf_tol; the error carries the bound reached
    series = process._certified_rational_series
    monkeypatch.setattr(process, "_certified_rational_series",
                        lambda num, den, tol: (series(num, den, tol)[0], 1e-3))
    with pytest.raises(CertificationError, match="FARIMA autocovariance") as info:
        acvf(ProcessModel.farima(0.3, ar=(0.5,)), 10)
    bound = info.value.achieved_bound
    assert DEFAULT_ACVF_TOL < bound < 1.0
    code, line = _coeffs_failure(tmp_path, capsys, "kind = farima\nd = 0.3\nar = 0.5\n")
    assert code == 2 and line.startswith("longpred: numeric certification failure: ")
    assert line.endswith(f"below 1e-10; achieved_bound {bound:.3g}")


def test_rational_series_fails_typed_past_its_term_cap(tmp_path, capsys, monkeypatch):
    # ar = 0.99 decays too slowly to show its geometric envelope within 128
    # terms; no tail estimate exists, so the error has no bound
    monkeypatch.setattr(process, "_SERIES_MAX_TERMS", 128)
    with pytest.raises(CertificationError, match="within 128 terms") as info:
        ma_coeffs(ProcessModel.farima(0.3, ar=(0.99,)), 10)
    assert info.value.achieved_bound is None
    code, line = _coeffs_failure(tmp_path, capsys, "kind = farima\nd = 0.3\nar = 0.99\n")
    assert code == 2 and line.startswith("longpred: numeric certification failure: ")
    assert line.endswith("within 128 terms")


# -- FARIMA ------------------------------------------------------------------

def test_farima_reduces_to_fractional_noise():
    d = 0.35
    plain = ProcessModel.frac_noise(d)
    trivial = ProcessModel.farima(d)
    n = 100
    assert np.allclose(ar_coeffs(trivial, n).prefix(n),
                       ar_coeffs(plain, n).prefix(n), rtol=1e-14)
    assert np.allclose(acvf(trivial, n).prefix(n),
                       acvf(plain, n).prefix(n), rtol=1e-12)


def test_farima_streams_satisfy_filter_identities():
    # theta(z) A(z) = phi(z) (1-z)^d-stream and phi(z) B(z) = theta(z) * core
    d, phi, theta = 0.3, 0.5, 0.4
    model = ProcessModel.farima(d, ar=(phi,), ma=(theta,))
    core = ProcessModel.frac_noise(d)
    n = 200
    a = ar_coeffs(model, n).prefix(n)
    b = ma_coeffs(model, n).prefix(n)
    a_core = ar_coeffs(core, n).prefix(n)
    b_core = ma_coeffs(core, n).prefix(n)
    theta_op = np.array([1.0, theta])
    phi_op = np.array([1.0, -phi])
    lhs_a = np.convolve(theta_op, a)[: n + 1]
    rhs_a = np.convolve(phi_op, a_core)[: n + 1]
    assert np.allclose(lhs_a, rhs_a, atol=1e-13)
    lhs_b = np.convolve(phi_op, b)[: n + 1]
    rhs_b = np.convolve(theta_op, b_core)[: n + 1]
    assert np.allclose(lhs_b, rhs_b, atol=1e-13)


def test_farima_acvf_against_truncated_ma_convolution():
    # small d makes the raw MA tail summable enough for a brute-force check
    d, phi, theta = 0.05, 0.4, 0.2
    model = ProcessModel.farima(d, ar=(phi,), ma=(theta,))
    got = acvf(model, 5).prefix(5)
    m = 1 << 20
    b = ma_coeffs(model, m).prefix(m)
    brute = np.array([np.dot(b[: m + 1 - s], b[s:]) for s in range(6)])
    assert np.allclose(got, brute, rtol=1e-6)
    assert acvf(model, 5).certified_tol < 1e-10


def test_farima_acvf_convolution_identity():
    # (1 - phi B) X = F for FARIMA(1, d, 0), so filtering sigma_X by the AR
    # operator on both sides must give the fractional core's sigma_F:
    # (1 + phi^2) sigma_X(s) - phi (sigma_X(|s-1|) + sigma_X(s+1)) = sigma_F(s)
    d, phi = 0.3, 0.6
    x = acvf(ProcessModel.farima(d, ar=(phi,)), 41).prefix(41)
    f = acvf(ProcessModel.frac_noise(d), 40).prefix(40)
    s = np.arange(41)
    lhs = (1.0 + phi * phi) * x[s] - phi * (x[np.abs(s - 1)] + x[s + 1])
    # measured 1.5e-15 relative, against a certified_tol of 4.8e-16
    assert np.max(np.abs(lhs - f)) <= 1e-14 * f[0]


# -- the lag-product kernel ----------------------------------------------------
# a lag autocorrelation over about all of its series is one np.correlate; these
# keep its bits equal to one dot per lag (the ARMA block path, whose prefix is
# far longer than its lags, is checked by
# test_arma_acvf_bitwise_matches_block_ratio_loop)

@pytest.mark.one_blas_thread
@pytest.mark.parametrize("ar, p, n", [
    ((), 0, 0), ((), 0, 300),
    ((0.4,), 64, 10), ((0.4,), 64, 300),
    ((0.9,), 1024, 100), ((0.9,), 1024, 2000),
])
def test_lag_kernel_farima_acvf_matches_gather_loop(ar, p, n):
    model = ProcessModel.farima(0.3, ar=ar)
    psi, _ = process._psi_series(model, ACVF, DEFAULT_ACVF_TOL)
    assert psi.size - 1 == p
    sig_f = process._frac(0.3, 1.0, ACVF, n + p)
    assert same_bits(acvf(model, n).prefix(n), reference_filtered_core(psi, sig_f, n))


@pytest.mark.one_blas_thread
def test_lag_kernel_stuck_arma_matches_dot_loop():
    # ar = 0.9 at n = 4096 reads no tail and cuts its series at the last
    # nonzero square, b_3536: the kernel writes zeros past that lag
    model = ProcessModel.arma(ar=(0.9,))
    n = 4096
    b = _ma_series(model.ma_filter, 4 * (n + 1))
    cut = b[:np.flatnonzero(b * b)[-1] + 1]
    assert cut.size == 3537 and b[-1] != 0.0
    assert same_bits(acvf(model, n).prefix(n), reference_lag_products(cut, 1.0, n))


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("coeffs", [(1.0, -0.0, 0.5), (1.0, 0.0, -0.0, 0.25, -0.5),
                                    (1.0, -0.5, -0.0, 0.0, 0.3)])
def test_lag_kernel_finite_ma_matches_dot_loop(coeffs):
    n = len(coeffs) + 2
    got = acvf(ProcessModel.generic_ma(coeffs, noise_variance=2.0), n).prefix(n)
    assert same_bits(got, reference_lag_products(np.array(coeffs), 2.0, n))


@pytest.mark.one_blas_thread
def test_lag_kernel_trailing_negative_zero_gives_positive_zero():
    # the last lag of a finite MA ending in -0 is the one product 1 * -0:
    # np.dot wrote it as -0, the correlation writes +0
    got = acvf(ProcessModel.generic_ma((1.0, 0.0, -0.0)), 3).prefix(3)
    assert np.array_equal(got, [1.0, 0.0, 0.0, 0.0]) and not np.any(np.signbit(got))


@pytest.mark.one_blas_thread
def test_lag_kernel_short_lags_of_long_prefix_take_one_dot_each(monkeypatch):
    # ar = 0.999 at n = 10 certifies a 16385-term prefix: correlating it
    # would take 2.7e8 products where 11 dots take 1.8e5
    sizes = []
    correlate = np.correlate

    def counted(a, v, mode="valid"):
        sizes.append(a.size * v.size)
        return correlate(a, v, mode)

    monkeypatch.setattr(np, "correlate", counted)
    dots = []
    lag_products = process._lag_products

    def spy(b, s2, n):
        dots.append(b.size)
        return lag_products(b, s2, n)

    monkeypatch.setattr(process, "_lag_products", spy)
    acvf(ProcessModel.arma(ar=(0.999,)), 10)
    assert dots == [16385] and sizes == []
    # the lags of a whole series still take one correlation
    acvf(ProcessModel.generic_ma((1.0, 0.5, 0.25)), 10)
    assert sizes == [9]


@pytest.mark.xfail(strict=True, reason="the block-ratio certificate bounds only the tail "
                   "of sigma(0): lag s sums b_0..b_{M-s} and misses up to "
                   "sqrt(T(M-s) T(M)), not T(M)")
@pytest.mark.parametrize("phi, n", [(0.99, 288), (0.99, 300), (0.995, 300)])
def test_arma_certified_tol_holds_at_every_lag(phi, n):
    seq = acvf(ProcessModel.arma(ar=(phi,)), n)
    want = phi ** np.arange(n + 1) / (1.0 - phi * phi)
    slack = seq.certified_tol + 32 * np.finfo(float).eps
    assert np.max(np.abs(seq.prefix(n) - want)) <= slack * seq[0]


# -- prefix stability: a shorter sequence is the bitwise prefix of a longer one

_FARIMA = ProcessModel.farima(0.3, ar=(0.5,), ma=(0.3,))


@pytest.mark.parametrize("model, sequence", [
    (ProcessModel.frac_noise(0.3), ar_coeffs), (ProcessModel.frac_noise(0.3), ma_coeffs),
    (ProcessModel.frac_noise(0.45, 2.0), acvf), (_FARIMA, acvf),
    (ProcessModel.farima(0.2, ar=(0.9,)), acvf),
    (ProcessModel.generic_ma((1.0, 0.4, -0.2, 0.1)), ar_coeffs),
    (ProcessModel.generic_ma((1.0, 0.4, -0.2, 0.1)), ma_coeffs),
    (ProcessModel.generic_ma((1.0, 0.4, -0.2, 0.1)), acvf),
])
def test_sequences_are_prefix_stable(model, sequence):
    for short, long in ((3, 60), (50, 200), (22, 400)):
        assert same_bits(sequence(model, short).values,
                         sequence(model, long).values[: short + 1])


# raises=AssertionError: only the bitwise comparison may fail.  ARMA
# autocovariances depend on the length asked for too (README, "ARMA
# autocovariances"), through the block-ratio test's prefix
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FARIMA a_j and b_j are np.convolve(core, psi)[: n + 1]; once "
                   "psi is longer than n + 1, np.convolve swaps its operands and sums "
                   "in another order")
def test_farima_ar_ma_are_prefix_stable():
    moved = [f"{sequence.__name__}({short}) against ({long})"
             for sequence, short, long in ((ma_coeffs, 50, 200), (ar_coeffs, 22, 82))
             if not same_bits(sequence(_FARIMA, short).values,
                              sequence(_FARIMA, long).values[: short + 1])]
    assert not moved


@pytest.mark.parametrize("tol", (0.0, -1.0, math.inf, math.nan))
def test_invalid_tolerance_fails_at_once(tol):
    # checked before any series is expanded: a zero or negative tolerance can
    # never be met, and against nan every `bound > tol` test is false, so any
    # bound would pass as certified
    for model in (ProcessModel.farima(0.3, ar=(0.5,)), ProcessModel.arma(ar=(0.5,)),
                  ProcessModel.frac_noise(0.3)):
        with pytest.raises(ValueError, match="tolerance"):
            acvf(model, 10, tol=tol)


# -- decay verification ------------------------------------------------------

def test_decay_ar_exponent():
    seq = ar_coeffs(ProcessModel.frac_noise(0.3), 2000)
    rep = verify_decay(seq)
    assert -1.35 <= rep.fitted_exponent <= -1.25
    assert rep.target_exponent == pytest.approx(-1.3)
    assert not rep.zero_tail
    assert rep.constant > 0


def test_decay_acvf_exponent():
    seq = acvf(ProcessModel.frac_noise(0.3), 2000)
    rep = verify_decay(seq)
    assert -0.45 <= rep.fitted_exponent <= -0.35
    assert rep.target_exponent == pytest.approx(-0.4)


def test_decay_ma_exponent():
    seq = ma_coeffs(ProcessModel.frac_noise(0.25), 2000)
    rep = verify_decay(seq)
    assert -0.80 <= rep.fitted_exponent <= -0.70


def test_decay_constant_bounds_sequence():
    seq = ar_coeffs(ProcessModel.frac_noise(0.3), 500)
    rep = verify_decay(seq, delta=0.05)
    v = seq.prefix(500)
    j = np.arange(1, 501, dtype=float)
    assert np.all(np.abs(v[1:]) <= rep.constant * j ** (rep.target_exponent + rep.delta)
                  + 1e-18)


def test_decay_zero_tail_flagged():
    seq = acvf(ProcessModel.generic_ma((1.0, 0.5)), 100)
    rep = verify_decay(seq)
    assert rep.zero_tail
    assert math.isnan(rep.fitted_exponent)


def test_decay_needs_enough_values():
    with pytest.raises(ValueError):
        verify_decay(ar_coeffs(ProcessModel.frac_noise(0.3), 10))
