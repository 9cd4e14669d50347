from decimal import Decimal, localcontext

import numpy as np
import pytest

from longpred.asymptotics import improvement_ratio
from longpred.errors import CertificationError, ModelError
from longpred.fit import projection_weights_at, yule_walker
from longpred.mse import (error_decomposition, infinite_past_mse, mse_of_weights,
                          toeplitz_quadratic_form)
from longpred.predict import truncated_wk_weights_at
from longpred.process import ProcessModel, acvf, ar_coeffs, ma_coeffs

from _oracles import (brute_truncation_excess, decimal_fitted_ar_excess, decimal_frac_noise,
                      decimal_mse_of_weights, decimal_projection, decimal_truncation_excess,
                      dense_quadratic_form, fitted_ar_mse, frac_noise_min_eigenvalue,
                      reference_quadratic_form, same_bits, spectral_contrast_mse,
                      tail_cross_sum, toeplitz_solve_bounds, truncated_one_step_excess)


def test_quadratic_form_against_dense():
    rng = np.random.default_rng(3)
    g = acvf(ProcessModel.frac_noise(0.3), 40).prefix(40)
    for k in (1, 2, 17, 40):
        w = rng.standard_normal(k)
        assert toeplitz_quadratic_form(g, w) == pytest.approx(
            dense_quadratic_form(g, w), rel=1e-12)


@pytest.mark.one_blas_thread
def test_lag_kernel_quadratic_form_matches_convolve():
    rng = np.random.default_rng(5)
    g = acvf(ProcessModel.frac_noise(0.4), 2000).prefix(2000)
    a = ar_coeffs(ProcessModel.frac_noise(0.4), 2000).prefix(2000)
    for k in (*range(1, 65), 127, 128, 129, 255, 256, 257, 511, 512, 1000, 1024, 1999, 2000):
        for w in (rng.standard_normal(k), -a[1: k + 1]):
            assert same_bits(toeplitz_quadratic_form(g, w), reference_quadratic_form(g, w))


def test_white_noise_truncated_error_is_floor():
    model = ProcessModel.white_noise(1.7)
    rep = mse_of_weights(acvf(model, 10), ma_coeffs(model, 0),
                         truncated_wk_weights_at(ar_coeffs(model, 10), 10, (1,))[0])
    assert rep.total == pytest.approx(1.7)
    assert rep.floor == pytest.approx(1.7)
    assert rep.excess == 0.0


def test_order_one_projection_by_hand():
    # total = sigma(0) (1 - rho(1)^2) with rho(1) = 2/3 at d = 0.4
    model = ProcessModel.frac_noise(0.4)
    seq = acvf(model, 1)
    rep = mse_of_weights(seq, ma_coeffs(model, 0), projection_weights_at(seq, 1, (1,))[0])
    sigma0 = acvf(model, 0)[0]
    assert rep.total == pytest.approx(sigma0 * 5.0 / 9.0, rel=1e-13)
    assert rep.floor == pytest.approx(1.0)
    assert rep.total == pytest.approx(rep.floor + rep.excess, rel=1e-12)


def test_truncation_excess_against_brute_force_tail_sum():
    # the finite quadratic form must equal the double tail series
    d, k = 0.3, 50
    exact = truncated_one_step_excess(ProcessModel.frac_noise(d), k)
    brute = brute_truncation_excess(d, k)
    assert brute == pytest.approx(exact, rel=1e-6)


def test_truncated_report_matches_direct_excess():
    model = ProcessModel.frac_noise(0.3)
    k = 50
    rep = mse_of_weights(acvf(model, k), ma_coeffs(model, 0),
                         truncated_wk_weights_at(ar_coeffs(model, k), k, (1,))[0])
    assert rep.excess == pytest.approx(truncated_one_step_excess(model, k),
                                       rel=1e-10)


def test_infinite_past_small_horizons():
    model = ProcessModel.frac_noise(0.4, noise_variance=2.0)
    b = ma_coeffs(model, 1)
    assert infinite_past_mse(b, 1).total == pytest.approx(2.0)
    # h = 2: noise_variance * (1 + b_1^2) with b_1 = d
    assert infinite_past_mse(b, 2).total == pytest.approx(2.0 * 1.16, rel=1e-14)
    assert infinite_past_mse(b, 2).excess == 0.0


def test_infinite_past_gap_asymptotics():
    # sigma(0) - mmse(h) ~ h^(2d-1) / ((1-2d) Gamma(d)^2), checked by ratio
    import math

    d = 0.3
    model = ProcessModel.frac_noise(d)
    sigma0 = acvf(model, 0)[0]
    h = 1 << 13
    gap = sigma0 - infinite_past_mse(ma_coeffs(model, h - 1), h).total
    predicted = h ** (2 * d - 1) / ((1 - 2 * d) * math.gamma(d) ** 2)
    assert gap / predicted == pytest.approx(1.0, abs=0.01)


def test_infinite_past_gap_brute_partial_sums():
    # same gap from the raw series sum_{j >= h} b_j^2 over a long window
    d, h = 0.35, 64
    model = ProcessModel.frac_noise(d)
    n = 1 << 21
    b = ma_coeffs(model, n).prefix(n)
    partial = float(np.dot(b[h:], b[h:]))
    sigma0 = acvf(model, 0)[0]
    gap = sigma0 - infinite_past_mse(ma_coeffs(model, h - 1), h).total
    # remaining tail past n is below j^(2d-2) integral
    import math
    tail_bound = n ** (2 * d - 1.0) / ((1 - 2 * d) * math.gamma(d) ** 2)
    assert abs(gap - partial) <= 1.05 * tail_bound


def test_arma_infinite_past_gap_decays_exponentially():
    # short-memory comparison point: the gap to sigma(0) vanishes at a
    # geometric rate in h rather than a power law
    model = ProcessModel.arma(ar=(0.6,), ma=(0.2,))
    sigma0 = acvf(model, 0)[0]
    hs = np.arange(2, 22, 2)
    b = ma_coeffs(model, int(hs[-1]) - 1)
    gaps = np.array([sigma0 - infinite_past_mse(b, int(h)).total for h in hs])
    assert np.all(gaps > 0.0)
    slope = np.polyfit(hs, np.log(gaps), 1)[0]
    assert slope == pytest.approx(2.0 * np.log(0.6), rel=0.05)
    # a power-law fit of log gap against log h explains the data strictly
    # worse than the exponential fit
    exp_resid = np.sum((np.log(gaps) - np.polyval(np.polyfit(hs, np.log(gaps), 1), hs)) ** 2)
    pow_resid = np.sum((np.log(gaps) - np.polyval(
        np.polyfit(np.log(hs), np.log(gaps), 1), np.log(hs))) ** 2)
    assert exp_resid < pow_resid


def test_mse_ordering_infinite_projection_truncated():
    model = ProcessModel.frac_noise(0.35)
    for k, h in [(10, 1), (25, 3), (50, 8)]:
        seq = acvf(model, k + h)
        b = ma_coeffs(model, h - 1)
        mm = infinite_past_mse(b, h).total
        ll = mse_of_weights(seq, b, projection_weights_at(seq, k, (h,))[0]).total
        tp = mse_of_weights(seq, b,
                            truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0]).total
        assert mm <= ll + 1e-14
        assert ll <= tp + 1e-14
        sigma0 = seq.prefix(0)[0]
        assert ll < sigma0


def test_projection_monotone_in_k_and_h():
    model = ProcessModel.frac_noise(0.3)
    seq = acvf(model, 200)
    b = ma_coeffs(model, 15)
    totals_k = [mse_of_weights(seq, b, projection_weights_at(seq, k, (1,))[0]).total
                for k in (1, 2, 4, 8, 16, 32)]
    assert np.all(np.diff(totals_k) <= 1e-14)
    totals_h = [mse_of_weights(seq, b, projection_weights_at(seq, 16, (h,))[0]).total
                for h in (1, 2, 4, 8, 16)]
    assert np.all(np.diff(totals_h) >= -1e-14)
    assert totals_h[-1] < seq.prefix(0)[0]


def test_one_step_truncated_floor_is_noise_variance():
    model = ProcessModel.frac_noise(0.25, noise_variance=1.3)
    rep = mse_of_weights(acvf(model, 30), ma_coeffs(model, 0),
                         truncated_wk_weights_at(ar_coeffs(model, 30), 30, (1,))[0])
    assert rep.floor == pytest.approx(1.3)
    assert rep.total >= 1.3


# -- spectral contrast -------------------------------------------------------

def test_spectral_contrast_white_noise():
    model = ProcessModel.white_noise(2.0)
    fit = yule_walker(acvf(model, 4), 4)
    assert spectral_contrast_mse(model, fit) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("d", (0.3, 0.45))
@pytest.mark.parametrize("k", (5, 20))
def test_spectral_contrast_matches_time_domain(d, k):
    model = ProcessModel.frac_noise(d)
    fit = yule_walker(acvf(model, k), k)
    spectral = spectral_contrast_mse(model, fit)
    time_domain = fit.innovation_variance
    assert spectral == pytest.approx(time_domain, rel=1e-7)


def test_spectral_contrast_certification_failure():
    model = ProcessModel.frac_noise(0.45)
    fit = yule_walker(acvf(model, 5), 5)
    with pytest.raises(CertificationError):
        spectral_contrast_mse(model, fit, n_terms=1 << 12, tail_tol=1e-12)


def test_spectral_contrast_finite_ma_exact():
    model = ProcessModel.generic_ma((1.0, 0.6, 0.2))
    k = 3
    fit = yule_walker(acvf(model, k), k)
    spectral = spectral_contrast_mse(model, fit)
    assert spectral == pytest.approx(fit.innovation_variance, rel=1e-12)


# -- error decomposition -----------------------------------------------------

def test_decomposition_sign_pattern():
    dec = error_decomposition(ProcessModel.frac_noise(0.35), 30)
    assert dec.term_quad < 0.0
    assert dec.term_cross > 0.0
    assert dec.term_trunc < 0.0


def test_decomposition_sum_identity():
    model = ProcessModel.frac_noise(0.3)
    for k in (5, 30, 100):
        dec = error_decomposition(model, k)
        ar_excess = fitted_ar_mse(model, k).excess
        assert dec.ar_excess == pytest.approx(ar_excess, rel=1e-8)
        assert dec.truncation_excess == pytest.approx(
            truncated_one_step_excess(model, k), rel=1e-10)


def test_decomposition_brute_force_small_order():
    # all three terms reproduced by partial summation with fitted tails,
    # with the fitted coefficients taken from an independent dense solve
    d, k = 0.4, 1
    model = ProcessModel.frac_noise(d)
    a = ar_coeffs(model, k).prefix(k)
    g = acvf(model, k).prefix(k)
    phi = g[1] / g[0]
    a_fit = np.array([1.0, -phi])
    delta = a_fit - a
    s = np.array([tail_cross_sum(d, k, j) for j in range(k + 1)])
    quad = -dense_quadratic_form(g, delta[1:])
    cross = 2.0 * float(np.dot(delta[1:], s[1:]))
    trunc = float(np.dot(a, s))
    dec = error_decomposition(model, k)
    assert dec.term_quad == pytest.approx(quad, rel=1e-6)
    assert dec.term_cross == pytest.approx(cross, rel=1e-6)
    assert dec.term_trunc == pytest.approx(trunc, rel=1e-6)


@pytest.mark.parametrize("d", (0.2, 0.35, 0.45))
@pytest.mark.parametrize("k", (64, 1024))
def test_decomposition_cross_term_is_minus_twice_quad(d, k):
    # Pythagoras for the projection: the fitted-AR excess is the truncation
    # excess less delta' T delta, so term_cross = -2 term_quad exactly
    dec = error_decomposition(ProcessModel.frac_noise(d), k)
    assert dec.term_cross == pytest.approx(-2.0 * dec.term_quad, rel=1e-10)


def test_decomposition_requires_fractional_noise():
    with pytest.raises(ModelError):
        error_decomposition(ProcessModel.white_noise(), 5)


# -- h-step truncation bound shape -------------------------------------------

def test_h_step_excess_exponents():
    # tpmse excess ~ h^p k^q with q near -1 and p no larger than 2d
    d = 0.3
    model = ProcessModel.frac_noise(d)
    rows = []
    for h in (1, 2, 4, 8, 16, 32):
        for k in (64, 128, 256, 512, 1024):
            rep = mse_of_weights(acvf(model, k + h - 1), ma_coeffs(model, h - 1),
                                 truncated_wk_weights_at(ar_coeffs(model, k + h - 1), k, (h,))[0])
            rows.append((h, k, rep.excess))
    arr = np.array(rows)
    design = np.column_stack([np.ones(len(arr)), np.log(arr[:, 0]), np.log(arr[:, 1])])
    coef, *_ = np.linalg.lstsq(design, np.log(arr[:, 2]), rcond=None)
    h_exp, k_exp = coef[1], coef[2]
    assert -1.1 <= k_exp <= -0.9
    # the bound is an equivalent for fractional noise (constant signs), so
    # the fitted h exponent brackets 2d from both sides
    assert 2 * d - 0.1 <= h_exp <= 2 * d + 0.15


def test_reports_are_consistent():
    model = ProcessModel.frac_noise(0.3)
    rep = mse_of_weights(acvf(model, 23), ma_coeffs(model, 3),
                         truncated_wk_weights_at(ar_coeffs(model, 23), 20, (4,))[0])
    assert rep.total == pytest.approx(rep.floor + rep.excess, rel=1e-12)
    assert rep.excess >= 0.0
    assert rep.k == 20 and rep.h == 4
    assert rep.certified_tol == 0.0


def test_report_certified_tol_propagates_for_farima():
    model = ProcessModel.farima(0.3, ar=(0.5,))
    rep = mse_of_weights(acvf(model, 10), ma_coeffs(model, 0),
                         truncated_wk_weights_at(ar_coeffs(model, 10), 10, (1,))[0])
    assert 0.0 < rep.certified_tol < 1e-10


_FRAC = ProcessModel.frac_noise(0.3)


@pytest.mark.parametrize("call, message", [
    (lambda w: truncated_wk_weights_at(acvf(_FRAC, 30), 20, (5,))[0],
     "expected an 'ar' sequence, got 'acvf'"),
    (lambda w: yule_walker(ar_coeffs(_FRAC, 10), 5), "expected an 'acvf' sequence, got 'ar'"),
    (lambda w: projection_weights_at(ma_coeffs(_FRAC, 30), 20, (5,))[0],
     "expected an 'acvf' sequence, got 'ma'"),
    (lambda w: infinite_past_mse(acvf(_FRAC, 5), 3), "expected an 'ma' sequence, got 'acvf'"),
    (lambda w: mse_of_weights(ma_coeffs(_FRAC, 30), acvf(_FRAC, 30), w),
     "expected an 'acvf' sequence, got 'ma'"),
    (lambda w: mse_of_weights(acvf(_FRAC, 30), acvf(_FRAC, 30), w),
     "expected an 'ma' sequence, got 'acvf'"),
    (lambda w: mse_of_weights(acvf(_FRAC, 30), ma_coeffs(ProcessModel.frac_noise(0.2), 4), w),
     "different models"),
], ids=["wk_weights", "yule_walker", "projection", "infinite_past", "mse_acvf", "mse_ma",
        "mse_models"])
def test_sequence_consumers_reject_the_wrong_sequence(call, message):
    w = truncated_wk_weights_at(ar_coeffs(_FRAC, 24), 20, (5,))[0]
    with pytest.raises(ValueError, match=message):
        call(w)
    # models compare by value: an equal model built separately is accepted
    same = ProcessModel.frac_noise(0.3)
    assert mse_of_weights(acvf(_FRAC, 30), ma_coeffs(same, 4), w).excess > 0


@pytest.mark.parametrize("d", (0.1, 0.3, 0.45, 0.49))
@pytest.mark.parametrize("k", (16, 64, 128))
def test_projection_mse_matches_60_digit_reference(d, k):
    # stated bound: k * eps on the MSE in units of sigma(0), the scale of
    # every term of the quadratic form; the MSE itself can be ~6% of sigma(0)
    # (d = 0.49), so its own relative error may be ~16x larger
    model = ProcessModel.frac_noise(d)
    g, b = acvf(model, k + 5), ma_coeffs(model, 4)
    for w in projection_weights_at(g, k, (1, 2, 5)):
        ratio = mse_of_weights(g, b, w).total / g[0]
        assert abs(ratio - float(decimal_projection(d, k, w.h))) <= k * np.finfo(float).eps


@pytest.mark.parametrize("d", (0.1, 0.3, 0.45, 0.49))
@pytest.mark.parametrize("k", (16, 64, 128))
def test_solve_bound_covers_the_projection_mse_excess(d, k):
    # the projection MSE is variational: the exact MSE of the computed
    # weights exceeds the 60-digit optimum by r' T^-1 r <= ||r||^2 / lambda_min;
    # measured, the bound is 1.5-37 times that excess
    _, _, sigma = decimal_frac_noise(d, k + 5)
    g = acvf(ProcessModel.frac_noise(d), k + 5)
    for w in projection_weights_at(g, k, (1, 2, 5)):
        _, bound = toeplitz_solve_bounds(sigma[:k], sigma[w.h:w.h + k], w.weights,
                                         frac_noise_min_eigenvalue(d))
        with localcontext() as ctx:
            ctx.prec = 60
            excess = float(decimal_mse_of_weights(sigma, w.h, w.weights)
                           - decimal_projection(d, k, w.h) * sigma[0])
        assert 0.0 < excess <= bound <= 64 * excess, w.h


# relative error of the projection excess (figure3's `excess` column) in
# units of k eps; measured: 238-363 at every d = 0.1 cell (largest 9.6e-12,
# at k = 128) and up to 72 at d >= 0.3 (d = 0.49, k = 16)
PROJECTION_EXCESS_BOUNDS = {0.1: 512, 0.3: 128, 0.45: 128, 0.49: 128}


@pytest.mark.parametrize("d", (0.1, 0.3, 0.45, 0.49))
@pytest.mark.parametrize("k", (16, 64, 128))
def test_projection_excess_matches_60_digit_reference(d, k):
    # the reference excess is the projection MSE minus the infinite-past
    # floor sum_{l<h} b_l^2, both to 60 digits
    _, b, sigma = decimal_frac_noise(d, 4)
    model = ProcessModel.frac_noise(d)
    g, bm = acvf(model, k + 5), ma_coeffs(model, 4)
    for w in projection_weights_at(g, k, (1, 2, 5)):
        got = mse_of_weights(g, bm, w).excess
        with localcontext() as ctx:
            ctx.prec = 60
            ref = decimal_projection(d, k, w.h) * sigma[0] - sum(bl * bl for bl in b[:w.h])
            rel = float(abs((Decimal(got) - ref) / ref))
        assert rel <= PROJECTION_EXCESS_BOUNDS[d] * k * np.finfo(float).eps, (w.h, rel)


# relative error of the fitted-AR excess in units of k eps; measured: up to
# 360 at d = 0.1 (3.3e-10 at k = 4096) and up to 33 at d = 0.3 and 0.45
AR_EXCESS_BOUNDS = {0.1: 512, 0.3: 64, 0.45: 64}


@pytest.mark.parametrize("d", (0.1, 0.3, 0.45))
@pytest.mark.parametrize("k", (128, 1024, 4096))
def test_fitted_ar_excess_matches_60_digit_reference(d, k):
    ref = decimal_fitted_ar_excess(d, k)
    got = error_decomposition(ProcessModel.frac_noise(d), k).ar_excess
    rel = float(abs((Decimal(got) - ref) / ref))
    assert rel <= AR_EXCESS_BOUNDS[d] * k * np.finfo(float).eps


# relative error of the truncation excess and of r(k) in units of k eps;
# measured: 279-367 at d = 0.1 (3.2e-11 at k = 512), up to 22 at d = 0.3 and
# up to 5.6 at d = 0.45
TRUNCATION_EXCESS_BOUNDS = {0.1: 512, 0.3: 64, 0.45: 64}


@pytest.mark.parametrize("d", (0.1, 0.3, 0.45))
@pytest.mark.parametrize("k", (64, 128, 512))
def test_truncation_excess_and_ratio_match_60_digit_reference(d, k):
    trunc, ar = decimal_truncation_excess(d, k), decimal_fitted_ar_excess(d, k)
    with localcontext() as ctx:
        ctx.prec = 60
        ratio = (trunc - ar) / trunc
    bound = TRUNCATION_EXCESS_BOUNDS[d] * k * np.finfo(float).eps
    for got, ref in ((error_decomposition(ProcessModel.frac_noise(d), k).truncation_excess,
                      trunc), (improvement_ratio(d, k), ratio)):
        rel = float(abs((Decimal(got) - ref) / ref))
        assert rel <= bound, (got, rel)
