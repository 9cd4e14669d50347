"""Independent oracles used across the test suite.

Everything here deliberately avoids the production code paths it checks:
quadrature instead of log-Gamma identities, dense linear algebra instead of
Levinson, literal recursions instead of unrolled weights, and partial
summation with integral-comparison remainders instead of finite quadratic
forms.  A later section holds routes that only tests call: a general
Toeplitz solve and a scorer of one weight vector on given paths, both thin
entries to production kernels, the spectral-contrast MSE, the closed-form
fractional-noise fit, the direct truncation excess, decay-rate diagnostics
and a reader for the CSVs the commands write.  The last section computes
references to 60 digits with the standard library's ``decimal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from longpred import sim
from longpred.errors import CertificationError, IllConditionedError, NotPositiveDefiniteError
from longpred.fit import FittedAr, _levinson, closed_form_log_inflation, yule_walker
from longpred.mse import MseReport, _floor, _make_report, toeplitz_quadratic_form
from longpred.predict import PROJECTION
from longpred.process import (ACVF, AR, MA, CoefSeq, ProcessModel, _ma_series, acvf,
                              ar_coeffs, ma_coeffs)
from longpred.special import _PAIR_MIN, _stirling_tail


def gamma_by_quadrature(x: float, nodes: int = 120) -> float:
    """Gamma(x) for x > 0 from the integral definition; independent of any
    log-Gamma implementation.

    The argument is first reduced to [1, 2) by the recurrence
    Gamma(x) = (x - 1) Gamma(x - 1).  There the integral is split at t = 1:
    the lower part is the alternating series sum_k (-1)^k / (k! (x + k)),
    the upper part is smooth and handled by Gauss-Laguerre quadrature after
    the shift t = 1 + s.
    """
    assert x > 0.0
    prefactor = 1.0
    while x >= 2.0:
        x -= 1.0
        prefactor *= x
    while x < 1.0:
        prefactor /= x
        x += 1.0
    lower = 0.0
    fact = 1.0
    for k in range(0, 80):
        if k > 0:
            fact *= k
        term = (-1.0) ** k / (fact * (x + k))
        lower += term
        if abs(term) < 1e-18:
            break
    s, w = np.polynomial.laguerre.laggauss(nodes)
    upper = float(np.exp(-1.0) * np.sum(w * (1.0 + s) ** (x - 1.0)))
    return prefactor * (lower + upper)


def dense_toeplitz_solve(first_row: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination on the explicitly formed Toeplitz matrix."""
    k = len(rhs)
    idx = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    return np.linalg.solve(np.asarray(first_row)[idx], rhs)


def dense_quadratic_form(gamma: np.ndarray, w: np.ndarray) -> float:
    k = len(w)
    idx = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    return float(w @ np.asarray(gamma)[idx] @ w)


def recursive_truncated_forecast(a: np.ndarray, k: int, h: int,
                                 obs: np.ndarray) -> float:
    """Literal recursive evaluation of the h-step truncated predictor.

    pred(g) = - sum_{j=1..g-1} a_j pred(g-j) - sum_{j=1..k} a_{g-1+j} X_{k+1-j}
    """
    preds: dict[int, float] = {}
    for g in range(1, h + 1):
        s = -sum(a[g - 1 + j] * obs[k - j] for j in range(1, k + 1))
        s -= sum(a[j] * preds[g - j] for j in range(1, g))
        preds[g] = s
    return preds[h]


def _power_integral(x0: float, p: float) -> float:
    """integral_{x0}^inf x^p dx for p < -1."""
    assert p < -1.0
    return x0 ** (p + 1.0) / (-p - 1.0)


def tail_sum_power_fit(values: np.ndarray, start: int, *exponents: float) -> float:
    """Estimate sum past the window of a sequence behaving like
    sum_i c_i m^(p_i).

    ``values[i]`` is the term at index start + i; the constants are fitted
    on the supplied window and the remainder integrated past its end.
    """
    m = np.arange(start, start + values.size, dtype=float)
    design = np.column_stack([m ** p for p in exponents])
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    edge = start + values.size - 0.5
    return float(sum(c * _power_integral(edge, p)
                     for c, p in zip(coeffs, exponents)))


def tail_cross_sum(d: float, k: int, j: int, n_terms: int = 1 << 17) -> float:
    """Brute-force S(j) = sum_{l > k} a_l sigma(|j - l|) for fractional noise.

    Partial summation to ``n_terms`` closed with a fitted power-law
    remainder (the summand decays like l^(d-2)).
    """
    model = ProcessModel.frac_noise(d)
    a = ar_coeffs(model, n_terms).prefix(n_terms)
    g = acvf(model, n_terms + j).prefix(n_terms + j)
    l = np.arange(k + 1, n_terms + 1)
    terms = a[l] * g[np.abs(l - j)]
    partial = float(np.sum(terms))
    win = terms[-(n_terms // 4):]
    start = int(l[-(n_terms // 4)])
    return partial + tail_sum_power_fit(win, start, d - 2.0, d - 3.0)


def brute_orthogonality_sum(d: float, j: int, n_terms: int = 100_000) -> float:
    """Brute-force sum_{l >= 0} a_l sigma(l - j), which must vanish for j >= 1.

    Partial summation with a fitted power-law tail; the summand decays like
    l^(d-2) with an O(1/l) correction.
    """
    model = ProcessModel.frac_noise(d)
    a = ar_coeffs(model, n_terms).prefix(n_terms)
    g = acvf(model, n_terms + j).prefix(n_terms + j)
    l = np.arange(0, n_terms + 1)
    terms = a * g[np.abs(l - j)]
    partial = float(np.sum(terms))
    win = terms[-(n_terms // 4):]
    start = int(l[-(n_terms // 4)])
    return partial + tail_sum_power_fit(win, start, d - 2.0, d - 3.0)


def brute_truncation_excess(d: float, k: int, n_terms: int = 1 << 19,
                            m_max: int = 1 << 17) -> float:
    """Brute-force sum_{j,l > k} a_j a_l sigma(l - j) for fractional noise.

    Decomposed over lags: sigma(0) T(0) + 2 sum_{m>=1} sigma(m) T(m) with
    T(m) = sum_{j>k} a_j a_{j+m}.  T is evaluated by FFT correlation of the
    computed coefficient tail; three integral-comparison corrections close
    the ranges beyond (n_terms, m_max).
    """
    from math import exp, lgamma

    model = ProcessModel.frac_noise(d)
    a = ar_coeffs(model, n_terms).prefix(n_terms)
    g = acvf(model, m_max).prefix(m_max)
    tail = np.asarray(a[k + 1: n_terms + 1])
    # T(m) = sum_{j=k+1..n_terms-m} a_j a_{j+m} via FFT autocorrelation
    size = 1
    while size < 2 * tail.size:
        size *= 2
    spectrum = np.fft.rfft(tail, size)
    corr = np.fft.irfft(spectrum * np.conj(spectrum), size)[: m_max + 1]
    # correction (a): continue each T(m) past j = n_terms - m with the
    # asymptotic a_j ~ j^(-d-1) / Gamma(-d); binomial expansion of
    # integral_X^inf x^(-2d-2) (1 + m/x)^(-d-1) dx in powers of m/X
    inv_g2 = exp(-2.0 * lgamma(-d))  # 1 / Gamma(-d)^2
    m = np.arange(0.0, m_max + 1.0)
    x0 = float(n_terms) - m  # lower integration limit per lag
    c1 = d + 1.0
    c2 = (d + 1.0) * (d + 2.0) / 2.0
    c3 = (d + 1.0) * (d + 2.0) * (d + 3.0) / 6.0
    t_rem = inv_g2 * (x0 ** (-2 * d - 1) / (2 * d + 1)
                      - c1 * m * x0 ** (-2 * d - 2) / (2 * d + 2)
                      + c2 * m ** 2 * x0 ** (-2 * d - 3) / (2 * d + 3)
                      - c3 * m ** 3 * x0 ** (-2 * d - 4) / (2 * d + 4))
    t = corr + t_rem
    partial = float(g[0] * t[0] + 2.0 * np.dot(g[1:], t[1:]))
    # correction (b): lags past m_max.  sigma(m) T(m) = c m^(d-2) with
    # corrections of orders m^(-2) (inner-sum curvature, decaying like
    # m^(-d) relative) and m^(-d-2)
    y = g[m_max // 2:] * t[m_max // 2:]
    rem = tail_sum_power_fit(y, m_max // 2, d - 2.0, -2.0, -d - 2.0)
    return partial + 2.0 * rem


def arma_acvf_brute(phi: float, theta: float, n: int, s2: float = 1.0) -> np.ndarray:
    """ARMA(1,1) autocovariances from the textbook closed form."""
    g0 = s2 * (1.0 + 2.0 * phi * theta + theta * theta) / (1.0 - phi * phi)
    g1 = s2 * ((1.0 + phi * theta) * (phi + theta)) / (1.0 - phi * phi)
    out = np.empty(n + 1)
    out[0] = g0
    if n >= 1:
        out[1] = g1
        for s in range(2, n + 1):
            out[s] = phi * out[s - 1]
    return out


def per_row_paths(plan) -> np.ndarray:
    """Sample paths of a ``SimulationPlan`` drawn one replication at a time.

    Row r draws from a freshly constructed ``Philox(key=[seed, r])``
    generator; circulant embedding takes one single-row FFT per
    replication, MA truncation one ``np.convolve`` at the order the sampler
    computes for the plan.  The production sampler must match it bit for bit.
    """
    n, reps = plan.length, plan.replications
    out = np.empty((reps, n))

    def stream(r):
        key = np.array([plan.seed, r], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    if plan.method == "circulant_embedding":
        g = np.asarray(acvf(plan.model, n - 1).prefix(n - 1))
        if n == 1:
            for r in range(reps):
                out[r, 0] = math.sqrt(g[0]) * stream(r).standard_normal()
            return out
        m = 2 * n - 2
        lam = np.maximum(np.fft.fft(np.concatenate([g, g[n - 2: 0: -1]])).real, 0.0)
        amp = np.sqrt(lam / m)
        for r in range(reps):
            rng = stream(r)
            z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            out[r] = np.fft.fft(z * amp).real[:n]
        return out
    order = sim._ma_truncation_order(plan)
    b = np.asarray(ma_coeffs(plan.model, order).prefix(order))
    scale = math.sqrt(plan.model.noise_variance)
    for r in range(reps):
        eps = scale * stream(r).standard_normal(n + order)
        out[r] = np.convolve(eps, b)[order: order + n]
    return out


def reference_power_tail_sq_bound(model: ProcessModel, order: int) -> float:
    """The MA sampler's power-law tail bound on sum_{m > order} b_m^2 for
    fractional noise and FARIMA, one branch per kind, written out apart from
    ``sim._ma_tail_sq_bound``."""
    if model.kind == "frac_noise":
        d = model.d
        c = 1.0 / math.gamma(d)
        return c * c * order ** (2.0 * d - 1.0) / (1.0 - 2.0 * d)
    assert model.kind == "farima"
    d = model.d
    b = ma_coeffs(model, order).prefix(order)
    half = order // 2
    j = np.arange(half, order + 1, dtype=float)
    c = float(np.max(np.abs(b[half:]) * j ** (1.0 - d)))
    return c * c * order ** (2.0 * d - 1.0) / (1.0 - 2.0 * d)


# -- bitwise references: Levinson loops and series divisions written out apart


def _reference_check_variance(v: float, order: int, variance_floor: float) -> None:
    if not v > 0.0:
        raise NotPositiveDefiniteError(
            f"covariance sequence is not positive definite at order {order}")
    if v < variance_floor:
        raise IllConditionedError(
            f"prediction-variance iterate {v:.3e} fell below the precision "
            f"floor {variance_floor:.3e} at order {order}")


def reference_levinson_durbin(acvf_prefix, variance_floor: float = 0.0):
    """The Yule-Walker Levinson-Durbin loop on its own: (phi, v, kappa)."""
    t = np.asarray(acvf_prefix, dtype=float)
    k = t.size - 1
    v = float(t[0])
    _reference_check_variance(v, 0, variance_floor)
    phi = np.zeros(k)
    kappa = np.zeros(k)
    for m in range(k):
        num = t[m + 1] - (np.dot(phi[:m], t[m:0:-1]) if m else 0.0)
        km = num / v
        kappa[m] = km
        if m:
            phi[:m] = phi[:m] - km * phi[m - 1::-1]
        phi[m] = km
        v = v * (1.0 - km * km)
        _reference_check_variance(v, m + 1, variance_floor)
    return phi, v, kappa


def reference_solve_toeplitz(first_row, rhs, variance_floor: float = 0.0) -> np.ndarray:
    """The Levinson loop for a general right-hand side on its own."""
    t = np.asarray(first_row, dtype=float)
    b = np.asarray(rhs, dtype=float)
    k = b.size
    v = float(t[0])
    _reference_check_variance(v, 0, variance_floor)
    phi = np.zeros(k)
    x = np.zeros(k)
    for m in range(k):
        prev_rev = phi[m - 1::-1].copy() if m else None
        mu = (b[m] - (np.dot(x[:m], t[m:0:-1]) if m else 0.0)) / v
        if m:
            x[:m] -= mu * prev_rev
        x[m] = mu
        if m < k - 1:
            num = t[m + 1] - (np.dot(phi[:m], t[m:0:-1]) if m else 0.0)
            km = num / v
            if m:
                phi[:m] -= km * prev_rev
            phi[m] = km
            v = v * (1.0 - km * km)
            _reference_check_variance(v, m + 1, variance_floor)
    return x


def reference_truncated_wk_weights(a: np.ndarray, k: int, h: int) -> np.ndarray:
    """The h-step unrolling loop for one horizon on its own, from
    a_0..a_{h-1+k}: a stack rebuilt up to h alone."""
    stack = np.empty((h + 1, k))
    stack[1] = -a[1: k + 1]
    for g in range(2, h + 1):
        w = -a[g: g + k].copy()
        for j in range(1, g):
            w -= a[j] * stack[g - j]
        stack[g] = w
    return stack[h].copy()


def reference_ma_inversion(b: np.ndarray, q: int, n: int) -> np.ndarray:
    """a_0..a_n of 1/b(z) by the generic-model loop, -dot at every lag."""
    a = np.empty(n + 1)
    a[0] = 1.0
    for j in range(1, n + 1):
        top = min(j, q)
        a[j] = -np.dot(b[1: top + 1], a[j - 1:: -1][:top]) if top >= 1 else 0.0
    return a


def reference_rational_series(num, den, n: int) -> np.ndarray:
    """num(z)/den(z) by the loop that writes 0.0 - dot past the numerator."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.zeros(n + 1)
    for j in range(n + 1):
        v = num[j] if j < num.size else 0.0
        top = min(j, den.size - 1)
        if top >= 1:
            v -= np.dot(den[1:top + 1], out[j - 1::-1][:top])
        out[j] = v
    return out


def reference_dot_rational_series(num, den, n: int) -> np.ndarray:
    """num(z)/den(z) by one ``np.dot`` per term over a reversed view, -dot
    and then + num_j, at every order of den: ``process._rational_series``'s
    bits and signs of zero."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.zeros(n + 1)
    for j in range(n + 1):
        top = min(j, den.size - 1)
        if top >= 1:
            out[j] = -np.dot(den[1:top + 1], out[j - 1::-1][:top])
        if j < num.size:
            out[j] += num[j]
    return out


def reference_block_ratio_acvf(model, n: int, tol: float = 1e-10):
    """(sigma(0..n), certified_tol) of an ARMA model by the block-ratio loop
    alone: double the MA prefix until the geometric decay of its squared
    half-blocks certifies the tail below ``tol`` * sigma(0)."""
    s2 = model.noise_variance
    m = max(4 * (n + 1), 1024)
    while m <= 1 << 21:
        b = _ma_series(model.ma_filter, m)
        sigma0 = s2 * float(np.dot(b, b))
        t1 = float(np.sum(b[m // 2: (3 * m) // 4] ** 2))
        t2 = float(np.sum(b[(3 * m) // 4:] ** 2))
        tail_sq = None
        if t2 == 0.0 and np.all(b[m // 2:] == 0.0):
            tail_sq = 0.0
        elif t1 > 0.0 and t2 < 0.7 * t1:
            q = t2 / t1
            tail_sq = t2 * q / (1.0 - q)
        if tail_sq is not None and s2 * tail_sq <= tol * sigma0:
            values = reference_lag_products(b, s2, n)
            return values, s2 * tail_sq / values[0]
        m *= 2
    raise AssertionError("block-ratio loop did not certify")


def reference_lag_products(b: np.ndarray, s2: float, n: int) -> np.ndarray:
    """s2 * sum_m b_m b_{m+s} for s = 0..n by one dot per lag, 0 past the
    last lag of b."""
    out = np.zeros(n + 1)
    for s in range(min(n, b.size - 1) + 1):
        out[s] = s2 * np.dot(b[: b.size - s], b[s:])
    return out


def reference_filtered_core(psi: np.ndarray, sig_f: np.ndarray, n: int) -> np.ndarray:
    """sigma_X(s) = sum_m gbar(m) sigma_F(|s - m|) for s = 0..n, gathering
    sigma_F at each lag; gbar(m), m = -p..p, is the lag autocorrelation of
    the filter psi_0..psi_p."""
    p = psi.size - 1
    gbar = np.convolve(psi, psi[::-1])
    lags = np.arange(-p, p + 1)
    return np.array([np.dot(gbar, sig_f[np.abs(s - lags)]) for s in range(n + 1)])


def reference_quadratic_form(gamma: np.ndarray, w: np.ndarray) -> float:
    """sum_{j,l} w_j w_l gamma(|j-l|) from the lag autocorrelation of w
    taken by ``np.convolve(w, w[::-1])``."""
    k = w.size
    c = np.convolve(w, w[::-1])[k - 1:]
    return float(c[0] * gamma[0] + 2.0 * np.dot(c[1:k], gamma[1:k]))


def reference_log_gamma_diff(x: float, y: float) -> float:
    """``special.log_gamma_diff`` for one pair, in Python floats with
    ``math``'s logs: the scalar form whose bits the array form keeps."""
    if x < _PAIR_MIN or y < _PAIR_MIN:
        return math.lgamma(x) - math.lgamma(y)
    delta = x - y
    return ((y - 0.5) * math.log1p(delta / y) + delta * (math.log(x) - 1.0)
            + _stirling_tail(x) - _stirling_tail(y))


def reference_log_inflation(d: float, k: int) -> np.ndarray:
    """``fit.closed_form_log_inflation`` as one scalar log-Gamma difference
    per j."""
    j = np.arange(1, k + 1, dtype=float)
    base = reference_log_gamma_diff(k + 1.0, k - d + 1.0)
    diffs = np.array([reference_log_gamma_diff(k - d - jj + 1.0, k - jj + 1.0) for jj in j])
    return base + diffs


def same_bits(got, want) -> bool:
    """Equal values with equal signs of zero."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# -- test-only routes: entries to production kernels no command needs,
#    independent evaluations the suite compares production results against,
#    and a reader of the CSVs the commands write


def solve_toeplitz(first_row, rhs, variance_floor: float = 0.0) -> np.ndarray:
    """Solve T x = rhs for symmetric PD Toeplitz T, first row sigma(0..k-1),
    with the production Levinson kernel ``fit._levinson``.

    ``rhs`` is one right-hand side of length k or an (H, k) array of H of
    them; the solutions come back in the same shape.
    """
    t = np.asarray(first_row, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if t.ndim != 1 or t.size == 0 or b.ndim not in (1, 2) or b.shape[-1] != t.size:
        raise ValueError("first_row must be a nonempty 1-d array and rhs an "
                         "array of one or more rows of its length")
    return _levinson(t, variance_floor, b.reshape(-1, t.size))[3].reshape(b.shape)


def empirical_mse(paths: np.ndarray, weights) -> sim.McEstimate:
    """Monte-Carlo squared prediction error of one weight vector on the rows
    of ``paths``, scored by the production helpers as a whole array: the
    reference ``sim.empirical_mses`` matches bit for bit.

    Each row forecasts X_{k+h} from (X_1..X_k); columns after k + h are not
    read.
    """
    n = paths.shape[1]
    if n < weights.k + weights.h:
        raise ValueError(f"path length {n} too short for k + h = {weights.k + weights.h}")
    return sim._estimate(sim._squared_errors(paths, weights))


def read_csv(path: str | Path) -> tuple[list[str], list[str], list[list[str]]]:
    """Read back (comments, columns, string rows); inverse of write_csv."""
    comments: list[str] = []
    columns: list[str] = []
    rows: list[list[str]] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if raw.startswith("#"):
            comments.append(raw[1:].strip())
        elif not columns:
            columns = raw.split(",")
        elif raw:
            rows.append(raw.split(","))
    return comments, columns, rows


def infinite_past_coeffs(model: ProcessModel, h: int, n: int) -> np.ndarray:
    """Innovation-domain coefficients (b_h, ..., b_{h+n}) of the h-step
    infinite-past predictor.

    The infinite-past predictor is not expressible over finitely many
    observations, so only its moving-average representation is returned.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    b = ma_coeffs(model, h + n).prefix(h + n)
    return b[h:].copy()


def closed_form_ar_fit(d: float, k: int, noise_variance: float = 1.0) -> FittedAr:
    """Fractional-noise order-k fit in closed form.

    Evaluates a_{j,k} = a_j * exp(inflation) through log-Gamma differences
    and checks the sign property a_j - a_{j,k} > 0 for 1 <= j <= k, which
    the error decomposition relies on.  The innovation variance uses the
    closed-form partial correlations kappa_m = d / (m - d).
    """
    if not 0.0 < d < 0.5:
        raise ValueError("memory parameter d must lie strictly inside (0, 1/2)")
    if k < 1:
        raise ValueError("order k must be >= 1")
    a = ar_coeffs(ProcessModel.frac_noise(d), k).prefix(k)
    infl = closed_form_log_inflation(d, k)
    a_fit = np.concatenate([[1.0], a[1:] * np.exp(infl)])
    diff = -a[1:] * np.expm1(infl)  # a_j - a_{j,k}
    if not np.all(diff > 0.0):  # pragma: no cover - inflation is positive
        raise AssertionError("closed-form fit violated a_j - a_{j,k} > 0")
    m = np.arange(1, k + 1, dtype=float)
    kappa = d / (m - d)
    sigma0 = acvf(ProcessModel.frac_noise(d, noise_variance), 0)[0]
    v = sigma0 * float(np.prod(1.0 - kappa ** 2))
    return FittedAr(order=k, phi=-a_fit[1:], a_fit=a_fit,
                    innovation_variance=v, reflections=kappa)


def spectral_contrast_mse(model: ProcessModel, ar_fit: FittedAr,
                          n_terms: int = 1 << 20, tail_tol: float = 1e-8) -> float:
    """One-step error of an AR(k) fit evaluated through the spectral contrast.

    Filtering the process by the fitted operator gives residuals with
    moving-average coefficients t(j) = sum_{m<=min(j,k)} a_fit_m b_{j-m};
    the prediction error is noise_variance * sum_j t(j)^2.  The series is
    summed to ``n_terms`` and closed with a power-law tail estimate fitted on
    the trailing window; evaluation fails unless the certified residual
    uncertainty of that estimate is below ``tail_tol`` relative to the value.

    This is an independent computational route from
    :func:`mse_of_weights`; the two must agree within combined tolerances.
    """
    k = ar_fit.order
    phi_op = ar_fit.a_fit
    s2 = model.noise_variance
    support = model.finite_ma_support
    if support is not None:
        b = ma_coeffs(model, support + k).prefix(support + k)
        t = np.convolve(phi_op, b)
        return s2 * float(np.dot(t, t))
    if model.d is None:
        raise CertificationError(
            "tail estimation requires a known power-law decay (model.d)")
    d = model.d
    b = ma_coeffs(model, n_terms).prefix(n_terms)
    t = np.convolve(phi_op, b)[: n_terms + 1]
    partial = s2 * float(np.dot(t, t))
    # trailing-window fit of t(j)^2 ~ j^(2d-2) (c + e/j)
    lo = max(n_terms // 2, 8 * k, 1024)
    if lo >= n_terms:
        raise CertificationError("n_terms too small for tail estimation")
    j = np.arange(lo, n_terms + 1, dtype=float)
    y = t[lo:] ** 2 * j ** (2.0 - 2.0 * d)
    design = np.column_stack([np.ones_like(j), 1.0 / j])
    (c, e), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.max(np.abs(y - design @ np.array([c, e]))))
    edge = n_terms + 0.5
    int_c = edge ** (2.0 * d - 1.0) / (1.0 - 2.0 * d)
    int_e = edge ** (2.0 * d - 2.0) / (2.0 - 2.0 * d)
    tail_est = s2 * (c * int_c + e * int_e)
    value = partial + tail_est
    bound = 2.0 * s2 * resid * int_c
    if not bound <= tail_tol * abs(value):
        raise CertificationError(
            f"spectral tail uncertainty {bound:.3e} exceeds "
            f"{tail_tol:g} * value", achieved_bound=bound / abs(value))
    return float(value)


def truncated_one_step_excess(model: ProcessModel, k: int) -> float:
    """Truncation excess at h = 1 computed directly from the quadratic form.

    Equals sum_{i,j=0..k} a_i a_j sigma(i-j) - noise_variance; kept separate
    from the decomposition so the two routes can cross-check each other.
    """
    a = ar_coeffs(model, k).prefix(k)
    g = acvf(model, k).prefix(k)
    return toeplitz_quadratic_form(g, a) - model.noise_variance


def fitted_ar_mse(model: ProcessModel, k: int) -> MseReport:
    """One-step MSE of the Yule-Walker AR(k) fit, as a report."""
    fit = yule_walker(acvf(model, k), k)
    total = fit.innovation_variance
    return _make_report(total, _floor(ma_coeffs(model, 0), 1), PROJECTION, k, 1, 0.0)


_TARGET_EXPONENT = {AR: lambda d: -d - 1.0, MA: lambda d: d - 1.0, ACVF: lambda d: 2.0 * d - 1.0}


@dataclass(frozen=True)
class DecayReport:
    """Power-law decay diagnostics for a coefficient sequence."""

    kind: str
    fitted_exponent: float
    target_exponent: float | None
    delta: float
    constant: float | None       # smallest C with |v_j| <= C j^(target+delta)
    zero_tail: bool
    n_points: int


def verify_decay(seq: CoefSeq, delta: float = 0.05) -> DecayReport:
    """Fit log|v_j| against log j over the trailing half of a sequence.

    The target exponent is -d-1, d-1 or 2d-1 for AR, MA and ACVF sequences.
    Sequences with an exactly zero tail (finite moving averages) are flagged
    instead of fitted.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if len(seq) < 50:
        raise ValueError("need at least 50 computed values to fit a decay rate")
    v = seq.values
    n = v.size - 1
    start = max(1, n // 2)
    tail = v[start:]
    d = seq.model.d
    target = _TARGET_EXPONENT[seq.kind](d) if d is not None else None
    if np.all(tail == 0.0):
        return DecayReport(seq.kind, math.nan, target, delta, 0.0 if target is not None else None,
                           True, tail.size)
    j = np.arange(start, n + 1, dtype=float)
    mask = tail != 0.0
    x = np.log(j[mask])
    y = np.log(np.abs(tail[mask]))
    slope, _ = np.polyfit(x, y, 1)
    constant = None
    if target is not None:
        jj = np.arange(1, n + 1, dtype=float)
        constant = float(np.max(np.abs(v[1:]) / jj ** (target + delta)))
    return DecayReport(seq.kind, float(slope), target, delta, constant, False, int(mask.sum()))


# -- 60-digit references


def decimal_projection(d: float, k: int, h: int) -> Decimal:
    """h-step projection MSE over k observations of fractional noise,
    divided by sigma(0), to 60 significant digits.

    The autocorrelations rho(j) = prod_{i=1..j} (i - 1 + d) / (i - d) are
    exact rational products in d (taken at the exact binary value of the
    float), so the ratio needs no Gamma function.  A Levinson recursion at
    ``prec = 60`` solves R x = (rho(h), ..., rho(h+k-1)), and the MSE ratio
    is 1 - sum_j x_j rho(h-1+j).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        dd = Decimal(d)
        rho = [Decimal(1)]
        for i in range(1, k + h):
            rho.append(rho[-1] * (i - 1 + dd) / (i - dd))
        rhs = rho[h: h + k]
        v, phi, x = rho[0], [], []
        for m in range(k):
            mu = (rhs[m] - sum(x[i] * rho[m - i] for i in range(m))) / v
            x = [x[i] - mu * phi[m - 1 - i] for i in range(m)] + [mu]
            if m + 1 < k:
                km = (rho[m + 1] - sum(phi[i] * rho[m - i] for i in range(m))) / v
                phi = [phi[i] - km * phi[m - 1 - i] for i in range(m)] + [km]
                v *= 1 - km * km
        return 1 - sum(xi * ri for xi, ri in zip(x, rhs))


def _bernoulli(count: int) -> list[Fraction]:
    """B_0..B_count exactly, by the recurrence sum_{i<=m} C(m+1, i) B_i = 0."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        b.append(-sum(math.comb(m + 1, i) * b[i] for i in range(m)) / (m + 1))
    return b


def decimal_pi() -> Decimal:
    """pi to the current precision, by the decimal module's recipe."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def decimal_log_gamma(x: float | Decimal) -> Decimal:
    """ln Gamma(x) for x > 0 to 60 significant digits, at the exact value of x.

    The Stirling series with 30 exact Bernoulli terms is summed at y = x + 40,
    where its first dropped term is below 1e-64, and the shift is undone by
    subtracting ln(x + i) for i = 0..39.
    """
    x = Decimal(x)
    assert x > 0
    with localcontext() as ctx:
        ctx.prec = 70
        y = x + 40
        series = sum(Decimal(b.numerator) / (Decimal(b.denominator) * (2 * n) * (2 * n - 1)
                                             * y ** (2 * n - 1))
                     for n, b in enumerate(_bernoulli(60)[2::2], start=1))
        stirling = (y - Decimal("0.5")) * y.ln() - y + (2 * decimal_pi()).ln() / 2 + series
        out = stirling - sum((x + i).ln() for i in range(40))
    with localcontext() as ctx:
        ctx.prec = 60
        return +out


def decimal_frac_noise(d: float, n: int) -> tuple[list[Decimal], list[Decimal], list[Decimal]]:
    """a_0..a_n, b_0..b_n and sigma(0..n) of unit-variance fractional noise
    to 60 significant digits, at the exact binary d.

    sigma(0) = Gamma(1 - 2d) / Gamma(1 - d)^2; the rest are running products
    of the rational one-term ratios.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        dd = Decimal(d)
        a, b = [Decimal(1)], [Decimal(1)]
        sigma = [(decimal_log_gamma(1 - 2 * dd) - 2 * decimal_log_gamma(1 - dd)).exp()]
        for i in range(1, n + 1):
            a.append(a[-1] * (i - 1 - dd) / i)
            b.append(b[-1] * (i - 1 + dd) / i)
            sigma.append(sigma[-1] * (i - 1 + dd) / (i - dd))
        return a, b, sigma


def decimal_fit_phi(d: float, k: int) -> list[Decimal]:
    """phi_{k,1..k} of the order-k Yule-Walker fit of fractional noise to
    60 significant digits, at the exact binary d.

    The fit is known in closed form (Hosking 1981):
    phi_{k,j} = -a_j prod_{i=k-j+1..k} i / (i - d), a running product in j.
    """
    a, _, _ = decimal_frac_noise(d, k)
    with localcontext() as ctx:
        ctx.prec = 60
        dd = Decimal(d)
        phi, inflation = [], Decimal(1)
        for j in range(1, k + 1):
            inflation *= (k - j + 1) / (k - j + 1 - dd)
            phi.append(-a[j] * inflation)
        return phi


def decimal_fitted_ar_excess(d: float, k: int) -> Decimal:
    """v_k - 1, the order-k fitted-AR one-step excess of unit-variance
    fractional noise, to 60 significant digits at the exact binary d.

    The reflections are d / (j - d), so the Levinson variance is
    v_k = sigma(0) prod_{j<=k} j (j - 2d) / (j - d)^2.
    """
    _, _, sigma = decimal_frac_noise(d, 0)
    with localcontext() as ctx:
        ctx.prec = 60
        dd = Decimal(d)
        v = sigma[0]
        for j in range(1, k + 1):
            v *= j * (j - 2 * dd) / ((j - dd) * (j - dd))
        return v - 1


def decimal_truncation_excess(d: float, k: int) -> Decimal:
    """a' T a - 1 with a = (a_0..a_k), the order-k truncated-AR one-step
    excess of unit-variance fractional noise, to 60 significant digits at
    the exact binary d.

    Summed lag by lag: sigma(0) sum_j a_j^2 + 2 sum_{s>=1} sigma(s)
    sum_j a_j a_{j+s}, O(k^2) products.
    """
    a, _, sigma = decimal_frac_noise(d, k)
    with localcontext() as ctx:
        ctx.prec = 60
        total = sigma[0] * sum(aj * aj for aj in a)
        for s in range(1, k + 1):
            total += 2 * sigma[s] * sum(a[j] * a[j + s] for j in range(k + 1 - s))
        return total - 1


# -- the CSV writer as it was written cell by cell, kept as a byte reference


def _reference_fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def reference_write_csv(path: str | Path, schema: str, comments, columns, rows) -> Path:
    """``csvio.write_csv`` with one ``_reference_fmt`` call per cell."""
    path = Path(path)
    lines = [f"# schema: {schema}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_reference_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path
