"""Independent oracles used across the test suite.

Everything here deliberately avoids the production code paths it checks:
quadrature instead of log-Gamma identities, dense linear algebra instead of
Levinson, literal recursions instead of unrolled weights, and partial
summation with integral-comparison remainders instead of finite quadratic
forms.
"""

from __future__ import annotations

import math

import numpy as np

from longpred.process import ProcessModel, acvf, ar_coeffs, ma_coeffs


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
    replication, MA truncation one ``np.convolve`` at the plan's explicit
    ``ma_order``.  The production sampler must match it bit for bit.
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
    order = plan.ma_order
    b = np.asarray(ma_coeffs(plan.model, order).prefix(order))
    scale = math.sqrt(plan.model.noise_variance)
    for r in range(reps):
        eps = scale * stream(r).standard_normal(n + order)
        out[r] = np.convolve(eps, b)[order: order + n]
    return out
