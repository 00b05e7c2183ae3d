"""Independent high-precision references used to pin expected values.

Everything here is deliberately written against the raw formulas with
mpmath arbitrary-precision arithmetic and without reusing any package
code path, so package results can be checked against a genuinely
separate evaluation.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 60


def mp_alpha_beta(t, lam, mu):
    """(alpha, beta) at horizon t in arbitrary precision."""
    t, lam, mu = mp.mpf(t), mp.mpf(lam), mp.mpf(mu)
    if lam == mu:
        u = lam * t
        a = u / (1 + u)
        return a, a
    w = lam - mu
    ewt = mp.e ** (w * t)
    alpha = mu * (ewt - 1) / (lam * ewt - mu)
    beta = lam * (ewt - 1) / (lam * ewt - mu)
    return alpha, beta


def mp_transition_prob(k, t, a, lam, mu):
    """P(Z(t) = k | Z(0) = a) in arbitrary precision."""
    k, a = int(k), int(a)
    if a == 0:
        return mp.mpf(1) if k == 0 else mp.mpf(0)
    alpha, beta = mp_alpha_beta(t, lam, mu)
    if k == 0:
        return alpha ** a
    total = mp.mpf(0)
    for j in range(max(0, a - k), a):
        total += (
            mp.binomial(a, j)
            * mp.binomial(k - 1, a - j - 1)
            * alpha ** j
            * ((1 - alpha) * (1 - beta)) ** (a - j)
            * beta ** (k - a + j)
        )
    return total


def mp_pgf(s, t, a, lam, mu):
    """E[s^Z(t)] from a ancestors in arbitrary precision."""
    s = mp.mpf(s)
    alpha, beta = mp_alpha_beta(t, lam, mu)
    one = alpha + (1 - alpha) * (1 - beta) * s / (1 - beta * s)
    return one ** int(a)


def mp_cgf(x, t, a, lam, mu):
    """Cumulant generating function a*log f(e^x, t) in arbitrary precision."""
    return int(a) * mp.log(mp_pgf(mp.e ** mp.mpf(x), t, 1, lam, mu))


def mp_cgf_derivative(x, t, a, lam, mu, order=1):
    """Derivatives of the cumulant generating function in x, via mpmath
    high-order numerical differentiation at high precision."""
    f = lambda y: mp_cgf(y, t, a, lam, mu)
    return mp.diff(f, mp.mpf(x), order)


def mp_cgf_prime(x, t, a, lam, mu):
    """K'(x) in closed form, a (1-alpha)(1-beta) s / ((1 - beta s)^2 f(s))
    with s = e^x, at the working precision. Unlike mp_cgf_derivative it
    takes no step in x, so it holds where the radius is closer to x than
    mp.diff's step; 1 - beta s keeps the digits of the working precision
    beyond those that 1 - beta cancels (run it at 200 digits where
    1 - beta is near 1e-146)."""
    return _cgf_prime(x, a, *mp_alpha_beta(t, lam, mu))


def _cgf_prime(x, a, alpha, beta):
    s = mp.e ** mp.mpf(x)
    f = alpha + (1 - alpha) * (1 - beta) * s / (1 - beta * s)
    return int(a) * (1 - alpha) * (1 - beta) * s / ((1 - beta * s) ** 2 * f)


def mp_cond_cgf_prime(x, t, a, lam, mu):
    """Kc'(x) = K'(x) M / (M - alpha^a) in closed form, M = f(e^x)^a, at
    the working precision: M - alpha^a keeps the digits of the working
    precision beyond those that 1 - beta cancels (run it at 300 digits
    where 1 - beta is near 1e-212)."""
    return _cond_cgf_prime(x, a, *mp_alpha_beta(t, lam, mu))


def _cond_cgf_prime(x, a, alpha, beta):
    s = mp.e ** mp.mpf(x)
    m = (alpha + (1 - alpha) * (1 - beta) * s / (1 - beta * s)) ** int(a)
    return _cgf_prime(x, a, alpha, beta) * m / (m - alpha ** int(a))


def mp_log_spa_pmf(k, t, a, lam, mu, lo, hi):
    """Log of the plain saddlepoint pmf approximation, with the saddlepoint
    found by bisecting K'(x) = k on [lo, hi] in arbitrary precision."""
    alpha, beta = mp_alpha_beta(t, lam, mu)
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    for _ in range(400):
        mid = (lo + hi) / 2
        if _cgf_prime(mid, a, alpha, beta) < k:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    k2 = mp_cgf_derivative(x, t, a, lam, mu, order=2)
    return -mp.log(2 * mp.pi * k2) / 2 + mp_cgf(x, t, a, lam, mu) - x * k


def mp_cond_cgf_derivative(x, t, a, lam, mu):
    """First derivative in x of the CGF of the law conditioned on
    non-extinction, log{(M(x) - alpha^a)/(1 - alpha^a)} with M(x) the pgf
    at e^x: M'(x)/(M(x) - alpha^a), M' by mpmath numerical differentiation.
    It runs at 150 digits: where 1 - beta is near 1e-55, M - alpha^a keeps
    only the digits of M beyond the 55th."""
    with mp.workdps(150):
        alpha, _ = mp_alpha_beta(t, lam, mu)
        m = lambda y: mp_pgf(mp.e ** y, t, a, lam, mu)
        x = mp.mpf(x)
        return mp.diff(m, x) / (m(x) - alpha ** int(a))


def mp_log_cond_spa_pmf(k, t, a, lam, mu, lo, hi):
    """Log of the conditional saddlepoint pmf approximation scaled back by
    the survival probability 1 - alpha^a, log(M(x) - alpha^a) - x k
    - log(2 pi Kc''(x))/2, with the saddlepoint found by bisecting
    Kc'(x) = k (mp_cond_cgf_prime) on [lo, hi] and Kc'' by mpmath
    differentiation of mp_cond_cgf_prime, in arbitrary precision."""
    alpha, beta = mp_alpha_beta(t, lam, mu)
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    for _ in range(400):
        mid = (lo + hi) / 2
        if _cond_cgf_prime(mid, a, alpha, beta) < k:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    kc2 = mp.diff(lambda y: mp_cond_cgf_prime(y, t, a, lam, mu), x)
    m = mp_pgf(mp.e ** x, t, a, lam, mu)
    return mp.log(m - alpha ** int(a)) - mp.log(2 * mp.pi * kc2) / 2 - x * k
