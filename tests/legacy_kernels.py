"""Reference copies of likelihood code that has since been replaced.

The conditional saddlepoint kernel used to solve one Newton sweep per
distinct ancestor count, with p0 = alpha**a a scalar per sweep, and the
panel likelihoods used to walk the trajectories on every call, grouping
transitions by the raw float gap. They are kept here verbatim apart
from names, calling the package's current plain-saddlepoint and pmf
helpers, so the replacements can be checked against them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from bdrates.errors import SolverError
from bdrates.exact import _log_pmf, geom_params
from bdrates.saddlepoint import (
    RESIDUAL_TOL,
    _cgf_terms,
    _log_spa,
    _solve_x,
    _x_max,
)


def _cond_terms(x, g, a, log_p0: float):
    """Value, first and second derivative of the non-extinction CGF
    log{(M(x) - p0)/(1 - p0)}, plus log(M(x) - p0) itself."""
    K, K1, K2 = _cgf_terms(x, g, a)
    d = log_p0 - K  # < 0 since M(x) > p0 for s > 0
    em = -np.expm1(d)  # (M - p0)/M in (0, 1]
    rho = 1.0 / em  # M/(M - p0) >= 1
    c1 = K1 * rho
    c2 = (K2 + K1 * K1) * rho - c1 * c1
    log_m_minus_p0 = K + np.log(em)
    cval = log_m_minus_p0 - _log1m_exp(log_p0)
    return cval, c1, c2, log_m_minus_p0


def _log1m_exp(logp: float) -> float:
    # log(1 - e^{logp}) for logp < 0
    return math.log(-math.expm1(logp))


def _solve_conditional_x(k_arr, a_arr, g, t, rates, log_p0: float):
    """Vectorized saddlepoints of the conditional CGF for k >= 2 lanes,
    Newton-seeded at the plain saddlepoint with a bisection fallback."""
    k_arr = np.asarray(k_arr, dtype=float)
    a_arr = np.asarray(a_arr, dtype=float)
    x = _solve_x(k_arr, a_arr, g, t, rates).copy()
    x_hi = _x_max(g)
    tol = RESIDUAL_TOL * np.maximum(1.0, k_arr)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(60):
        _, c1, c2, _ = _cond_terms(x[active], g, a_arr[active], log_p0)
        resid = c1 - k_arr[active]
        done = np.abs(resid) <= tol[active]
        with np.errstate(invalid="ignore", divide="ignore"):
            step = resid / c2
        step = np.clip(np.where(np.isfinite(step), step, 0.0), -2.0, 2.0)
        x[active] = np.minimum(x[active] - np.where(done, 0.0, step), x_hi)
        still = np.flatnonzero(active)[~done]
        active = np.zeros_like(active)
        active[still] = True
        if not active.any():
            return x
    for idx in np.flatnonzero(active):
        x[idx] = _bisect_conditional(
            float(k_arr.flat[idx]), float(a_arr.flat[idx]), g, rates, t, log_p0
        )
    return x


def _bisect_conditional(k, a, g, rates, t, log_p0):
    def fun(x):
        _, c1, _, _ = _cond_terms(x, g, a, log_p0)
        return float(c1) - k

    hi = _x_max(g) - 1e-8 * max(1.0, abs(_x_max(g)))
    x0 = float(_solve_x(np.array([k]), np.array([a]), g, t, rates)[0])
    lo = x0 - 5.0
    for _ in range(40):
        if fun(lo) < 0.0:
            break
        lo -= 5.0
    else:
        raise SolverError(
            f"cannot bracket conditional saddlepoint for k={k}, a={a}, t={t}"
        )
    return brentq(fun, lo, min(hi, 700.0), xtol=1e-14, rtol=8.9e-16, maxiter=300)


def log_spa_conditional(k_arr, a_arr, g, t, rates):
    """Per-ancestor-count conditional kernel (one Newton sweep per a)."""
    k_arr = np.asarray(k_arr, dtype=float)
    a_arr = np.asarray(a_arr, dtype=float)
    out = np.empty_like(k_arr)
    # p0 depends on a, so group lanes by ancestor count
    for a_val in np.unique(a_arr):
        sel = a_arr == a_val
        lp0 = float(a_val) * g.log_alpha
        x = _solve_conditional_x(k_arr[sel], a_arr[sel], g, t, rates, lp0)
        _, _, c2, log_mp0 = _cond_terms(x, g, a_arr[sel], lp0)
        # (1-p0) * exp(Kc - x k)/sqrt(2 pi Kc'') with Kc = log_mp0 - log(1-p0):
        # the (1-p0) factors cancel, leaving log(M - p0) directly.
        # degenerate curvature scores -inf, same as the plain lane
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = -0.5 * np.log(2.0 * math.pi * c2) + log_mp0 - x * k_arr[sel]
        out[sel] = np.where(np.isfinite(c2) & (c2 > 0.0), lp, -np.inf)
    return out


def spa_loglik(panel, rates, variant="plain"):
    """Saddlepoint panel likelihood, grouping transitions by float gap."""
    groups: dict[float, list[tuple[int, int]]] = {}
    total = 0.0
    for tr in panel:
        counts, times = tr.counts, tr.times
        for i in range(1, len(counts)):
            a = counts[i - 1]
            if a == 0:
                continue
            groups.setdefault(times[i] - times[i - 1], []).append((counts[i], a))
    for tau, pairs in groups.items():
        g = geom_params(tau, rates)
        k = np.array([p[0] for p in pairs], dtype=float)
        a = np.array([p[1] for p in pairs], dtype=float)
        zero = k == 0.0
        if zero.any():
            total += float(np.sum(a[zero])) * g.log_alpha
        if variant == "conditional":
            one = k == 1.0
            for a_val in a[one]:
                total += _log_pmf(1, int(a_val), g)
            live = ~zero & ~one
            if live.any():
                total += float(np.sum(log_spa_conditional(k[live], a[live], g, tau, rates)))
        else:
            live = ~zero
            if live.any():
                total += float(np.sum(_log_spa(k[live], a[live], g, tau, rates)))
    return total


def exact_loglik(panel, rates):
    """Exact panel likelihood, one law per distinct float gap."""
    cache = {}
    total = 0.0
    for tr in panel:
        counts, times = tr.counts, tr.times
        for i in range(1, len(counts)):
            a = counts[i - 1]
            if a == 0:
                continue  # absorbed; stays at 0 with probability 1
            tau = times[i] - times[i - 1]
            g = cache.get(tau)
            if g is None:
                g = cache[tau] = geom_params(tau, rates)
            total += _log_pmf(counts[i], a, g)
            if total == -math.inf:
                return -math.inf
    return total
