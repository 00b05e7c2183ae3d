"""Reference copies of estimator code that has since been replaced.

The conditional saddlepoint kernel used to solve one Newton sweep per
distinct ancestor count, with p0 = alpha**a a scalar per sweep, and the
panel likelihoods used to walk the trajectories on every call, grouping
transitions by the raw float gap. The moment estimator, the Gaussian
quasi-likelihood and the fallback start of the likelihood searches
walked the trajectories too, one transition at a time. The exact
likelihood then summed the scalar pmf of every transition of the table
on each call, before its rate-free term table replaced the loop. The
joint-path saddlepoint solved each trajectory's N-dimensional
saddlepoint system through the nested generating function, by damped
Newton with Cholesky steps, before it was found to equal the plain
saddlepoint likelihood to its solver tolerance. Every likelihood fit
searched by Nelder-Mead with perturbed restarts, about 270 evaluations
each, before damped Newton steps on the exact likelihood's analytic
derivatives replaced it, and one Nelder-Mead run confirmed on the
covariance stencil replaced it for the saddlepoint fits. That 9-point
central-difference stencil gave the covariance of a fit without an
analytic Hessian, before every fit had one. The Newton step took its
floored Hessian from LAPACK's symmetric eigensolver (numpy.linalg.eigh)
before a closed-form 2x2 decomposition replaced it. The saddlepoint
solve was seeded at a root of a quadratic in s = e^x whose coefficients
came from the rates, with its own critical branch and overflow check,
choosing between both roots, before the closed-form root in
u = 1 - beta e^x replaced it. They are kept here
verbatim apart from names, calling the package's current helpers, so
the replacements can be checked against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import brentq, minimize, minimize_scalar

from bdrates import saddlepoint
from bdrates.errors import DataError, DomainError, SolverError
from bdrates.exact import (
    _NEG_INF,
    GeomParams,
    _log_phi_derivs,
    _log_pmf,
    geom_params,
    is_critical,
    pgf_geom,
)
from bdrates.gaussian import (
    _LOG_2PI,
    DEGENERATE_XI_FLOOR,
    QgFit,
    QgParams,
    _clamped_rates,
    _nu,
    _true_cumulants,
    qg_sandwich_cov,
)
from bdrates.gw import GwMoments, gw_estimate
from bdrates.optimize import EIG_FLOOR, FATOL, MAX_STEP, XATOL, Model, OptResult
from bdrates.saddlepoint import (
    RESIDUAL_TOL,
    _cgf_terms,
    _log_radius,
    _log_spa,
    _newton,
    _x_max,
    solve_saddlepoint,
)
from bdrates.types import Panel, Rates


@np.errstate(over="ignore", invalid="ignore")
def _saddle_quadratic(ratio, t: float, rates: Rates):
    """Coefficients (A, B, C) of the quadratic whose root in (0, R) is the
    saddlepoint in s, for ratio = a/k (B depends on the ratio; A, C do not).

    All three carry one power-of-two scale that keeps B*B and 4*A*C finite;
    the scale is exact, so the roots are those of the unscaled quadratic.
    Coefficients that overflow before scaling raise DomainError (so does
    an exp or a power that overflows on the way to them; an array B that
    overflows reads inf or NaN under the errstate, and raises the same)."""
    try:
        if is_critical(rates):
            u = 0.5 * rates.xi * t
            A = u - u * u
            B = 2.0 * u * u - 1.0 + ratio
            C = -u - u * u
        else:
            lam, mu = rates.lam, rates.mu
            m = math.exp(rates.omega * t)
            A = lam * (m - 1.0) * (lam - mu * m)
            B = 2.0 * lam * mu * (1.0 + m * m - m) - m * (lam * lam + mu * mu) + ratio * (
                m * (lam - mu) ** 2
            )
            C = mu * (m - 1.0) * (mu - lam * m)
    except OverflowError:
        A = B = C = math.inf
    b_max = float(np.abs(B).max())  # inf or NaN if any entry is
    if not (math.isfinite(A) and math.isfinite(C) and math.isfinite(b_max)):
        raise DomainError(
            f"saddlepoint coefficients overflow at horizon {t}, "
            f"rates ({rates.lam}, {rates.mu})"
        )
    big = max(abs(A), abs(C), b_max)
    scale = math.ldexp(1.0, -max(math.frexp(big)[1], 0))
    return A * scale, B * scale, C * scale


def _stable_roots(A, B, C):
    """Both roots of A s^2 + B s + C = 0 without subtractive cancellation;
    lanes that do not exist come back as NaN."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    disc = B * B - 4.0 * A * C
    floor = -1e-12 * np.maximum(B * B, np.abs(4.0 * A * C))
    if np.any(disc < floor):
        raise SolverError("saddlepoint quadratic has complex roots; inconsistent inputs")
    disc = np.maximum(disc, 0.0)
    q = -0.5 * (B + np.sign(B) * np.sqrt(disc))
    q = np.where(B == 0.0, np.sqrt(np.maximum(-A * C, 0.0)), q)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(A != 0.0, q / A, np.nan)
        r2 = np.where(q != 0.0, C / q, np.nan)
    return r1, r2


def solve_x_quadratic(k_arr, a_arr, g: GeomParams, t: float, rates: Rates, conditional: bool):
    """Vectorized saddlepoints x~ of the variant's saddle equation, for
    k >= 1 lanes (k >= 2 conditional), and the variant's terms there
    (_newton's last pass). Both variants are seeded at the closed-form
    root of the plain saddle quadratic; conditional a = 1 lanes, whose
    conditional law is geometric, at their exact root log(1 - 1/k) + log R
    instead (capped at x_hi).

    Where beta rounds close to 1, both roots can round onto 1/beta and
    fail the range check although K' crosses k below x_hi; such lanes are
    seeded at x_hi, and the solve finds the root or raises its
    guard-band SolverError."""
    k_arr = np.asarray(k_arr, dtype=float)
    a_arr = np.asarray(a_arr, dtype=float)
    A, B, C = _saddle_quadratic(a_arr / k_arr, t, rates)
    r1, r2 = _stable_roots(A, B, C)
    x_hi = _x_max(g)
    s_hi = 1.0 / g.beta if g.beta > 0.0 else math.inf

    def in_range(r):
        return np.isfinite(r) & (r > 0.0) & (r < s_hi)

    ok1, ok2 = in_range(r1), in_range(r2)
    seeded = ok1 | ok2
    all_seeded = bool(seeded.all())
    if x_hi == math.inf and not all_seeded:
        bad = int(np.argmin(seeded))
        raise SolverError(
            f"no saddlepoint root in (0, {s_hi}) for k={k_arr.flat[bad]}, "
            f"a={a_arr.flat[bad]}, t={t}, rates=({rates.lam}, {rates.mu})"
        )
    s = np.where(ok1, r1, r2 if all_seeded else np.where(ok2, r2, np.nan))
    # where both roots look admissible, keep the one closer to solving K'=k;
    # a root inside the guard band is scored at x_hi, where its solve starts
    both = ok1 & ok2 & (r1 != r2)
    if np.any(both):
        _, d1a, _ = _cgf_terms(np.minimum(np.log(r1[both]), x_hi), g, a_arr[both])
        _, d1b, _ = _cgf_terms(np.minimum(np.log(r2[both]), x_hi), g, a_arr[both])
        s[both] = np.where(
            np.abs(d1a - k_arr[both]) <= np.abs(d1b - k_arr[both]),
            r1[both],
            r2[both],
        )
    x = np.minimum(np.log(s), x_hi)
    if not all_seeded:
        x = np.where(seeded, x, x_hi)
    if not conditional:
        return _newton(x, k_arr, lambda x: _cgf_terms(x, g, a_arr), x_hi, t, a_arr, rates)
    one = a_arr == 1.0
    if x_hi < math.inf and one.any():  # beta = 0 leaves no root to seed at
        # Kc' = 1/(1 - beta e^x) for a = 1, which is k at beta e^x = 1 - 1/k
        x = np.where(one, np.minimum(np.log1p(-1.0 / k_arr) + _log_radius(g), x_hi), x)
    return _newton(x, k_arr, lambda x: saddlepoint._cond_terms(x, g, a_arr), x_hi, t, a_arr, rates)


@np.errstate(divide="ignore", invalid="ignore")
def log_spa_quadratic(k_arr, a_arr, g, t, rates, conditional):
    """The saddlepoint kernel _log_spa on the quadratic seed above: the
    log pmfs, scored as _log_spa scores the terms of the solve's last
    pass."""
    x, terms = solve_x_quadratic(k_arr, a_arr, g, t, rates, conditional)
    value, _, d2 = terms[:3]
    if conditional:
        value = value + np.log(terms[3])
    lp = -0.5 * np.log(2.0 * math.pi * d2) + value - x * k_arr
    return np.where(np.isfinite(d2) & (d2 > 0.0), lp, -np.inf)


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
    x = solve_x_quadratic(k_arr, a_arr, g, t, rates, False)[0].copy()
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
    x0 = float(solve_x_quadratic(np.array([k]), np.array([a]), g, t, rates, False)[0][0])
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
                total += float(np.sum(_log_spa(k[live], a[live], g, tau, rates, False)[1]))
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


def exact_loglik_transition_walk(panel: Panel, rates: Rates) -> float:
    """Exact log likelihood of a panel: the sum of log transition
    probabilities over consecutive observation pairs (the process is
    Markov, so these factorize). Transitions out of state 0 contribute 0.

    The panel's transitions table supplies one law per merged gap; the
    per-transition sums run on Python ints."""
    total = 0.0
    for grp in panel.transitions.groups:
        g = geom_params(grp.tau, rates)
        for a, k in zip(grp.src.tolist(), grp.dst.tolist()):
            total += _log_pmf(k, a, g)
            if total == _NEG_INF:
                return _NEG_INF
    return total


def gw_moments(panel: Panel) -> GwMoments:
    """Pooled moment estimators over all trajectories and generations.

    m_hat is the ratio of summed targets to summed sources; sigma2_hat
    averages the squared standardized one-step fluctuations around m_hat.
    Requires equal spacing throughout the panel.
    """
    if not panel.equal_spacing():
        raise DataError(
            "panel is not equally spaced; the embedded-process estimator "
            "does not apply (use the quasi-likelihood estimator instead)"
        )
    delta_t = panel.common_gap()
    num = 0.0
    den = 0.0
    n_terms = 0
    for tr in panel:
        counts = tr.counts
        for j in range(1, len(counts)):
            src = counts[j - 1]
            if src == 0:
                continue  # absorbed; 0/0 := 1 makes the term vanish
            num += counts[j]
            den += src
            n_terms += 1
    if den <= 0.0 or n_terms == 0:
        raise DataError("panel has no transitions with a positive source count")
    m_hat = num / den
    acc = 0.0
    for tr in panel:
        counts = tr.counts
        for j in range(1, len(counts)):
            src = counts[j - 1]
            if src == 0:
                continue
            acc += src * (counts[j] / src - m_hat) ** 2
    return GwMoments(m_hat, acc / n_terms, delta_t, n_terms, len(panel))


def gw_standard_errors(moments: GwMoments, panel: Panel) -> tuple[float, float, float]:
    """Plug-in asymptotic standard errors (se_lambda, se_mu, se_omega).

    The rate pair has equal standard errors
    |log m| * sigma2 / sqrt(2 dt^2 m^2 (m-1)^2 n_terms); the growth rate
    uses the observed-information normalization sigma / (m dt sqrt(S))
    with S the summed source counts. Outside the supercritical regime
    the rate-pair formula degenerates (division by m-1) and the caller
    is expected to flag the regime; the values are still returned.
    """
    m, s2, dt = moments.m_hat, moments.sigma2_hat, moments.delta_t
    src_total = 0.0
    for tr in panel:
        counts = tr.counts
        for j in range(1, len(counts)):
            if counts[j - 1] > 0:
                src_total += counts[j - 1]
    gap = abs(m - 1.0)
    if gap > 0.0 and m > 0.0:
        se_rate = abs(math.log(m)) * s2 / math.sqrt(
            2.0 * dt * dt * m * m * gap * gap * moments.n_terms
        )
    else:
        se_rate = math.inf
    se_omega = (
        math.sqrt(s2) / (m * dt * math.sqrt(src_total)) if src_total > 0.0 else math.inf
    )
    return se_rate, se_rate, se_omega


def _transitions(panel: Panel):
    """(tau, src, dst) for every informative transition: positive source,
    so extinct tails contribute exactly their absorbing step and 0 -> 0
    is never scored."""
    for tr in panel:
        counts, times = tr.counts, tr.times
        for j in range(1, len(counts)):
            src = counts[j - 1]
            if src >= 1:
                yield times[j] - times[j - 1], src, counts[j]


def qg_loglik(panel: Panel, params: QgParams) -> float:
    """Gaussian working log likelihood (2*pi constant included)."""
    if not isinstance(params, QgParams):
        params = QgParams(*params)
    omega, xi = params.omega, params.xi
    total = 0.0
    n = 0
    for tau, src, dst in _transitions(panel):
        zeta = math.exp(omega * tau)
        v = src * xi * _nu(tau, omega)
        r = dst - src * zeta
        total += -0.5 * (_LOG_2PI + math.log(v) + r * r / v)
        n += 1
    if n == 0:
        raise DataError("panel has no transitions with a positive source count")
    return total


def qg_profile_xi(panel: Panel, omega: float) -> float:
    """Closed-form maximizer of the working likelihood in xi at fixed
    omega: the average squared standardized residual."""
    acc = 0.0
    n = 0
    for tau, src, dst in _transitions(panel):
        zeta = math.exp(omega * tau)
        r = dst - src * zeta
        acc += r * r / (src * _nu(tau, omega))
        n += 1
    if n == 0:
        raise DataError("panel has no transitions with a positive source count")
    return acc / n


def _profile_loglik_terms(trans: list[tuple[float, int, int]], omega: float) -> float:
    # l(xi_hat(omega), omega) over a precomputed transition list, with
    # the additive constants kept so the value matches qg_loglik there
    acc = 0.0
    log_v_sum = 0.0
    for tau, src, dst in trans:
        zeta = math.exp(omega * tau)
        nu = _nu(tau, omega)
        r = dst - src * zeta
        acc += r * r / (src * nu)
        log_v_sum += math.log(src * nu)
    n = len(trans)
    xi = acc / n
    if xi <= 0.0:
        return math.inf  # deterministic fit: unbounded profile
    return -0.5 * (n * _LOG_2PI + n * math.log(xi) + log_v_sum) - 0.5 * n


def _profile_loglik(panel: Panel, omega: float) -> float:
    return _profile_loglik_terms(list(_transitions(panel)), omega)


def qg_fit(panel: Panel) -> QgFit:
    """Profile fit over omega with the closed-form xi plugged in.

    The bracket is centered at the pooled-ratio growth guess and widened
    (doubled, up to 5 times) whenever the maximizer lands on an edge.
    Fits whose maximum leaves the open wedge are clamped to the nearest
    rate boundary, preserving omega_hat, and flagged.
    """
    trans = list(_transitions(panel))
    if not trans:
        raise DataError("panel has no transitions with a positive source count")
    tau_bar = sum(t[0] for t in trans) / len(trans)
    num = sum(t[2] for t in trans)
    den = sum(t[1] for t in trans)
    if num > 0:
        omega_init = math.log(num / den) / tau_bar
    else:
        omega_init = math.log(0.5 / den) / tau_bar  # total extinction
    half = 10.0 / tau_bar
    lo, hi = omega_init - half, omega_init + half
    iterations = 0
    omega_hat = omega_init
    for _ in range(6):
        # coarse scan first: golden section alone can get trapped on the
        # spurious far-negative mode of crash panels (see module docstring)
        grid = np.linspace(lo, hi, 65)
        vals = np.array([_profile_loglik_terms(trans, w) for w in grid])
        iterations += len(grid)
        best = int(np.argmax(vals))
        if best == 0 or best == len(grid) - 1:
            width = hi - lo
            lo, hi = lo - width / 2.0, hi + width / 2.0
            omega_hat = float(grid[best])
            continue
        res = minimize_scalar(
            lambda w: -_profile_loglik_terms(trans, w),
            bounds=(float(grid[best - 1]), float(grid[best + 1])),
            method="bounded",
            options={"xatol": 1e-10, "maxiter": 500},
        )
        iterations += int(res.nfev)
        omega_hat = float(res.x)
        break
    xi_hat = qg_profile_xi(panel, omega_hat)
    loglik = _profile_loglik(panel, omega_hat)

    if xi_hat < DEGENERATE_XI_FLOOR:
        return QgFit(
            None,
            _clamped_rates(omega_hat),
            None,
            loglik,
            iterations,
            boundary=True,
            degenerate=True,
        )
    if not (xi_hat > abs(omega_hat)):
        return QgFit(
            None,
            _clamped_rates(omega_hat),
            None,
            loglik,
            iterations,
            boundary=True,
            degenerate=False,
        )
    params = QgParams(omega_hat, xi_hat)
    cov = qg_sandwich_cov(panel, params)
    return QgFit(
        params, params.rates, cov, loglik, iterations, boundary=False, degenerate=False
    )


def _information(panel: Panel, params: QgParams) -> np.ndarray:
    """Expected information of the full panel at params, with observed
    source counts standing in for their expectations."""
    omega, xi = params.omega, params.xi
    i_xx = 0.0
    i_xw = 0.0
    i_ww = 0.0
    for tau, src, _dst in _transitions(panel):
        u = omega * tau
        nu = _nu(tau, omega)
        nd = tau * (1.0 + _log_phi_derivs(u)[0])  # nu_dot / nu
        zd = tau * math.exp(u)  # zeta_dot
        i_xx += 1.0 / (2.0 * xi * xi)
        i_xw += nd / (2.0 * xi)
        i_ww += 0.5 * nd * nd + (src * zd * zd) / (xi * nu)
    return np.array([[i_xx, i_xw], [i_xw, i_ww]])


def _score_cov_true(panel: Panel, params: QgParams) -> np.ndarray:
    omega, xi = params.omega, params.xi
    rates = params.rates
    by_tau: dict[float, tuple[float, float, float]] = {}
    c_xx = 0.0
    c_xw = 0.0
    c_ww = 0.0
    for tau, src, _dst in _transitions(panel):
        if tau not in by_tau:
            by_tau[tau] = _true_cumulants(tau, rates)
        k2, k3_raw, k4_raw = by_tau[tau]
        # standardized cumulants of (dst - src*zeta)/sqrt(src*k2)
        kap3 = k3_raw / (math.sqrt(src) * k2**1.5)
        kap4 = k4_raw / (src * k2 * k2)
        u = omega * tau
        nu = _nu(tau, omega)
        nd = tau * (1.0 + _log_phi_derivs(u)[0])
        zd = tau * math.exp(u)
        c_xx += 1.0 / (2.0 * xi * xi) + kap4 / (4.0 * xi * xi)
        c_xw += (nd * (2.0 + kap4) + 2.0 * zd * math.sqrt(src) * kap3 / math.sqrt(xi * nu)) / (
            4.0 * xi
        )
        c_ww += (
            0.25 * nd * nd * (2.0 + kap4)
            + (src * zd * zd) / (xi * nu)
            + nd * zd * math.sqrt(src) * kap3 / math.sqrt(xi * nu**3)
        )
    return np.array([[c_xx, c_xw], [c_xw, c_ww]])


def initial_rates(panel: Panel) -> Rates:
    """Interior starting point for the likelihood searches.

    Equal-spacing panels seed from the moment estimator; otherwise (or
    when the moments degenerate) the pooled growth ratio fixes omega and
    the total-rate guess 2|omega| + 1 keeps the start well inside the
    wedge.  Zero components from a clamped moment fit are floored.
    """
    lam = mu = None
    if panel.equal_spacing():
        try:
            est = gw_estimate(panel)
            lam, mu = est.rates.lam, est.rates.mu
        except (DataError, DomainError):
            pass
    if lam is None:
        num = 0
        den = 0
        tau_sum = 0.0
        n = 0
        for tr in panel:
            gaps = tr.gaps()
            for j in range(tr.n_transitions):
                if tr.counts[j] == 0:
                    continue
                num += tr.counts[j + 1]
                den += tr.counts[j]
                tau_sum += gaps[j]
                n += 1
        if n == 0:
            raise DataError("panel has no transitions with a positive source count")
        tau_bar = tau_sum / n
        if num > 0:
            omega = math.log(num / den) / tau_bar
        else:
            omega = math.log(0.5 / den) / tau_bar
        xi = 2.0 * abs(omega) + 1.0
        lam = 0.5 * (xi + omega)
        mu = 0.5 * (xi - omega)
    floor = 1e-3 * max(1.0, lam + mu)
    return Rates(max(lam, floor), max(mu, floor))


# ---------------------------------------------------------------------------
# joint-path saddlepoint: the N-dimensional solve that mv_loglik used to run

MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30
MV_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class MvSaddle:
    """Solved N-dimensional saddlepoint: location, CGF value, first two
    derivative arrays there, and the final sup-norm residual of
    K'(x_tilde) - k (bounded by MV_RESIDUAL_TOL * max(1, |k|_inf))."""

    x_tilde: np.ndarray
    cgf_value: float
    grad: np.ndarray
    hess: np.ndarray
    residual_norm: float


def _gaps_from_times(times: Sequence[float], n: int) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) != n + 1:
        raise DomainError(
            f"need {n + 1} observation times for a length-{n} vector, got {len(t)}"
        )
    gaps = np.diff(t)
    if not (np.all(gaps > 0.0) and np.all(np.isfinite(gaps))):
        raise DomainError("observation times must be finite and strictly increasing")
    return gaps


def _check_ancestors(a: int) -> None:
    if a != int(a) or a < 1:
        raise DomainError(f"ancestor count must be a positive integer, got {a}")


def _level_params(gaps: np.ndarray, rates: Rates) -> list:
    return [geom_params(float(tau), rates) for tau in gaps]


def _level_pgf(s: float, g, level: int) -> tuple[float, float, float]:
    # single-gap map and its first two derivatives; the domain check is
    # the implicit convergence-region test for the whole composition
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(
            f"joint generating function argument left the domain at nesting "
            f"level {level} (inner argument {s})"
        )
    try:
        return pgf_geom(s, g)
    except DomainError as exc:
        raise DomainError(
            f"joint generating function argument left the domain at nesting "
            f"level {level} ({exc})"
        ) from exc


def joint_pgf(s: Sequence[float], times: Sequence[float], a: int, rates: Rates) -> float:
    """Joint generating function E[prod_j s_j^{Z(t_j)} | Z(t_0) = a].

    times is the full observation grid (t_0, ..., t_N); s has one entry
    per observed time after t_0.  Composition runs from the innermost
    (last) gap outward; a domain violation at any level raises with the
    level named.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or len(s) == 0:
        raise DomainError("s must be a nonempty vector")
    _check_ancestors(a)
    gaps = _gaps_from_times(times, len(s))
    params = _level_params(gaps, rates)
    w = 1.0
    for j in range(len(s) - 1, -1, -1):
        w, _, _ = _level_pgf(s[j] * w, params[j], j + 1)
    return w**a


def _nested_derivs(
    x: np.ndarray, params: list, a: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """CGF of the path vector, with gradient and Hessian in x.

    Carries (value, gradient, Hessian) of the inner composite w_j
    through each level: with y_j = s_j * w_{j+1} and s_j = e^{x_j},
    dy/dx_j = y and the cross second derivatives of y_j against the
    deeper coordinates equal the scaled inner gradient, so the Hessian
    update is rank-one plus a bordered scaling.
    """
    n = len(x)
    s = np.exp(x)
    val = 1.0
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for j in range(n - 1, -1, -1):
        y = s[j] * val
        gy = s[j] * grad
        gy[j] = y
        hy = s[j] * hess
        hy[j, :] = gy
        hy[:, j] = gy
        f, f1, f2 = _level_pgf(y, params[j], j + 1)
        val = f
        grad = f1 * gy
        hess = f2 * np.outer(gy, gy) + f1 * hy
    if val <= 0.0:
        raise DomainError("joint generating function is nonpositive")
    k_val = a * math.log(val)
    k_grad = (a / val) * grad
    k_hess = (a / val) * hess - (a / (val * val)) * np.outer(grad, grad)
    return k_val, k_grad, k_hess


def mv_cgf(
    x: Sequence[float], times: Sequence[float], a: int, rates: Rates
) -> tuple[float, np.ndarray, np.ndarray]:
    """Path CGF K(x) = a log g(e^x; 1) with exact gradient and Hessian."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise DomainError("x must be a nonempty vector")
    _check_ancestors(a)
    gaps = _gaps_from_times(times, len(x))
    return _nested_derivs(x, _level_params(gaps, rates), a)


def _univariate_start(k: np.ndarray, gaps: np.ndarray, a: int, rates: Rates) -> np.ndarray:
    # componentwise saddlepoints of the factorized transitions: the exact
    # solution when the coupling between gaps is ignored
    x0 = np.empty(len(k))
    src = a
    for j in range(len(k)):
        x0[j] = solve_saddlepoint(int(k[j]), float(gaps[j]), src, rates).x_tilde
        src = int(k[j])
    return x0


def _feasible_start(
    x: np.ndarray, params: list, a: int
) -> tuple[np.ndarray, tuple[float, np.ndarray, np.ndarray]]:
    """Pull x toward the origin, halving it, until the path CGF and its
    derivatives are finite there.

    The componentwise start ignores the coupling between gaps and can put
    an inner argument past the convergence radius.  x = 0 is always
    feasible: every nested argument is then 1, below every level's radius.
    """
    for _ in range(MAX_HALVINGS):
        try:
            derivs = _nested_derivs(x, params, a)
        except DomainError:
            derivs = None
        if derivs is not None and all(np.all(np.isfinite(d)) for d in derivs):
            return x, derivs
        x = 0.5 * x
    x = np.zeros_like(x)
    return x, _nested_derivs(x, params, a)


def mv_solve(
    k: Sequence[int], times: Sequence[float], a: int, rates: Rates
) -> MvSaddle:
    """Solve the N-dimensional saddlepoint system K'(x) = k.

    Damped Newton from the componentwise univariate saddlepoints, pulled
    toward the origin until they lie inside the joint domain; steps are
    halved when the residual norm fails to decrease or the iterate leaves
    the convergence region (signalled by the domain error of the nested
    composition).
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or len(k) == 0:
        raise DomainError("k must be a nonempty vector")
    if not np.all(k > 0.0) or not np.all(k == np.round(k)):
        raise DomainError("joint saddlepoint needs positive integer counts")
    _check_ancestors(a)
    gaps = _gaps_from_times(times, len(k))
    params = _level_params(gaps, rates)
    tol = MV_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(k))))

    x, (val, grad, hess) = _feasible_start(
        _univariate_start(k, gaps, a, rates), params, a
    )
    resid = float(np.max(np.abs(grad - k)))
    trace = [resid]
    for _ in range(MAX_NEWTON_ITER):
        if resid <= tol:
            return MvSaddle(x, val, grad, hess, resid)
        try:
            chol = np.linalg.cholesky(hess)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"path CGF Hessian lost positive definiteness at residual {resid}"
            ) from exc
        direction = cho_solve((chol, True), k - grad)
        step = 1.0
        for _ in range(MAX_HALVINGS):
            x_new = x + step * direction
            try:
                val_n, grad_n, hess_n = _nested_derivs(x_new, params, a)
            except DomainError:
                step *= 0.5
                continue
            resid_n = float(np.max(np.abs(grad_n - k)))
            if resid_n < resid:
                break
            step *= 0.5
        else:
            raise SolverError(
                f"joint saddlepoint line search stalled; residual trace {trace}"
            )
        x, val, grad, hess, resid = x_new, val_n, grad_n, hess_n, resid_n
        trace.append(resid)
    raise SolverError(
        f"joint saddlepoint did not converge in {MAX_NEWTON_ITER} iterations; "
        f"residual trace {trace}"
    )


def _prefix_length(k: np.ndarray) -> int:
    # absorption: once the count hits zero it stays zero
    positive = np.flatnonzero(k > 0)
    if len(positive) == 0:
        return 0
    i = int(positive[-1]) + 1
    if np.any(k[:i] == 0):
        raise DomainError(
            "observation vector revives after extinction; zero counts may "
            "only trail the positive prefix"
        )
    return i


def mv_log_spa_pmf(
    k: Sequence[int], times: Sequence[float], a: int, rates: Rates
) -> float:
    """Log of the joint-path saddlepoint pmf approximation.

    Trailing zeros factor out exactly: the first zero contributes the
    exact extinction probability of the last positive count over its
    gap, later zeros contribute probability one.  The positive prefix
    gets the N-dimensional saddlepoint formula with the Hessian
    determinant from its Cholesky factor.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or len(k) == 0:
        raise DomainError("k must be a nonempty vector")
    if np.any(k < 0.0) or not np.all(k == np.round(k)):
        raise DomainError("counts must be nonnegative integers")
    _check_ancestors(a)
    gaps = _gaps_from_times(times, len(k))

    i = _prefix_length(k)
    log_factor = 0.0
    if i < len(k):
        src = int(k[i - 1]) if i > 0 else a
        g = geom_params(float(gaps[i]), rates)
        log_factor = src * g.log_alpha
    if i == 0:
        return log_factor
    sol = mv_solve(k[:i].astype(int), np.asarray(times)[: i + 1], a, rates)
    chol = np.linalg.cholesky(sol.hess)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return (
        log_factor
        + sol.cgf_value
        - float(sol.x_tilde @ k[:i])
        - 0.5 * (i * _LOG_2PI + log_det)
    )


def mv_spa_pmf(k: Sequence[int], times: Sequence[float], a: int, rates: Rates) -> float:
    """Joint-path saddlepoint pmf approximation on the probability scale."""
    return math.exp(mv_log_spa_pmf(k, times, a, rates))


def mv_loglik(panel: Panel, rates: Rates) -> float:
    """Joint-path approximate log-likelihood: one term per trajectory."""
    total = 0.0
    for tr in panel:
        total += mv_log_spa_pmf(tr.counts[1:], tr.times, tr.counts[0], rates)
    return total


# ---------------------------------------------------------------------------
# likelihood search: Nelder-Mead with perturbed restarts, as maximize_2d ran,
# and the 9-point stencil that gave the Hessian of a Nelder-Mead optimum

PERTURB_SCALE = 0.25
_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _stencil(
    objective: Callable[[np.ndarray], float], th: np.ndarray, centre: float
) -> tuple[np.ndarray, np.ndarray]:
    """The 8 neighbours of th on the 9-point central-difference stencil,
    per-coordinate step eps^(1/3) * max(1, |theta|), and the Hessian they
    form with centre, the objective's value at th."""
    h = _EPS_CBRT * np.maximum(1.0, np.abs(th))

    def g(d0: float, d1: float) -> float:
        return objective(np.array([th[0] + d0, th[1] + d1]))

    east, west, north, south = g(h[0], 0.0), g(-h[0], 0.0), g(0.0, h[1]), g(0.0, -h[1])
    corners = g(h[0], h[1]), g(h[0], -h[1]), g(-h[0], h[1]), g(-h[0], -h[1])
    h00 = (east - 2.0 * centre + west) / (h[0] * h[0])
    h11 = (north - 2.0 * centre + south) / (h[1] * h[1])
    h01 = (corners[0] - corners[1] - corners[2] + corners[3]) / (4.0 * h[0] * h[1])
    values = np.array([east, west, north, south, *corners], dtype=float)
    return values, np.array([[h00, h01], [h01, h11]])


def maximize_2d(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    *,
    restarts: int = 3,
    maxiter: int = 2000,
    seed: int = 0,
) -> OptResult:
    """Maximize a 2-D objective by Nelder-Mead with perturbed restarts.

    The objective may return -inf (or nan, treated the same) to reject a
    point; it must be finite at x0.  After the initial run, up to
    `restarts` further runs are started from the incumbent optimum plus
    Gaussian noise of scale PERTURB_SCALE.  A restart that lands back
    on the incumbent (to tolerance) confirms it and stops the loop
    early; a restart that improves it replaces it and the search
    continues.  converged reports whether the best run terminated on the
    simplex tolerances rather than the iteration budget.  A start where
    the objective is not finite raises DomainError.
    """
    x_start = np.asarray(x0, dtype=float)
    if x_start.shape != (2,):
        raise ValueError(f"expected a 2-vector start, got shape {x_start.shape}")
    n_evals = 0

    def negated(x: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        val = objective(x)
        # nan and +inf both mean the probe broke down numerically; -inf is
        # a legitimate log-zero rejection. All three score as +inf here so
        # the minimizer never mistakes a degenerate spike for an optimum.
        if not math.isfinite(val):
            return math.inf
        return -val

    if not math.isfinite(-negated(x_start)):
        raise DomainError(
            f"objective is not finite at the starting point {x_start.tolist()}"
        )

    def run(start: np.ndarray):
        # rejected probes sit at +inf in the simplex; scipy's fatol check then
        # computes inf-inf, which is harmless but noisy without the errstate
        with np.errstate(invalid="ignore"):
            return minimize(
                negated,
                start,
                method="Nelder-Mead",
                options={
                    "xatol": XATOL,
                    "fatol": FATOL,
                    "maxiter": maxiter,
                    "maxfev": 4 * maxiter,
                },
            )

    rng = np.random.default_rng(seed)
    best = run(x_start)
    for _ in range(restarts):
        start = best.x + PERTURB_SCALE * rng.standard_normal(2)
        res = run(start)
        same_point = np.max(np.abs(res.x - best.x)) <= 1e-6 * np.maximum(
            1.0, np.max(np.abs(best.x))
        )
        close_value = abs(res.fun - best.fun) <= 10.0 * FATOL * max(1.0, abs(best.fun))
        if res.fun < best.fun:
            best = res
            if same_point and close_value:
                break
            continue
        if res.success and same_point and close_value:
            break
    return OptResult(
        x=(float(best.x[0]), float(best.x[1])),
        fun=-float(best.fun),
        n_evals=n_evals,
        converged=bool(best.success),
    )


# ---------------------------------------------------------------------------
# Newton step of maximize_2d, with the floored Hessian from numpy.linalg.eigh


def _newton_step(model: Optional[Model]) -> Optional[tuple[np.ndarray, float]]:
    """Ascent step of the model with its Hessian's eigenvalues floored to
    at most -EIG_FLOOR*max(1, max |eigenvalue|), clipped to max-norm
    MAX_STEP, and the gain that floored model predicts for it; None when
    the model or the step is not finite."""
    if model is None:
        return None
    grad, hess = model
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        return None
    eig, vec = np.linalg.eigh(hess)
    eig = np.minimum(eig, -EIG_FLOOR * max(1.0, float(np.max(np.abs(eig)))))
    along = vec.T @ grad
    with np.errstate(over="ignore", invalid="ignore"):
        coef = along / eig
        step = -vec @ coef
    if not np.all(np.isfinite(step)):
        return None
    # the full step gains q = -along . coef >= 0 on the floored model, a
    # step scaled by c gains q*c*(1 - c/2)
    q = -float(along @ coef)
    size = float(np.max(np.abs(step)))
    if size > MAX_STEP:
        c = MAX_STEP / size
        return step * c, q * c * (1.0 - 0.5 * c)
    return step, 0.5 * q
