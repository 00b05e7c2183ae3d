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
u = 1 - beta e^x replaced it; its critical branch read the band test
that the law parameters used before they kept their lam == mu limit
for omega == 0 alone. The saddlepoint derivatives were taken from jets
by implicit differentiation, the conditional one composing the plain
jet with log(e^T - 1) in two variables, before the plain lanes took a
closed form and the conditional ones a composition in one variable; the
conditional solve then spent its first CGF pass on the step that its
seed now takes in closed form. The conditional solve ran in x, through
the plain CGF terms and log(M/p0), and its lanes were differentiated
through the jet of log(M - p0) composed in E, before the solve in
s = log u and the closed-form psi in E and u. The transitions table
was built by a Python walk over every step, sorting the steps by a key
function and chaining the gap runs one step at a time, and the spacing
tests, the moments, the pooled growth guess and the simulator's gap
laws walked the gaps and counts on every call, before the table was
built from flat arrays with the moments kept beside it. The Newton
search and the covariance of its optimum took their arithmetic on numpy
2-vectors and 2x2 arrays before they took it in Python floats. The panel
sampler drew each gap's births in one masked-array negative-binomial
call over the live lanes before it drew them lane by lane. They are
kept here verbatim apart from names, calling the package's current
helpers, so the replacements can be checked against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import brentq, minimize, minimize_scalar

from bdrates import saddlepoint
from bdrates.errors import CapError, DataError, DomainError, SolverError
from bdrates.exact import (
    _NEG_INF,
    GeomParams,
    _log_phi_derivs,
    _log_pmf,
    geom_params,
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
from bdrates import optimize
from bdrates.optimize import EIG_FLOOR, FATOL, MAX_STEP, XATOL, Model, OptResult
from bdrates.saddlepoint import (
    RESIDUAL_TOL,
    _Lanes,
    _cgf_terms,
    _log_radius,
    _log_spa,
    _newton,
    _x_max,
    solve_saddlepoint,
)
from bdrates.simulate import _MAX_STEP_MEAN
from bdrates.types import SPACING_TOL, Panel, Rates


def is_critical(rates: Rates) -> bool:
    """Whether the rate pair falls in the near-critical band, |omega| <=
    1e-8 * xi, where geom_params took the lam == mu limit formulas before
    it kept them for omega == 0 alone."""
    return abs(rates.omega) <= 1e-8 * rates.xi


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
    return _newton(x, k_arr, lambda x: cond_terms(x, g, a_arr), x_hi, t, a_arr, rates)


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
                total += float(np.sum(_log_spa(_Lanes(k[live], a[live]), g, tau, rates, False)[1]))
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


# ---------------------------------------------------------------------------
# the step walks that the flat step table replaced


def _left_sum(values) -> float:
    # sum() as it added floats before Python 3.12, one after another from
    # 0; from 3.12 on sum() compensates its float sums
    acc = 0
    for v in values:
        acc += v
    return acc


def transitions_walk(panel: Panel) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(tau, src, dst) of each gap group, as Transitions.from_panel built
    them by walking the steps (its float sum() written as _left_sum, which
    keeps its order on every Python version)."""
    steps = [
        (b - a, k0, k1)
        for tr in panel
        for a, b, k0, k1 in zip(tr.times, tr.times[1:], tr.counts, tr.counts[1:])
        if k0 > 0
    ]
    order = sorted(range(len(steps)), key=lambda i: steps[i][0])
    runs: list[list[int]] = []
    lo = 0.0
    for i in order:
        gap = steps[i][0]
        # same test as Panel.equal_spacing, against the run's smallest gap
        if runs and gap - lo <= SPACING_TOL * 0.5 * (lo + gap):
            runs[-1].append(i)
        else:
            runs.append([i])
            lo = gap
    groups = []
    for run in runs:
        members = [steps[i] for i in sorted(run)]
        groups.append(
            (
                _left_sum(m[0] for m in members) / len(members),
                np.array([m[1] for m in members], dtype=np.int64),
                np.array([m[2] for m in members], dtype=np.int64),
            )
        )
    return groups


def validate_trajectory_walk(times, counts) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Trajectory's checks as they walked every element, raising the same
    DataErrors; returns the (times, counts) a Trajectory keeps."""
    times = tuple(float(t) for t in times)
    counts = tuple(counts)
    if len(times) != len(counts):
        raise DataError(
            f"times and counts must have equal length, got {len(times)} and {len(counts)}"
        )
    if len(times) < 2:
        raise DataError("a trajectory needs at least two observations")
    for t in times:
        if not math.isfinite(t):
            raise DataError(f"non-finite observation time {t}")
    for a, b in zip(times, times[1:]):
        if not b > a:
            raise DataError(f"observation times must strictly increase ({a} then {b})")
    for k in counts:
        if not isinstance(k, (int,)) or isinstance(k, bool):
            raise DataError(f"counts must be integers, got {k!r}")
        if k < 0:
            raise DataError(f"counts must be nonnegative, got {k}")
    if counts[0] < 1:
        raise DataError("initial count must be positive")
    for prev, cur in zip(counts, counts[1:]):
        if prev == 0 and cur > 0:
            raise DataError("zero is absorbing: a zero count cannot be followed by a positive one")
    return times, counts


def all_gaps_walk(panel: Panel) -> list[float]:
    out: list[float] = []
    for tr in panel.trajectories:
        out.extend(tr.gaps())
    return out


def _gaps_agree(gaps: list[float], tolerance: float) -> bool:
    lo, hi = min(gaps), max(gaps)
    mid = 0.5 * (lo + hi)
    return (hi - lo) <= tolerance * mid


def equal_spacing_walk(panel: Panel, tolerance: float = SPACING_TOL) -> bool:
    return _gaps_agree(all_gaps_walk(panel), tolerance)


def common_gap_walk(panel: Panel, tolerance: float = SPACING_TOL) -> float:
    gaps = all_gaps_walk(panel)
    if not _gaps_agree(gaps, tolerance):
        raise DataError(
            f"panel is not equally spaced: gaps range [{min(gaps)}, {max(gaps)}]"
        )
    return _left_sum(gaps) / len(gaps)


def gw_moments_group_walk(panel: Panel) -> GwMoments:
    """gw_moments as it read the gap groups: src and dst concatenated in
    group order, sigma2_hat summed one transition at a time."""
    try:
        delta_t = common_gap_walk(panel)
    except DataError:
        raise DataError(
            "panel is not equally spaced; the embedded-process estimator "
            "does not apply (use the quasi-likelihood estimator instead)"
        ) from None
    src: list[int] = []
    dst: list[int] = []
    for grp in panel.transitions.groups:
        src += grp.src.tolist()
        dst += grp.dst.tolist()
    n_terms = len(src)
    m_hat = sum(dst) / sum(src)
    acc = 0.0
    for a, k in zip(src, dst):
        acc += a * (k / a - m_hat) ** 2
    return GwMoments(m_hat, acc / n_terms, delta_t, n_terms, len(panel))


def pooled_growth_walk(panel: Panel) -> tuple[float, float]:
    """Transitions.pooled_growth as it summed the groups' counts."""
    groups = panel.transitions.groups
    n = sum(len(grp.src) for grp in groups)
    tau_bar = sum(grp.tau * (len(grp.src) / n) for grp in groups)
    num = sum(sum(grp.dst.tolist()) for grp in groups)
    den = sum(sum(grp.src.tolist()) for grp in groups)
    if num > 0:
        return math.log(num / den) / tau_bar, tau_bar
    return math.log(0.5 / den) / tau_bar, tau_bar


def gap_laws_walk(config) -> list[tuple[float, float, float, float]]:
    """simulate._gap_laws with one geom_params call per observation."""
    laws = []
    prev = 0.0
    for t in config.obs_times:
        g = geom_params(t - prev, config.rates)
        laws.append(
            (t, math.exp(g.log1m_alpha), math.exp(g.log1m_beta), g.log_beta - g.log1m_beta)
        )
        prev = t
    return laws


def draw_paths_array(rng, config, laws, n: int) -> np.ndarray:
    """simulate._draw_paths with each gap's births drawn by one array
    negative_binomial call over the live lanes."""
    n_obs = len(laws)
    out = np.empty((n, n_obs + 1), dtype=np.int64)
    z = np.full(n, config.z0, dtype=np.int64)
    out[:, 0] = z
    for i, (t, p_survive, p_geom, log_growth) in enumerate(laws):
        z = rng.binomial(z, p_survive)
        s_max = int(z.max())
        if s_max > 0:
            log_mean = math.log(s_max) + log_growth
            if log_mean > math.log(_MAX_STEP_MEAN):
                raise CapError(
                    f"population cap {config.max_pop} out of reach at t={t:.6g}: "
                    f"the step expects {math.exp(min(log_mean, 700.0)):.3g} births, "
                    f"more than can be drawn; {i}/{n_obs} observations recorded"
                )
            live = z > 0
            z[live] += rng.negative_binomial(z[live], p_geom)
            if int(z.max()) > config.max_pop:
                raise CapError(
                    f"population cap {config.max_pop} exceeded at t={t:.6g}, "
                    f"{i}/{n_obs} observations recorded"
                )
        out[:, i + 1] = z
    return out


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


# ---------------------------------------------------------------------------
# saddlepoint derivatives by jets: the plain jet, the multivariate Faa di
# Bruno composition, and the conditional jet composed from them; and the
# conditional solve's seed before its first Newton step was taken in
# closed form


def solve_x_conditional(k_arr, a_arr, g: GeomParams, t: float, rates: Rates):
    """The conditional branch of saddlepoint._solve_x seeded at the lower
    of the plain root and log(1 - 1/k) + log R, capped at x_hi, without
    the closed-form first Newton step."""
    k_arr = np.asarray(k_arr, dtype=float)
    a_arr = np.asarray(a_arr, dtype=float)
    x = saddlepoint._plain_root(_Lanes(k_arr, a_arr), g)[0]
    if not np.all(np.isfinite(x)):
        raise SolverError("no saddlepoint root")
    x_hi = _x_max(g)
    x = np.minimum(x, x_hi)
    x = np.minimum(x, np.log1p(-1.0 / k_arr) + _log_radius(g))
    return _newton(x, k_arr, lambda x: cond_terms(x, g, a_arr), x_hi, t, a_arr, rates)


def plain_jet(x, g: GeomParams, a):
    """The jet of a Phi(y, z) = a log(1 + e^z r(y)) at the lanes' x. With
    E = z + log r(y), whose y-derivatives are 1 + r, r(1 + r), ... and
    whose z-derivative is 1, a Phi = a softplus(E), and softplus has the
    derivatives q, q p, q p (p - q), q p (1 - 6 q p) with q = 1 - p the
    logistic of E."""
    s = np.exp(x)
    n2 = math.exp(g.log1m_beta) - g.beta * np.expm1(x)  # 1 - beta e^x
    r = g.beta * s / n2
    # e^z r = (1-alpha)(1-beta) e^x / (alpha n2); its logistic q and 1 - q
    # share the denominator alpha n2 + (1-alpha)(1-beta) e^x
    tail = math.exp(g.log1m_alpha + g.log1m_beta) * s
    den = g.alpha * n2 + tail
    q, p = tail / den, g.alpha * n2 / den
    e1 = 1.0 / n2
    e2 = r * e1
    e3 = e2 * (1.0 + 2.0 * r)
    e4 = e2 * (1.0 + 6.0 * e2)
    f1 = a * q
    f2 = f1 * p
    f3 = f2 * (p - q)
    f4 = f2 * (1.0 - 6.0 * q * p)
    sq1 = e1 * e1
    return (
        f1 * e1,
        f2 * sq1 + f1 * e2,
        f3 * sq1 * e1 + 3.0 * f2 * e1 * e2 + f1 * e3,
        f4 * sq1 * sq1 + 6.0 * f3 * sq1 * e2 + f2 * (4.0 * e1 * e3 + 3.0 * e2 * e2) + f1 * e4,
        f1,
        f2,
        f2 * e1,
        f3 * e1,
        f3 * sq1 + f2 * e2,
        f4 * sq1 + f3 * e2,
        f4 * sq1 * e1 + 3.0 * f3 * e1 * e2 + f2 * e3,
    )


def _compose(f1, f2, f3, f4, jet):
    """The jet of F(J) from F's first four derivatives at J and J's jet
    (Faa di Bruno)."""
    j1, j2, j3, j4, jz, jzz, jyz, jyzz, jyyz, jyyzz, jyyyz = jet
    sq1, sqz = j1 * j1, jz * jz
    return (
        f1 * j1,
        f2 * sq1 + f1 * j2,
        f3 * sq1 * j1 + 3.0 * f2 * j1 * j2 + f1 * j3,
        f4 * sq1 * sq1 + 6.0 * f3 * sq1 * j2 + f2 * (4.0 * j1 * j3 + 3.0 * j2 * j2) + f1 * j4,
        f1 * jz,
        f2 * sqz + f1 * jzz,
        f2 * j1 * jz + f1 * jyz,
        f3 * j1 * sqz + f2 * (j1 * jzz + 2.0 * jyz * jz) + f1 * jyzz,
        f3 * sq1 * jz + f2 * (j2 * jz + 2.0 * j1 * jyz) + f1 * jyyz,
        f4 * sq1 * sqz + f3 * (j2 * sqz + sq1 * jzz + 4.0 * j1 * jyz * jz)
        + f2 * (j2 * jzz + 2.0 * (jyyz * jz + j1 * jyzz + jyz * jyz)) + f1 * jyyzz,
        f4 * sq1 * j1 * jz + 3.0 * f3 * (sq1 * jyz + j1 * j2 * jz)
        + f2 * (3.0 * (j2 * jyz + j1 * jyyz) + j3 * jz) + f1 * jyyyz,
    )


def conditional_jet(x, g: GeomParams, a):
    """The jet of log(e^{a Phi} - 1) at the lanes' x: log(M - p0) less
    a log(alpha). Its derivatives in t = a Phi are 1 + v, -v(1 + v),
    v(1 + v)(1 + 2v), -v(1 + v)(1 + 6v(1 + v)) with v = 1/(e^t - 1) =
    p0/(M - p0). Where M - p0 is far below M, t is tiny and the fourth,
    about 6/t^4, overflows below t = 1e-77, although each term of the
    composition is of order 1. So the n-th derivative is taken times t^n
    and a Phi's jet divided by t, which leaves every term unchanged: with
    w = vt = t/(e^t - 1) in (0, 1] they read t + w, -w(t + w),
    w(t + w)(t + 2w) and -w(t + w)(t^2 + 6w(t + w))."""
    t = log_m_over_p0(x, g, a)
    w = t / np.expm1(t)
    tw = t + w
    jet = [j / t for j in plain_jet(x, g, a)]
    return _compose(tw, -w * tw, w * tw * (t + 2.0 * w), -w * tw * (t * t + 6.0 * w * tw), jet)


# ---------------------------------------------------------------------------
# the conditional kernel in x: the solve seeded one closed-form Halley step
# from the plain root, its terms formed from log(M/p0), and the jet of
# log(M - p0) composed in E and differentiated implicitly, before the
# solve in s = log u and the closed-form psi of saddlepoint._cond_psi


def log_m_over_p0(x, g: GeomParams, a):
    """log(M(x)/p0) = a log(f/alpha) for a ancestors, with p0 = alpha**a,
    as a log1p of f/alpha - 1 = (1-alpha)(1-beta) e^x / (alpha (1 - beta e^x)),
    so that it keeps its digits where M - p0 is far below M."""
    n2 = math.exp(g.log1m_beta) - g.beta * np.expm1(x)
    return a * np.log1p(np.exp(g.log1m_alpha + g.log1m_beta - g.log_alpha + x) / n2)


@np.errstate(over="ignore", invalid="ignore")
def cond_terms(x, g: GeomParams, a):
    """K = log M(x), the first and second derivative of the non-extinction
    CGF log{(M(x) - p0)/(1 - p0)}, and em = (M - p0)/M, so that
    log(M(x) - p0) = K + log(em).

    em is formed from log(M/p0) (log_m_over_p0), not from K - log(p0):
    where 1 - beta is tiny, M - p0 can be below one ulp of M at the
    saddlepoint (1 - beta = e^-489 on a 2 -> 9 lane at lam 387.5,
    mu 142.9), and the difference keeps no digits of it. Where K' and K''
    are large enough that c2 overflows, it reads inf or NaN: the solve
    then bisects, and the pmf scores the lane -inf.
    """
    K, K1, K2 = _cgf_terms(x, g, a)
    em = -np.expm1(-log_m_over_p0(x, g, a))  # (M - p0)/M in (0, 1]
    # far below the saddlepoint log(M/p0) can underflow to 0: the lane is
    # outside the domain there and reads NaN
    em = np.where(em > 0.0, em, np.nan)
    rho = 1.0 / em  # M/(M - p0) >= 1
    c1 = K1 * rho
    c2 = (K2 + K1 * K1) * rho - c1 * c1
    return K, c1, c2, em


def solve_x_conditional_halley(k_arr, a_arr, g: GeomParams, t: float, rates: Rates):
    """The conditional branch of saddlepoint._solve_x before the solve in
    s = log u: seeded at the lower of the plain root moved by a closed-form
    Halley step and log(1 - 1/k) + log R, capped at x_hi, and solved in x
    by _newton on cond_terms."""
    k_arr = np.asarray(k_arr, dtype=float)
    a_arr = np.asarray(a_arr, dtype=float)
    x, s = saddlepoint._plain_root(_Lanes(k_arr, a_arr), g)
    ok = np.isfinite(x)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise SolverError(
            f"no saddlepoint root for k={k_arr.flat[bad]}, a={a_arr.flat[bad]}, "
            f"t={t}, rates=({rates.lam}, {rates.mu})"
        )
    x_hi = _x_max(g)
    # a Halley step from the plain root, at most twice Newton's and clipped
    # to -2 as _newton clips its own. There K' = k, K'' = k^2 S/a (the block
    # below) and K''' = k/u^2 (p(2p - 1) + 3p(1 - u) + (1 - u)(2 - u)) with
    # u = 1 - beta e^x, p = 1 - k u/a; so with v = p0/(M - p0), Kc' - k = k v,
    # Kc'' = (1 + v)(K'' - v k^2), Kc''' = (1 + v)(K''' - 3v k K'' + v(1 + 2v)
    # k^3), without a CGF pass. A lane keeps its root where that is not below
    # x_hi, Kc'' <= 0 or the step is not finite: the float root fails there
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v = 1.0 / np.expm1(log_m_over_p0(x, g, a_arr))
        u = math.exp(g.log1m_beta) - g.beta * np.expm1(x)
        p, k2 = 1.0 - u * k_arr / a_arr, k_arr * k_arr * s / a_arr
        k3 = k_arr / (u * u) * (p * (2.0 * p - 1.0) + 3.0 * p * (1.0 - u) + (1.0 - u) * (2.0 - u))
        resid, kc2 = k_arr * v, (1.0 + v) * (k2 - v * k_arr * k_arr)
        kc3 = (1.0 + v) * (k3 - 3.0 * v * k_arr * k2 + v * (1.0 + 2.0 * v) * k_arr**3)
        den = np.maximum(kc2 - 0.5 * resid * kc3 / kc2, 0.5 * kc2)
        step = resid / np.maximum(den, 0.5 * resid)
    x = np.where((kc2 > 0.0) & np.isfinite(step) & (x < x_hi), x - step, x)
    x = np.minimum(np.minimum(x, np.log1p(-1.0 / k_arr) + _log_radius(g)), x_hi)
    return _newton(x, k_arr, lambda x: cond_terms(x, g, a_arr), x_hi, t, a_arr, rates)


@np.errstate(divide="ignore", invalid="ignore")
def log_spa_conditional_halley(k_arr, a_arr, g: GeomParams, t: float, rates: Rates):
    """The saddlepoints x and log pmfs of the conditional lanes, scored as
    saddlepoint._log_spa scored the terms of solve_x_conditional_halley's
    last pass: log(M - p0) = K + log(em)."""
    x, (value, _, d2, em) = solve_x_conditional_halley(k_arr, a_arr, g, t, rates)
    lp = -0.5 * np.log(2.0 * math.pi * d2) + value + np.log(em) - x * k_arr
    return x, np.where(np.isfinite(d2) & (d2 > 0.0), lp, -np.inf)


def conditional_jet_in_e(x, g: GeomParams, a):
    """The jet of L = log(e^T - 1), T = a Phi = log(M/p0), at the lanes' x:
    log(M - p0) less a log(alpha). L depends on (y, z) through E = z + log
    r(y) alone, so its jet is composed (Faa di Bruno) from its derivatives
    f1..f4 in E and E's: 1/n2, r/n2, ... in y and 1 in z.
    T = a softplus(E), and softplus has the derivatives q, q p, q p (p - q),
    q p (1 - 6 q p) with q = 1 - p the logistic of E; F(T) = log(e^T - 1)
    has 1 + v, -v(1 + v), v(1 + v)(1 + 2v), -v(1 + v)(1 + 6v(1 + v)) with
    v = 1/(e^T - 1). Where M - p0 is far below M, T is tiny and F's fourth
    overflows below T = 1e-77, although each term of f1..f4 is of order 1.
    So F's n-th derivative is taken times T^n (h1..h4, in w = vT in
    (0, 1]) and T's divided by T (c1..c4, softplus^(n)/softplus)."""
    n2 = math.exp(g.log1m_beta) - g.beta * np.expm1(x)  # 1 - beta e^x
    r = g.beta * np.exp(x) / n2
    # e^E = e^z r as log_m_over_p0 forms it; where it is subnormal c1 is
    # q/softplus(E) = 1, which a q / T, two subnormals, does not keep
    odds = np.exp(g.log1m_alpha + g.log1m_beta - g.log_alpha + x) / n2
    sp = np.log1p(odds)
    p = 1.0 / (1.0 + odds)
    q = odds * p
    t = a * sp
    w = t / np.expm1(t)
    tw = t + w
    h2, h3 = -w * tw, w * tw * (t + 2.0 * w)
    h4 = -w * tw * (t * t + 6.0 * w * tw)
    c1 = q / sp
    c2 = c1 * p
    c3 = c2 * (p - q)
    c4 = c2 * (1.0 - 6.0 * q * p)
    sq = c1 * c1
    f1 = tw * c1
    f2 = h2 * sq + tw * c2
    f3 = h3 * sq * c1 + 3.0 * h2 * c1 * c2 + tw * c3
    f4 = h4 * sq * sq + 6.0 * h3 * sq * c2 + h2 * (4.0 * c1 * c3 + 3.0 * c2 * c2) + tw * c4
    e1 = 1.0 / n2
    e2 = r * e1
    e3 = e2 * (1.0 + 2.0 * r)
    e4 = e2 * (1.0 + 6.0 * e2)
    sq1 = e1 * e1
    return (
        f1 * e1,
        f2 * sq1 + f1 * e2,
        f3 * sq1 * e1 + 3.0 * f2 * e1 * e2 + f1 * e3,
        f4 * sq1 * sq1 + 6.0 * f3 * sq1 * e2 + f2 * (4.0 * e1 * e3 + 3.0 * e2 * e2) + f1 * e4,
        f1,
        f2,
        f2 * e1,
        f3 * e1,
        f3 * sq1 + f2 * e2,
        f4 * sq1 + f3 * e2,
        f4 * sq1 * e1 + 3.0 * f3 * e1 * e2 + f2 * e3,
    )


def saddle_terms(jet):
    """psi' and psi'' at each lane, for psi(z) = L(y~, z) - y~ k
    - 1/2 log L_yy(y~, z) with L_y(y~(z), z) = k and L's jet. By the
    envelope theorem the first part has the derivatives L_z and
    L_zz + L_yz y~_z, with y~_z = -L_yz / L_yy; the log term G adds
    G_z + G_y y~_z and its second derivative, in which y~_zz comes from
    differentiating L_y(y~(z), z) = k twice."""
    _, l2, l3, l4, lz, lzz, lyz, lyzz, lyyz, lyyzz, lyyyz = jet
    inv = 1.0 / l2
    yz = -lyz * inv
    r3, rz = l3 * inv, lyyz * inv
    gy = -0.5 * r3
    first = lz - 0.5 * rz + gy * yz
    yzz = -(lyzz + (2.0 * lyyz + l3 * yz) * yz) * inv
    second = (
        lzz + lyz * yz
        - 0.5 * (lyyzz * inv - rz * rz)
        - (lyyyz * inv - r3 * rz) * yz
        - 0.5 * (l4 * inv - r3 * r3) * yz * yz
        + gy * yzz
    )
    return first, second


# ---------------------------------------------------------------------------
# the damped Newton search and the covariance of its optimum on numpy
# 2-vectors, as maximize_2d, _newton_step and numeric_hessian_se ran them
# before they took their arithmetic in Python floats


def numeric_hessian_se_array(
    theta_hat: Sequence[float], hessian: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Covariance of (lambda, mu) from the observed information.

    hessian is the Hessian of the maximized log-likelihood, as a function
    of (log lambda, log mu), at theta_hat. Its negation is inverted, then
    pushed through the Jacobian diag(lambda, mu) of the exp map. Returns
    None when there is no Hessian, when the smaller rate is below
    BOUNDARY_RATIO of the larger (a boundary fit), or when the negated
    Hessian is not finite and positive definite. (perfbench's tracer
    patches this function by its name.)
    """
    if hessian is None:
        return None
    th = np.asarray(theta_hat, dtype=float)
    lam, mu = math.exp(th[0]), math.exp(th[1])
    if min(lam, mu) < optimize.BOUNDARY_RATIO * max(lam, mu):
        return None
    h00, h01, h11 = -hessian[0, 0], -hessian[0, 1], -hessian[1, 1]
    if not (math.isfinite(h00) and math.isfinite(h11) and math.isfinite(h01)):
        return None
    det = h00 * h11 - h01 * h01
    if h00 <= 0.0 or det <= 0.0:
        return None
    inv = np.array([[h11, -h01], [-h01, h00]]) / det
    jac = np.diag([lam, mu])
    cov = jac @ inv @ jac
    cov[1, 0] = cov[0, 1]
    if cov[0, 0] < 0.0 or cov[1, 1] < 0.0:
        return None
    return cov


def newton_step_vector(
    model: Optional[Model], radius: float = MAX_STEP
) -> Optional[tuple[np.ndarray, float]]:
    """Ascent step of the model with its Hessian's eigenvalues floored to
    at most -EIG_FLOOR*max(1, max |eigenvalue|), clipped to max-norm
    radius, and the gain that floored model predicts for it; None when
    the model or the step is not finite.

    The Hessian's lower triangle [[h00, .], [h10, h11]] is decomposed in
    closed form: the eigenvalue of larger magnitude e1 = m + sign(m) r,
    with m the mean of the diagonal and r = hypot((h00 - h11)/2, h10), and
    the other as det/e1 in the form of LAPACK's dlaev2, which loses
    nothing to cancellation; e1's eigenvector is taken from the row of
    H - e1 I that does not cancel either."""
    if model is None:
        return None
    grad, hess = model
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        return None
    h00, h10, h11 = float(hess[0, 0]), float(hess[1, 0]), float(hess[1, 1])
    m, d = 0.5 * (h00 + h11), 0.5 * (h00 - h11)
    sr = -math.hypot(d, h10) if m < 0.0 else math.hypot(d, h10)
    e1 = m + sr
    big, small = (h00, h11) if abs(h00) > abs(h11) else (h11, h00)
    e2 = (big / e1) * small - (h10 / e1) * h10 if e1 else 0.0
    # (e1 - h11, h10) = (d + sr, h10) and (h10, e1 - h00) = (h10, sr - d)
    # both span e1's eigenspace; take the one whose sum does not cancel
    u0, u1 = (d + sr, h10) if d * sr >= 0.0 else (h10, sr - d)
    norm = math.hypot(u0, u1)
    v0, v1 = (u0 / norm, u1 / norm) if norm else (1.0, 0.0)  # else H = e1 I
    floor = -EIG_FLOOR * max(1.0, abs(e1), abs(e2))
    e1, e2 = min(e1, floor), min(e2, floor)
    g0, g1 = float(grad[0]), float(grad[1])
    p1, p2 = v0 * g0 + v1 * g1, v0 * g1 - v1 * g0  # along (v0, v1) and (-v1, v0)
    c1, c2 = p1 / e1, p2 / e2
    step = np.array([-(v0 * c1 - v1 * c2), -(v1 * c1 + v0 * c2)])
    if not np.all(np.isfinite(step)):
        return None
    # the full step gains q = -(p1 c1 + p2 c2) >= 0 on the floored model, a
    # step scaled by c gains q*c*(1 - c/2)
    q = -(p1 * c1 + p2 * c2)
    size = float(np.max(np.abs(step)))
    if size > radius:
        c = radius / size
        return step * c, q * c * (1.0 - 0.5 * c)
    return step, 0.5 * q


def maximize_2d_vector(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    *,
    derivatives: Callable[[np.ndarray], Optional[Model]],
    maxiter: int = 2000,
) -> OptResult:
    """Maximize a 2-D objective: damped Newton steps on its derivatives,
    continued by one Nelder-Mead run (the module docstring).

    The objective may return -inf (or nan, treated the same) to reject a
    point; it must be finite at x0, else DomainError. derivatives(x),
    asked only at a point just passed to objective, returns the
    objective's gradient and Hessian there, or None where it has none.
    At most maxiter Newton steps are taken; converged reports whether
    the run stopped on XATOL or FATOL.

    When the Newton run stalls, Nelder-Mead searches from the run's best
    point for at most maxiter iterations (a derivatives that always
    returns None makes this a Nelder-Mead search from the start), and
    converged reports whether it stopped on its simplex tolerances.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"expected a 2-vector start, got shape {x.shape}")
    n_evals = 0

    def evaluate(point: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        val = float(objective(point))
        # nan and +inf both mean the probe broke down numerically; -inf is
        # a legitimate log-zero rejection. All three reject the probe.
        return val if math.isfinite(val) else -math.inf

    f = evaluate(x)
    if f == -math.inf:
        raise DomainError(f"objective is not finite at the starting point {x.tolist()}")

    model = derivatives(x)
    iterations = rejected = 0
    radius = MAX_STEP
    status = "maxiter"  # or "converged", or "stalled" to continue
    while status == "maxiter" and iterations < maxiter:
        newton = newton_step_vector(model, radius)
        if newton is None:
            status = "stalled"
            break
        step, promised = newton
        iterations += 1
        size = float(np.max(np.abs(step)))
        if size <= XATOL:
            status = "converged"
            break
        # the radius cut this step short (the module docstring): its small
        # gain or promise retries at MAX_STEP instead of stopping the run
        cut = radius < MAX_STEP and size >= radius * (1.0 - 1e-12)
        done = "maxiter" if cut else "converged"
        # a run whose halvings all fail, or shrink the step to XATOL,
        # stalls: its model gives no way up from x
        status = "stalled"
        for _ in range(optimize.MAX_HALVINGS):
            probe = x + step
            f_new = evaluate(probe)
            if f_new > f:
                gain = f_new - f
                x, f = probe, f_new
                model = derivatives(x)
                radius = min(MAX_STEP, 2.0 * size)
                status = "maxiter"
                if gain <= FATOL * max(1.0, abs(f)):
                    status, radius = done, MAX_STEP
                break
            rejected += 1
            if promised <= FATOL * max(1.0, abs(f)):
                # a failed probe of a step worth at most the value
                # tolerance is rounding in the objective: halving it only
                # probes the same point again, down to XATOL
                status, radius = done, MAX_STEP
                break
            step, size = 0.5 * step, 0.5 * size
            if size <= XATOL:
                break
    bookkeeping = dict(newton_iterations=iterations, rejected=rejected)
    if status != "stalled":
        return OptResult(
            x=(float(x[0]), float(x[1])),
            fun=f,
            n_evals=n_evals,
            converged=status == "converged",
            hessian=None if model is None else model[1],
            **bookkeeping,
        )

    from scipy.optimize import minimize  # here, so that import bdrates loads no scipy

    # rejected probes sit at +inf in the simplex; scipy's fatol check then
    # computes inf-inf, which is harmless but noisy without the errstate
    with np.errstate(invalid="ignore"):
        best = minimize(
            lambda point: -evaluate(point),
            x,
            method="Nelder-Mead",
            options={
                "xatol": XATOL,
                "fatol": FATOL,
                "maxiter": maxiter,
                "maxfev": 4 * maxiter,
            },
        )
    x = np.asarray(best.x, dtype=float)
    model = derivatives(x) if evaluate(x) > -math.inf else None
    return OptResult(
        x=(float(x[0]), float(x[1])),
        fun=-float(best.fun),
        n_evals=n_evals,
        converged=bool(best.success),
        continued=True,
        hessian=None if model is None else model[1],
        **bookkeeping,
    )
