"""Saddlepoint approximation of the transition pmf and its likelihood.

The moment generating function of the count at horizon t from a
ancestors is the pgf evaluated at e^x, so the cumulant generating
function is K(x) = a*log f(e^x, t), finite for x < log R(t) with R the
pgf convergence radius. The saddlepoint x~ solving K'(x~) = k is the log
of a root of an explicit quadratic, and the approximate pmf is

    (2*pi*K''(x~))**(-1/2) * exp(K(x~) - x~*k).

The relative error decays like 1/a, uniformly over k regions of fixed
standardized width. k = 0 never takes a saddlepoint path: the exact
extinction mass alpha**a is used. A conditional variant applies the same
construction to the law given non-extinction at the horizon, which
removes most of the continuity artifact at small k; the result is scaled
back by (1 - alpha**a) so it approximates the unconditional pmf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, SolverError
from .exact import GeomParams, geom_params, is_critical, truncation_limit, _log_pmf
from .types import Panel, Rates

__all__ = [
    "CgfPoint",
    "SaddlepointSolution",
    "radius",
    "cgf_eval",
    "solve_saddlepoint",
    "spa_pmf",
    "spa_pmf_normalized",
    "spa_pmf_conditional",
    "spa_loglik",
    "high_mass_region",
]

# Relative guard band below log R inside which evaluation is refused, and
# the saddle equation residual tolerance |K'(x~) - k| <= RESIDUAL_TOL*max(1,k).
RADIUS_GUARD = 1e-12
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class CgfPoint:
    """Cumulant generating function value and first two derivatives at x."""

    x: float
    value: float
    d1: float
    d2: float


@dataclass(frozen=True)
class SaddlepointSolution:
    """Solution of K'(x) = k: the point x_tilde, s_tilde = exp(x_tilde),
    the CGF evaluated there, and the achieved residual K'(x_tilde) - k."""

    x_tilde: float
    s_tilde: float
    cgf: CgfPoint
    residual: float


def radius(t: float, rates: Rates) -> float:
    """Convergence radius R(t) = 1/beta(t) of the pgf (inf for a
    pure-death process)."""
    g = geom_params(t, rates)
    return 1.0 / g.beta if g.beta > 0.0 else math.inf


def _log_radius(g: GeomParams) -> float:
    return -g.log_beta  # log(1/beta); +inf when beta == 0


def _x_max(g: GeomParams) -> float:
    """Largest usable x: log R(t) shrunk by a relative guard band."""
    lr = _log_radius(g)
    if lr == math.inf:
        return math.inf
    return lr * (1.0 - RADIUS_GUARD)


def _cgf_terms(x, g: GeomParams, a):
    """Vectorized K, K', K'' at x for a ancestors (a may be an array).

    Uses the geometric form of the pgf; 1 - beta*s is assembled as
    (1-beta) - beta*(e^x - 1) so accuracy survives close to the radius.
    """
    x = np.asarray(x, dtype=float)
    om_a = math.exp(g.log1m_alpha)
    om_b = math.exp(g.log1m_beta)
    s = np.exp(x)
    om_bs = om_b - g.beta * np.expm1(x)
    f = g.alpha + om_a * om_b * s / om_bs
    k1 = om_a * om_b * s / (om_bs * om_bs * f)
    k2 = k1 * (1.0 + 2.0 * g.beta * s / om_bs - k1)
    return a * np.log(f), a * k1, a * k2


def cgf_eval(x: float, t: float, a: int, rates: Rates) -> CgfPoint:
    """K, K', K'' at x for horizon t and a ancestors.

    x must lie below log R(t) minus the guard band.
    """
    if a < 1:
        raise DomainError(f"ancestor count must be positive, got {a}")
    g = geom_params(t, rates)
    if not (x < _x_max(g)):
        raise DomainError(
            f"x={x} is outside the CGF domain (log radius {_log_radius(g)})"
        )
    value, d1, d2 = _cgf_terms(x, g, a)
    return CgfPoint(float(x), float(value), float(d1), float(d2))


def _saddle_quadratic(ratio, t: float, rates: Rates):
    """Coefficients (A, B, C) of the quadratic whose root in (0, R) is the
    saddlepoint in s, for ratio = a/k (B depends on the ratio; A, C do not)."""
    if is_critical(rates):
        u = 0.5 * rates.xi * t
        A = u - u * u
        B = 2.0 * u * u - 1.0 + ratio
        C = -u - u * u
        return A, B, C
    lam, mu = rates.lam, rates.mu
    m = math.exp(rates.omega * t)
    if not math.isfinite(m * m):
        raise DomainError(f"horizon {t} too long for saddlepoint coefficients")
    A = lam * (m - 1.0) * (lam - mu * m)
    B = 2.0 * lam * mu * (1.0 + m * m - m) - m * (lam * lam + mu * mu) + ratio * (
        m * (lam - mu) ** 2
    )
    C = mu * (m - 1.0) * (mu - lam * m)
    return A, B, C


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


def _solve_x(k_arr, a_arr, g: GeomParams, t: float, rates: Rates):
    """Vectorized saddlepoints x~ with K'(x~) = k, for k >= 1 lanes."""
    k_arr = np.asarray(k_arr, dtype=float)
    a_arr = np.asarray(a_arr, dtype=float)
    A, B, C = _saddle_quadratic(a_arr / k_arr, t, rates)
    r1, r2 = _stable_roots(np.broadcast_to(A, B.shape), B, np.broadcast_to(C, B.shape))
    x_hi = _x_max(g)
    s_hi = 1.0 / g.beta if g.beta > 0.0 else math.inf

    def in_range(r):
        return np.isfinite(r) & (r > 0.0) & (r < s_hi)

    ok1, ok2 = in_range(r1), in_range(r2)
    if not np.all(ok1 | ok2):
        bad = int(np.argmin(ok1 | ok2))
        raise SolverError(
            f"no saddlepoint root in (0, {s_hi}) for k={k_arr.flat[bad]}, "
            f"a={a_arr.flat[bad]}, t={t}, rates=({rates.lam}, {rates.mu})"
        )
    s = np.where(ok1, r1, r2)
    # where both roots look admissible, keep the one closer to solving K'=k
    both = ok1 & ok2 & (r1 != r2)
    if np.any(both):
        _, d1a, _ = _cgf_terms(np.log(r1[both]), g, a_arr[both])
        _, d1b, _ = _cgf_terms(np.log(r2[both]), g, a_arr[both])
        s[both] = np.where(
            np.abs(d1a - k_arr[both]) <= np.abs(d1b - k_arr[both]),
            r1[both],
            r2[both],
        )
    x = np.minimum(np.log(s), x_hi)

    # Newton polish the closed-form root down to the residual tolerance;
    # a lane stops moving once it is within tolerance, so its value does
    # not depend on which other lanes share the batch
    tol = RESIDUAL_TOL * np.maximum(1.0, k_arr)
    for _ in range(8):
        _, d1, d2 = _cgf_terms(x, g, a_arr)
        resid = d1 - k_arr
        open_ = ~(np.abs(resid) <= tol)
        if not open_.any():
            return x
        with np.errstate(invalid="ignore", divide="ignore"):
            step = resid / d2
        step = np.where(open_ & np.isfinite(step), step, 0.0)
        x = np.where(open_, np.minimum(x - step, x_hi), x)
    _, d1, _ = _cgf_terms(x, g, a_arr)
    resid = np.abs(d1 - k_arr)
    bad = resid > tol
    for idx in np.flatnonzero(bad):
        x[idx] = _solve_x_bisect(float(k_arr.flat[idx]), float(a_arr.flat[idx]), g, x_hi)
    return x


def _solve_x_bisect(k: float, a: float, g: GeomParams, x_hi: float):
    """Scalar fallback: bracket K'(x) - k and solve by brentq."""

    def fun(x):
        _, d1, _ = _cgf_terms(x, g, a)
        return float(d1) - k

    hi = min(x_hi, 700.0) - 1e-13 * max(1.0, abs(x_hi))
    lo = min(0.0, hi - 1.0)
    for _ in range(200):
        if fun(lo) < 0.0:
            break
        lo -= 5.0
    else:
        raise SolverError(f"cannot bracket saddlepoint for k={k}, a={a}")
    return brentq(fun, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=300)


def solve_saddlepoint(k: int, t: float, a: int, rates: Rates) -> SaddlepointSolution:
    """Saddlepoint for target count k >= 1 at horizon t from a ancestors."""
    if k < 1:
        raise DomainError(f"saddlepoint target count must be >= 1, got {k}")
    if a < 1:
        raise DomainError(f"ancestor count must be positive, got {a}")
    g = geom_params(t, rates)
    x = float(_solve_x(np.array([float(k)]), np.array([float(a)]), g, t, rates)[0])
    value, d1, d2 = _cgf_terms(x, g, float(a))
    pt = CgfPoint(x, float(value), float(d1), float(d2))
    return SaddlepointSolution(x, math.exp(x), pt, float(d1) - k)


def _log_spa(k_arr, a_arr, g: GeomParams, t: float, rates: Rates):
    """Vectorized log of the plain saddlepoint pmf for k >= 1 lanes."""
    x = _solve_x(k_arr, a_arr, g, t, rates)
    value, _, d2 = _cgf_terms(x, g, np.asarray(a_arr, dtype=float))
    # d2 underflows to 0 when a probe collapses the law toward a point
    # mass; the quadratic shape carries no information there, so the lane
    # scores -inf rather than the +inf a bare log(0) would produce
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = -0.5 * np.log(2.0 * math.pi * d2) + value - x * np.asarray(k_arr, dtype=float)
    return np.where(np.isfinite(d2) & (d2 > 0.0), lp, -np.inf)


def spa_pmf(k: int, t: float, a: int, rates: Rates) -> float:
    """Plain saddlepoint approximation of P(Z(t)=k | Z(0)=a).

    k = 0 returns the exact extinction mass alpha**a.
    """
    if k < 0:
        raise DomainError(f"count must be nonnegative, got {k}")
    if a < 1:
        raise DomainError(f"ancestor count must be positive, got {a}")
    g = geom_params(t, rates)
    if k == 0:
        return math.exp(a * g.log_alpha)
    lp = _log_spa(np.array([float(k)]), np.array([float(a)]), g, t, rates)
    return float(np.exp(lp[0]))


@lru_cache(maxsize=128)
def _spa_normalizer(t: float, a: int, rates: Rates) -> float:
    """Sum over k >= 1 of the plain saddlepoint pmf, truncated where the
    exact law's tail bound drops below the normalization tolerance."""
    g = geom_params(t, rates)
    kmax = truncation_limit(t, a, rates)
    ks = np.arange(1.0, kmax + 1.0)
    lp = _log_spa(ks, np.full_like(ks, float(a)), g, t, rates)
    m = float(np.max(lp))
    return math.exp(m) * float(np.sum(np.exp(lp - m)))


def spa_pmf_normalized(k: int, t: float, a: int, rates: Rates) -> float:
    """Saddlepoint pmf rescaled so that total mass is exact: k = 0 keeps
    alpha**a, and the k >= 1 values are renormalized to 1 - alpha**a."""
    if k < 0:
        raise DomainError(f"count must be nonnegative, got {k}")
    g = geom_params(t, rates)
    p0 = math.exp(a * g.log_alpha)
    if k == 0:
        return p0
    raw = spa_pmf(k, t, a, rates)
    return (1.0 - p0) * raw / _spa_normalizer(t, a, rates)


def _cond_terms(x, g: GeomParams, a, log_p0):
    """First and second derivative of the non-extinction CGF
    log{(M(x) - p0)/(1 - p0)}, plus log(M(x) - p0) itself.

    log_p0 = a*log(alpha) is the log extinction mass of each lane's
    ancestors; a scalar or an array matching x.
    """
    K, K1, K2 = _cgf_terms(x, g, a)
    d = log_p0 - K  # < 0 since M(x) > p0 for s > 0
    em = -np.expm1(d)  # (M - p0)/M in (0, 1]
    rho = 1.0 / em  # M/(M - p0) >= 1
    c1 = K1 * rho
    c2 = (K2 + K1 * K1) * rho - c1 * c1
    return c1, c2, K + np.log(em)


def _solve_conditional_x(k_arr, a_arr, g: GeomParams, t: float, rates: Rates, log_p0):
    """Vectorized saddlepoints of the conditional CGF for k >= 2 lanes,
    Newton-seeded at the plain saddlepoint with a bisection fallback.
    log_p0 holds each lane's a*log(alpha)."""
    k_arr = np.asarray(k_arr, dtype=float)
    a_arr = np.asarray(a_arr, dtype=float)
    log_p0 = np.asarray(log_p0, dtype=float)
    x = _solve_x(k_arr, a_arr, g, t, rates).copy()
    x_hi = _x_max(g)
    tol = RESIDUAL_TOL * np.maximum(1.0, k_arr)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(60):
        c1, c2, _ = _cond_terms(x[active], g, a_arr[active], log_p0[active])
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
            float(k_arr.flat[idx]), float(a_arr.flat[idx]), g, rates, t,
            float(log_p0.flat[idx]),
        )
    return x


def _bisect_conditional(k, a, g: GeomParams, rates: Rates, t, log_p0):
    def fun(x):
        c1, _, _ = _cond_terms(x, g, a, log_p0)
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


def _log_spa_conditional(k_arr, a_arr, g: GeomParams, t: float, rates: Rates):
    """Vectorized log of the conditional saddlepoint pmf, already scaled
    by (1 - p0) to approximate the unconditional pmf. k >= 2 lanes only;
    k = 1 sits on the boundary of the conditional support, where the
    saddle equation has no finite solution, and is handled exactly by the
    caller (mirroring the exact treatment of k = 0).

    Lanes may mix ancestor counts: p0 = alpha**a is carried per lane, and
    every lane is solved in one Newton sweep. A lane's value does not
    depend on the other lanes of the call."""
    k_arr = np.asarray(k_arr, dtype=float)
    a_arr = np.asarray(a_arr, dtype=float)
    lp0 = a_arr * g.log_alpha
    x = _solve_conditional_x(k_arr, a_arr, g, t, rates, lp0)
    _, c2, log_mp0 = _cond_terms(x, g, a_arr, lp0)
    # (1-p0) * exp(Kc - x k)/sqrt(2 pi Kc'') with Kc = log_mp0 - log(1-p0):
    # the (1-p0) factors cancel, leaving log(M - p0) directly.
    # degenerate curvature scores -inf, same as the plain lane
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = -0.5 * np.log(2.0 * math.pi * c2) + log_mp0 - x * k_arr
    return np.where(np.isfinite(c2) & (c2 > 0.0), lp, -np.inf)


def _log_pmf_one(a_arr, g: GeomParams):
    """Exact log P(Z = 1 | a ancestors) for an array of a >= 1:
    log a + log(1-alpha) + log(1-beta) + (a-1) log alpha (one ancestor line
    survives with a single descendant, the other a-1 die out)."""
    out = np.log(a_arr) + (g.log1m_alpha + g.log1m_beta)
    rest = a_arr - 1.0
    many = rest > 0.0
    # a == 1 has no dying lines; skipping it keeps 0 * log(0) out
    out[many] += rest[many] * g.log_alpha
    return out


def spa_pmf_conditional(k: int, t: float, a: int, rates: Rates) -> float:
    """Saddlepoint approximation built on the law conditioned on
    non-extinction at the horizon, scaled back by the exact survival
    probability so it approximates the plain pmf.

    k = 0 returns the exact alpha**a; k = 1 is the boundary of the
    conditional support (no finite saddlepoint exists there) and uses the
    exact single-term pmf value.
    """
    if k < 0:
        raise DomainError(f"count must be nonnegative, got {k}")
    if a < 1:
        raise DomainError(f"ancestor count must be positive, got {a}")
    g = geom_params(t, rates)
    if k == 0:
        return math.exp(a * g.log_alpha)
    if k == 1:
        return math.exp(_log_pmf(1, a, g))
    lp = _log_spa_conditional(
        np.array([float(k)]), np.array([float(a)]), g, t, rates
    )
    return float(np.exp(lp[0]))


def high_mass_region(
    t: float, a: int, rates: Rates, lo: float = 0.25, hi: float = 0.75
) -> tuple[int, int]:
    """Inclusive k range [k_lo, k_hi] holding the central (hi - lo) share
    of the exact positive-part transition law.

    The accuracy statements for the plain approximation are made over
    this window: the relative error is O(1/a) uniformly on regions of
    fixed standardized width, but blows up at the support boundary k ~ 1,
    where the continuity-corrected Gaussian shape cannot follow the
    geometric-like left tail. The central interquartile window (defaults)
    is where the bulk of the mass sits and is the region the error law is
    calibrated on; widening it toward k = 1 admits the boundary artifact.
    """
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError(f"quantile window [{lo}, {hi}] is not ordered in [0, 1]")
    g = geom_params(t, rates)
    kmax = truncation_limit(t, a, rates)
    logp = np.array([_log_pmf(k, a, g) for k in range(1, kmax + 1)])
    w = np.exp(logp - logp.max())
    c = np.cumsum(w) / w.sum()
    k_lo = 1 + int(np.searchsorted(c, lo))
    k_hi = 1 + int(np.searchsorted(c, hi))
    return k_lo, k_hi


def spa_loglik(panel: Panel, rates: Rates, variant: str = "plain") -> float:
    """Panel log likelihood with saddlepoint transition probabilities.

    Transitions to k = 0 use the exact extinction mass, transitions out
    of 0 contribute nothing, and the conditional variant additionally
    scores k = 1 exactly (conditional support boundary). The panel's
    transitions table (built once per panel, gaps equal to 1e-9 relative
    merged) supplies one lane set per gap, and each set is evaluated in
    one vectorized sweep.
    """
    if variant not in ("plain", "conditional"):
        raise DomainError(f"unknown saddlepoint variant {variant!r}")
    total = 0.0
    for grp in panel.transitions.groups:
        tau = grp.tau
        g = geom_params(tau, rates)
        k = grp.dst.astype(float)
        a = grp.src.astype(float)
        zero = k == 0.0
        if zero.any():
            total += float(np.sum(a[zero])) * g.log_alpha
        if variant == "conditional":
            one = k == 1.0
            if one.any():
                total += float(np.sum(_log_pmf_one(a[one], g)))
            live = ~zero & ~one
            if live.any():
                total += float(np.sum(_log_spa_conditional(k[live], a[live], g, tau, rates)))
        else:
            live = ~zero
            if live.any():
                total += float(np.sum(_log_spa(k[live], a[live], g, tau, rates)))
    return total
