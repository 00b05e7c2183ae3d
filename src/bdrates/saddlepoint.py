"""Saddlepoint approximation of the transition pmf and its likelihood.

The moment generating function of the count at horizon t from a
ancestors is the pgf evaluated at e^x, so the cumulant generating
function is K(x) = a*log f(e^x, t), finite for x < log R(t) with R the
pgf convergence radius. The saddlepoint x~ solving K'(x~) = k has a
closed form in the law's (alpha, beta), and the approximate pmf is

    (2*pi*K''(x~))**(-1/2) * exp(K(x~) - x~*k).

The relative error decays like 1/a, uniformly over k regions of fixed
standardized width. A conditional variant applies the same construction
to the law given non-extinction at the horizon, which removes most of
the continuity artifact at small k; the result is scaled back by
(1 - alpha**a) so it approximates the unconditional pmf.

Lane policy. A transition a -> k (a lane) is scored either exactly or by
its variant's saddlepoint, and _lanes alone decides which, for every
entry point (spa_loglik, spa_derivatives and the pointwise pmfs):

- k = 0 is exact under both variants: the extinction mass alpha**a;
- k = 1 is exact under the conditional variant, a (1-alpha)(1-beta)
  alpha**(a-1): it is the boundary of the conditional support, where the
  saddle equation has no finite root;
- every other lane takes the saddlepoint.

The exact lanes come back as coefficients on log(alpha) and
log(1-alpha) + log(1-beta) plus a constant, so the likelihood's value
and its derivatives read the same numbers. A rule for lanes that the
saddlepoint scores badly belongs in _lanes too.

Both variants solve their saddle equation with one lane-vectorized
Newton solve (_solve_x, _newton). Both start from the root of the plain
saddle equation, which in u = 1 - beta e^x is u = 2r/(1 + r + S) with
r = a/k, S = sqrt((1 - r)^2 + 4 r rho) and rho = alpha beta /
((1-alpha)(1-beta)), so x = log1p(-u) + log R. _plain_root evaluates it
from the law's logs, taking 1 - u in a form without cancellation where
u > 1/2. So it holds at criticality, keeps its digits where 1 - beta is
far smaller than the root's distance from the radius, is exact for pure
birth and cannot overflow. Pure birth with k <= a and pure death with
k >= a have no root, and such a lane raises SolverError. A conditional
lane starts at the lower of that root and log(1 - 1/k) + log R, the
root of Kc'(x) = 1/(1 - beta e^x): given survival one ancestor's count
is geometric, and both points lie at or above the lane's root (_solve_x).
The conditional terms form (M - p0)/M from log(M/p0), which keeps its
digits where M - p0 is far below M (_cond_terms). Each pass of the solve
evaluates the variant's CGF terms at every lane of the group; a lane
that has stopped keeps its x.
The derivative increases in x, so the sign of each probe's residual
moves a per-lane bracket: probes above the root lower its top, probes
below raise its bottom. A lane takes the Newton step, clipped to +-2 and
capped at x_hi (log R shrunk by RADIUS_GUARD), while that step lands
strictly inside the bracket, and otherwise bisects it, never probing
more than 2 below its top (the bottom starts open). It stops once
|K' - k| <= RESIDUAL_TOL*max(1, k), or once the Newton correction
|K' - k|/K'' (K'' finite, x below x_hi) or the bracket is as narrow as
8.9e-16*|x| (4 eps, brentq's default rtol): where K'' is huge, one ulp
of x moves K' by more than the tolerance (a conditional 1 -> 10^6 lane
at t = 1e-3). A lane stopped by its bracket keeps the end with the
smaller residual.
A lane that probes x_hi and finds K' < k there has its root inside the
guard band and raises SolverError, as does a lane still open after 200
probes. The solve returns the terms of its last pass, which are those at
the saddlepoints, and _log_spa scores them without evaluating the CGF
again. So a plain group costs one CGF pass, the residual check at the
closed-form root, unless a lane needs a Newton step; a conditional group
costs 3-6 on the single-trajectory benchmark panels.

spa_derivatives gives the score and observed information of either
variant's panel log likelihood in (log lam, log mu), by implicit
differentiation at each lane's saddlepoint (see the comment block above
it), so the fits take Newton steps on it. A fit asks for them at the
point its objective has just scored, so spa_loglik leaves its finished
sweep's saddlepoints on the panel's transitions table (one slot, the
last sweep only) and spa_derivatives reads them there when the rates
and the variant match: each lane is solved once per evaluation. Where
they do not, spa_derivatives runs spa_loglik first, which is the only
code that builds a sweep. spa_loglik never reads the slot, so every
value it returns is computed afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SolverError
from .exact import GeomParams, geom_params, truncation_limit, _chain, _log_pmf
from .types import Panel, Rates

__all__ = [
    "CgfPoint",
    "SaddlepointSolution",
    "cgf_eval",
    "solve_saddlepoint",
    "spa_pmf",
    "spa_pmf_normalized",
    "spa_pmf_conditional",
    "spa_loglik",
    "spa_derivatives",
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


def _log_radius(g: GeomParams) -> float:
    """log R = log(1/beta), formed as log1p((1 - beta)/beta) from the
    1 - beta that _cgf_terms uses, so that 1 - beta*e^x stays positive
    below it even where beta rounds close to 1; +inf when beta == 0."""
    if g.beta == 0.0:
        return math.inf
    return math.log1p(math.exp(g.log1m_beta) / g.beta)


def _x_max(g: GeomParams) -> float:
    """Largest usable x: log R(t) shrunk by a relative guard band."""
    lr = _log_radius(g)
    if lr == math.inf:
        return math.inf
    return lr * (1.0 - RADIUS_GUARD)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cgf_terms(x, g: GeomParams, a):
    """Vectorized K, K', K'' at x for a ancestors (a may be an array).

    Uses the geometric form of the pgf; 1 - beta*s is assembled as
    (1-beta) - beta*(e^x - 1) so accuracy survives close to the radius.
    Where 1 - beta is tiny (1e-146 at 50 -> 3, lambda 1471, mu 1214,
    t 1.3), K'' close to the radius exceeds the float range; the terms
    come back inf or NaN there, which the solve and the callers score.
    (The errstate is a decorator: as a with-block it costs twice as much
    per call, and the solve calls this a few times per evaluation.)
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
    _check_args(t, a)
    g = geom_params(t, rates)
    if not (x < _x_max(g)):
        raise DomainError(
            f"x={x} is outside the CGF domain (log radius {_log_radius(g)})"
        )
    value, d1, d2 = _cgf_terms(x, g, a)
    return CgfPoint(float(x), float(value), float(d1), float(d2))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _plain_root(r, g: GeomParams):
    """The root x of the plain saddle equation K'(x) = k for the ratios
    r = a/k under the law g, from its closed form in u = 1 - beta e^x
    (_solve_x); +-inf or NaN on a lane that has no root."""
    log_rad = _log_radius(g)
    log_rho = g.log_alpha + g.log_beta - g.log1m_alpha - g.log1m_beta
    # S = sqrt((1 - r)^2 + 4 r rho), finite unless rho passes e^1400
    s = np.hypot(1.0 - r, 2.0 * np.sqrt(r) * np.exp(0.5 * log_rho))
    den = 1.0 + r + s
    u = 2.0 * r / den
    # where u > 1/2, 1 - u without cancellation: for r > 1, log(1 - u) +
    # log R is log(rho / beta) + log(4r / ((S + r - 1)(1 + r + S))), and
    # beta cancels, so a beta = 0 law keeps its root
    far = np.where(
        r <= 1.0,
        np.log((1.0 - r + s) / den) + log_rad,
        g.log_alpha - g.log1m_alpha - g.log1m_beta + np.log(4.0 * r / ((s + r - 1.0) * den)),
    )
    return np.where(u <= 0.5, np.log1p(-u) + log_rad, far)


def _solve_x(k_arr, a_arr, g: GeomParams, t: float, rates: Rates, conditional: bool):
    """Vectorized saddlepoints x~ of the variant's saddle equation, for
    k >= 1 lanes (k >= 2 conditional), and the variant's terms there
    (_newton's last pass).

    Both variants are seeded at the root of the plain saddle equation,
    capped at x_hi. In u = 1 - beta e^x it reads a(1 - u) = k u (rho u +
    1 - u) with rho = alpha beta / ((1-alpha)(1-beta)) = e^-z (the z of
    the derivative block below), whose only root in (0, 1) is
    u = 2r / (1 + r + S) with r = a/k and S = sqrt((1 - r)^2 + 4 r rho);
    then x = log1p(-u) + log R (_plain_root). A lane without a root
    (pure birth with k <= a, pure death with k >= a) raises SolverError
    naming it.

    A conditional lane starts at the lower of that root and
    log(1 - 1/k) + log R. Both lie at or above its root: tilted by e^x,
    each ancestor's count given that it survives is geometric with mean
    1/(1 - beta e^x), and the sum given that some ancestor survives has a
    mean Kc' at least that and at least the plain K'. The second is the
    exact root of an a = 1 lane, and close to that of any lane where
    M - p0 is far below M, whose survivors are nearly always one; from the
    plain root there, near x = 0, Newton steps only double the distance."""
    k_arr = np.asarray(k_arr, dtype=float)
    a_arr = np.asarray(a_arr, dtype=float)
    x = _plain_root(a_arr / k_arr, g)
    ok = np.isfinite(x)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise SolverError(
            f"no saddlepoint root for k={k_arr.flat[bad]}, a={a_arr.flat[bad]}, "
            f"t={t}, rates=({rates.lam}, {rates.mu})"
        )
    x_hi = _x_max(g)
    x = np.minimum(x, x_hi)
    if not conditional:
        return _newton(x, k_arr, lambda x: _cgf_terms(x, g, a_arr), x_hi, t, a_arr, rates)
    x = np.minimum(x, np.log1p(-1.0 / k_arr) + _log_radius(g))
    return _newton(x, k_arr, lambda x: _cond_terms(x, g, a_arr), x_hi, t, a_arr, rates)


@np.errstate(divide="ignore", invalid="ignore")
def _newton(x, k_arr, terms, x_hi: float, t: float, a_arr, rates: Rates):
    """Solve d1(x) = k from the seeds x, where terms(x) gives a CGF's
    terms (value, d1, d2, ...) at every lane and d1 increases in x.
    Returns the saddlepoints and the terms of the last pass, which are
    those at the saddlepoints.

    Each pass evaluates every lane; a lane that has stopped keeps its x.
    Each lane brackets its root between the points it has probed; a probe
    where d1 is NaN counts as below the root. The module docstring gives
    the steps and the stopping rules. A lane's value does not depend on
    the other lanes. Where the terms overflow (d1 = +inf and d2 = -inf at
    x_hi when 1 - beta is below about 1e-150), the Newton candidate reads
    NaN and the lane bisects its bracket instead.
    """
    x = np.array(x, dtype=float)
    tol = RESIDUAL_TOL * np.maximum(1.0, k_arr)
    done = np.zeros(x.shape, dtype=bool)
    lo = hi = err_lo = err_hi = None  # each lane's bracket, |d1 - k| at its ends
    for _ in range(200):
        out = terms(x)
        resid = out[1] - k_arr
        err = np.abs(resid)
        done |= err <= tol
        if done.all():
            return x, out
        ulps = 8.9e-16 * np.abs(x)
        # a Newton correction below 4 ulps of x cannot move it; at x_hi the
        # root may lie inside the guard band, which raises below
        done |= np.isfinite(out[2]) & (err <= out[2] * ulps) & (x < x_hi)
        if done.all():
            return x, out
        open_ = ~done
        if lo is None:
            lo = np.full(x.shape, -np.inf)
            hi, err_lo, err_hi = -lo, -lo, -lo
        # the brackets of stopped lanes move too, but are never read again
        above = resid > 0.0
        hi = np.where(above, x, hi)
        err_hi = np.where(above, err, err_hi)
        lo = np.where(above, lo, x)
        err_lo = np.where(above, err_lo, err)
        # Newton step clipped to +-2: |resid| / max(d2, |resid|/2) <= 2
        cand = np.minimum(x - resid / np.fmax(out[2], 0.5 * err), x_hi)
        inside = (lo < cand) & (cand < hi)
        if not (inside | done).all():
            # a probe at x_hi below the root makes x_hi the bracket's bottom
            blocked = open_ & (lo == x_hi)
            if blocked.any():
                i = int(np.argmax(blocked))
                raise SolverError(
                    f"saddlepoint for k={k_arr[i]}, a={a_arr[i]}, t={t}, "
                    f"rates=({rates.lam}, {rates.mu}) lies inside the radius guard "
                    f"band: K'(x_hi) = {k_arr[i] + resid[i]}"
                )
            mid = np.minimum(np.maximum(0.5 * (lo + hi), hi - 2.0), x_hi)
            cand = np.where(inside, cand, mid)
        narrow = open_ & (hi - lo <= ulps)
        x = np.where(open_, cand, x)
        if narrow.any():
            x = np.where(narrow, np.where(err_lo < err_hi, lo, hi), x)
            done |= narrow
    if done.all():
        return x, terms(x)
    i = int(np.argmin(done))
    raise SolverError(
        f"saddlepoint solve did not converge for k={k_arr[i]}, a={a_arr[i]}, "
        f"t={t}, rates=({rates.lam}, {rates.mu})"
    )


def _check_args(t: float, a: int, k: int = 0) -> None:
    """Refuse a pointwise target outside k >= 0, a >= 1, 0 < t < inf."""
    if not k >= 0:
        raise DomainError(f"target count k must be nonnegative, got {k}")
    if not a >= 1:
        raise DomainError(f"ancestor count a must be positive, got {a}")
    if not 0.0 < t < math.inf:
        raise DomainError(f"horizon t must be positive and finite, got {t}")


def solve_saddlepoint(k: int, t: float, a: int, rates: Rates) -> SaddlepointSolution:
    """Saddlepoint for target count k >= 1 at horizon t from a ancestors."""
    if k < 1:
        raise DomainError(f"saddlepoint target count must be >= 1, got {k}")
    _check_args(t, a, k)
    g = geom_params(t, rates)
    xs, (value, d1, d2) = _solve_x(
        np.array([float(k)]), np.array([float(a)]), g, t, rates, False
    )
    x = float(xs[0])
    pt = CgfPoint(x, float(value[0]), float(d1[0]), float(d2[0]))
    return SaddlepointSolution(x, math.exp(x), pt, float(d1[0]) - k)


def _lanes(k, a, conditional: bool):
    """Split lanes a -> k (count arrays) the way the variant scores them,
    by the lane policy of the module docstring: ((n_alpha, n_l1ab, c), k,
    a). The exact lanes' log pmfs sum to n_alpha*log(alpha) +
    n_l1ab*(log(1-alpha) + log(1-beta)) + c, the shape of exact.TermTable;
    k and a (floats) are those of the saddlepoint lanes."""
    k = np.asarray(k, dtype=float)
    a = np.asarray(a, dtype=float)
    exact = k <= (1.0 if conditional else 0.0)
    if not exact.any():
        return (0.0, 0.0, 0.0), k, a
    # a k = 1 lane: a - 1 lines die out, one survives with one descendant
    ones = a[exact & (k == 1.0)]
    coefs = (
        float(np.sum(a[exact])) - ones.size,
        float(ones.size),
        float(np.sum(np.log(ones))),
    )
    live = ~exact
    return coefs, k[live], a[live]


def _exact_log(coefs, g: GeomParams) -> float:
    """The exact lanes' summed log pmf under the law g, from _lanes'
    coefficients. A zero coefficient drops its term, so a log(alpha) of
    -inf (mu = 0) counts only where some lane needs it."""
    n_alpha, n_l1ab, value = coefs
    if n_alpha:
        value += n_alpha * g.log_alpha
    if n_l1ab:
        value += n_l1ab * (g.log1m_alpha + g.log1m_beta)
    return value


@np.errstate(divide="ignore", invalid="ignore")
def _log_spa(k_arr, a_arr, g: GeomParams, t: float, rates: Rates, conditional: bool):
    """The saddlepoints x of the variant's saddlepoint lanes (k_arr and
    a_arr float arrays) and their vectorized log saddlepoint pmfs, scored
    from the variant's terms of the solve's last pass.

    The conditional pmf (1-p0) * exp(Kc - x k)/sqrt(2 pi Kc'') has
    Kc = log(M - p0) - log(1-p0): the (1-p0) factors cancel, leaving
    log(M - p0) = K + log(em) where the plain pmf has K. p0 = alpha**a is
    carried per lane, and a lane's value does not depend on the other
    lanes. d2 underflows to 0 when a probe collapses the law toward a
    point mass; the quadratic shape carries no information there, so the
    lane scores -inf rather than the +inf a bare log(0) would produce."""
    x, terms = _solve_x(k_arr, a_arr, g, t, rates, conditional)
    value, _, d2 = terms[:3]
    if conditional:
        value = value + np.log(terms[3])
    lp = -0.5 * np.log(2.0 * math.pi * d2) + value - x * k_arr
    return x, np.where(np.isfinite(d2) & (d2 > 0.0), lp, -np.inf)


def _pmf(k: int, t: float, a: int, rates: Rates, conditional: bool) -> float:
    _check_args(t, a, k)
    g = geom_params(t, rates)
    coefs, ks, anc = _lanes([k], [a], conditional)
    if ks.size:
        return float(np.exp(_log_spa(ks, anc, g, t, rates, conditional)[1][0]))
    return math.exp(_exact_log(coefs, g))


def spa_pmf(k: int, t: float, a: int, rates: Rates) -> float:
    """Plain saddlepoint approximation of P(Z(t)=k | Z(0)=a).

    k = 0 returns the exact extinction mass alpha**a.
    """
    return _pmf(k, t, a, rates, False)


@lru_cache(maxsize=128)
def _spa_normalizer(t: float, a: int, rates: Rates) -> float:
    """Sum over k >= 1 of the plain saddlepoint pmf, truncated where the
    exact law's tail bound drops below the normalization tolerance."""
    g = geom_params(t, rates)
    kmax = truncation_limit(t, a, rates)
    ks = np.arange(1.0, kmax + 1.0)
    _, lp = _log_spa(ks, np.full_like(ks, float(a)), g, t, rates, False)
    m = float(np.max(lp))
    return math.exp(m) * float(np.sum(np.exp(lp - m)))


def spa_pmf_normalized(k: int, t: float, a: int, rates: Rates) -> float:
    """Saddlepoint pmf rescaled so that total mass is exact: k = 0 keeps
    alpha**a, and the k >= 1 values are renormalized to 1 - alpha**a."""
    raw = spa_pmf(k, t, a, rates)
    if k == 0:
        return raw
    p0 = spa_pmf(0, t, a, rates)
    return (1.0 - p0) * raw / _spa_normalizer(t, a, rates)


def _log_m_over_p0(x, g: GeomParams, a):
    """log(M(x)/p0) = a log(f/alpha) for a ancestors, with p0 = alpha**a,
    as a log1p of f/alpha - 1 = (1-alpha)(1-beta) e^x / (alpha (1 - beta e^x)),
    so that it keeps its digits where M - p0 is far below M."""
    n2 = math.exp(g.log1m_beta) - g.beta * np.expm1(x)
    return a * np.log1p(np.exp(g.log1m_alpha + g.log1m_beta - g.log_alpha + x) / n2)


@np.errstate(over="ignore", invalid="ignore")
def _cond_terms(x, g: GeomParams, a):
    """K = log M(x), the first and second derivative of the non-extinction
    CGF log{(M(x) - p0)/(1 - p0)}, and em = (M - p0)/M, so that
    log(M(x) - p0) = K + log(em).

    em is formed from log(M/p0) (_log_m_over_p0), not from K - log(p0):
    where 1 - beta is tiny, M - p0 can be below one ulp of M at the
    saddlepoint (1 - beta = e^-489 on a 2 -> 9 lane at lam 387.5,
    mu 142.9), and the difference keeps no digits of it. Where K' and K''
    are large enough that c2 overflows, it reads inf or NaN: the solve
    then bisects, and the pmf scores the lane -inf.
    """
    K, K1, K2 = _cgf_terms(x, g, a)
    em = -np.expm1(-_log_m_over_p0(x, g, a))  # (M - p0)/M in (0, 1]
    # far below the saddlepoint log(M/p0) can underflow to 0: the lane is
    # outside the domain there and reads NaN
    em = np.where(em > 0.0, em, np.nan)
    rho = 1.0 / em  # M/(M - p0) >= 1
    c1 = K1 * rho
    c2 = (K2 + K1 * K1) * rho - c1 * c1
    return K, c1, c2, em


def spa_pmf_conditional(k: int, t: float, a: int, rates: Rates) -> float:
    """Saddlepoint approximation built on the law conditioned on
    non-extinction at the horizon, scaled back by the exact survival
    probability so it approximates the plain pmf.

    k = 0 returns the exact alpha**a; k = 1 is the boundary of the
    conditional support (no finite saddlepoint exists there) and returns
    the exact pmf value.
    """
    return _pmf(k, t, a, rates, True)


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
    _check_args(t, a)
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


def _is_conditional(variant: str) -> bool:
    if variant not in ("plain", "conditional"):
        raise DomainError(f"unknown saddlepoint variant {variant!r}")
    return variant == "conditional"


def spa_loglik(panel: Panel, rates: Rates, variant: str = "plain") -> float:
    """Panel log likelihood with saddlepoint transition probabilities.

    Transitions out of 0 contribute nothing; _lanes splits the rest into
    exact and saddlepoint lanes. The panel's transitions table (built
    once per panel, gaps equal to 1e-9 relative merged) supplies one lane
    set per gap, and each set is evaluated in one vectorized sweep.

    Every call solves its saddlepoints, and scores them from the solve's
    last pass. A sweep that finishes leaves each group's law, lanes split
    by _lanes and saddlepoints, (g, coefs, k, a, x) with x None where the
    group has no saddlepoint lane, in the table's _saddlepoints slot for
    spa_derivatives at the same rates and variant; the slot is emptied
    first, so a call that raises leaves nothing there.
    """
    conditional = _is_conditional(variant)
    table = panel.transitions
    table._saddlepoints.clear()
    total = 0.0
    sweep = []
    for grp in table.groups:
        g = geom_params(grp.tau, rates)
        coefs, k, a = _lanes(grp.dst, grp.src, conditional)
        total += _exact_log(coefs, g)
        x = None
        if k.size:
            x, lp = _log_spa(k, a, g, grp.tau, rates, conditional)
            total += float(np.sum(lp))
        sweep.append((g, coefs, k, a, x))
    table._saddlepoints[rates, conditional] = sweep
    return total


# ---------------------------------------------------------------------------
# score and observed information
#
# With y = x + log(beta) and z = log(1-alpha) + log(1-beta) - log(alpha)
# - log(beta), the single-ancestor pgf at e^x is
#
#     f = alpha * (1 + e^z r(y)),   r(y) = e^y / (1 - e^y) = beta e^x / (1 - beta e^x),
#
# so K = a log(alpha) + a Phi(y, z) with Phi = log(1 + e^z r(y)), and a
# lane's log pmf, K - x k - 1/2 log K'' up to a constant, is
# a log(alpha) + k log(beta) + psi(z), where psi(z) is the saddlepoint
# term of a Phi in y. Its gradient in u = (log alpha, log beta,
# log(1-alpha) + log(1-beta)) is (a - psi', k - psi', psi') and its
# Hessian psi'' c c^T along c = (1, 1, -1), the shape of the exact
# likelihood's (exact._chain). The conditional variant's log(M - p0) is
# a log(alpha) + log(e^{a Phi} - 1), again a function of (y, z) alone.
#
# Taking y rather than x keeps the two rate directions apart: at a
# saddlepoint near the radius, d x~ / d log(beta) is close to -1, and the
# derivatives in x and log(beta) separately are huge and cancel.
#
# A jet holds a function's derivatives at the lanes, in the order
# (y, yy, yyy, yyyy, z, zz, yz, yzz, yyz, yyzz, yyyz).


def _plain_jet(x, g: GeomParams, a):
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


def _conditional_jet(x, g: GeomParams, a):
    """The jet of log(e^{a Phi} - 1) at the lanes' x: log(M - p0) less
    a log(alpha). Its derivatives in t = a Phi are 1 + v, -v(1 + v),
    v(1 + v)(1 + 2v), -v(1 + v)(1 + 6v(1 + v)) with v = 1/(e^t - 1) =
    p0/(M - p0). Where M - p0 is far below M, t is tiny and the fourth,
    about 6/t^4, overflows below t = 1e-77, although each term of the
    composition is of order 1. So the n-th derivative is taken times t^n
    and a Phi's jet divided by t, which leaves every term unchanged: with
    w = vt = t/(e^t - 1) in (0, 1] they read t + w, -w(t + w),
    w(t + w)(t + 2w) and -w(t + w)(t^2 + 6w(t + w))."""
    t = _log_m_over_p0(x, g, a)
    w = t / np.expm1(t)
    tw = t + w
    jet = [j / t for j in _plain_jet(x, g, a)]
    return _compose(tw, -w * tw, w * tw * (t + 2.0 * w), -w * tw * (t * t + 6.0 * w * tw), jet)


def _saddle_terms(jet):
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _group_weights(g: GeomParams, coefs, k, a, x, conditional: bool):
    """The group's (w1, w2, w3, var) for exact._chain, from its law, lanes
    and saddlepoints (an entry of spa_loglik's sweep): its log likelihood's
    gradient in u and its Hessian's weight along c. The exact lanes are
    linear in u, with _lanes' coefficients."""
    n_alpha, n_l1ab, _ = coefs
    if x is None:
        return n_alpha, 0.0, n_l1ab, 0.0
    jet = _conditional_jet(x, g, a) if conditional else _plain_jet(x, g, a)
    first, second = _saddle_terms(jet)
    d1 = float(np.sum(first))
    w1 = n_alpha + (float(np.sum(a)) - d1)
    return w1, float(np.sum(k)) - d1, n_l1ab + d1, float(np.sum(second))


def spa_derivatives(panel: Panel, rates: Rates, variant: str = "plain"):
    """Score and observed information of spa_loglik(panel, rates, variant)
    in (log lam, log mu), or None on a degenerate law (alpha or beta 0)
    or where they are not finite.

    Each lane is differentiated implicitly at its saddlepoint, in the
    one rate coordinate z its log pmf depends on beyond two linear terms
    (the block comment above); exact._chain, which the exact likelihood's
    derivatives share, takes the result to (log lam, log mu). The laws,
    lanes and saddlepoints are those of the last spa_loglik sweep on the
    panel when it ran at equal rates and the same variant. Otherwise, once
    the laws are checked for degeneracy (which returns None with nothing
    solved and the slot as it was), spa_loglik(panel, rates, variant) runs
    first: such a cold call leaves its sweep in the slot, and raises the
    SolverError or DomainError that spa_loglik raises. The solve is
    deterministic lane by lane, so both ways give the same bits.
    """
    conditional = _is_conditional(variant)
    table = panel.transitions
    sweep = table._saddlepoints.get((rates, conditional))
    if sweep is None:
        laws = [geom_params(grp.tau, rates) for grp in table.groups]
    else:
        laws = [lanes[0] for lanes in sweep]
    if any(g.log_alpha == -math.inf or g.log_beta == -math.inf for g in laws):
        return None
    if sweep is None:
        spa_loglik(panel, rates, variant)
        sweep = table._saddlepoints[rates, conditional]
    weights = [_group_weights(*lanes, conditional) for lanes in sweep]
    score, info = _chain(table.groups, laws, rates, weights)
    if not (np.all(np.isfinite(score)) and np.all(np.isfinite(info))):
        return None
    return score, info
