"""Saddlepoint approximation of the transition pmf and its likelihood.

The moment generating function of the count at horizon t from a
ancestors is the probability generating function f evaluated at e^x,
so the cumulant generating function is K(x) = a*log f(e^x, t), finite
for x < log R(t) with R the radius of convergence of f. The saddlepoint x~ solving K'(x~) = k has a
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

The split depends on the counts alone, so a panel's transitions table
makes it once per variant (Transitions.spa_lanes, from lane_table): per
gap group, the exact lanes' coefficients and the saddlepoint lanes as a
_Lanes, which keeps beside k and a the rate-free arrays the kernels read
at every evaluation (a/k, its square root, 1 - a/k, k^2, k^3, log k,
log a) and the sums of k and a. Each is the expression the kernels
formed on every call before, so reading it gives the same bits; the
pointwise pmfs build their _Lanes per call.

Both variants start from the root of the plain saddle equation, which in
u = 1 - beta e^x is u = 2r/(1 + r + S) with r = a/k, S = sqrt((1 - r)^2
+ 4 r rho) and rho = alpha beta / ((1-alpha)(1-beta)) (_plain_u, with
1 - u in a form without cancellation where u > 1/2). So it holds at
criticality, keeps its digits near the radius, is exact for pure birth
and cannot overflow. Pure birth with k <= a and pure death with k >= a
have no root, and such a lane raises SolverError.

The plain variant solves in x = log1p(-u) + log R by Newton steps on
K' = k (_solve_x, _newton), each lane inside a bracket of its probes:
it takes the step, clipped to +-2 and capped at x_hi (log R shrunk by
RADIUS_GUARD), while the step lands inside the bracket, and bisects it
otherwise. It stops once |K' - k| <= RESIDUAL_TOL*max(1, k), or once the
Newton correction or the bracket is as narrow as 8.9e-16*|x| (4 eps).

The conditional variant solves in s = log u (_cond_solve), where the
root keeps its digits however close it sits to the radius: log(M - p0)
depends on the rates and x only through E = z + log((1 - u)/u) (the
block comment above spa_derivatives), and each pass (_cond_pass) forms
E and the first two derivatives f1, f2 of L = log(M/p0 - 1) in E, so
that Kc' = f1/u and Kc'' = (f2 + f1 (1 - u))/u^2. A lane starts at the
plain root moved by a closed-form Halley step, or at -log k where that
is higher (both lie at or below its root in s), takes Newton steps on
log Kc' - log k, capped halfway to s = 0 and floored at s_hi = log u_hi,
u_hi = -expm1(-RADIUS_GUARD log R) being x_hi in u, and stops once
|log(Kc'/k)| <= RESIDUAL_TOL. Where 1 - u at the plain root is not a
normal float (beta = 0 among them), u is 1 and the lane is solved in x
(_flat_solve). With alpha = 0, p0 = 0 and the lanes are plain ones.

A lane without a root or whose root lies inside the guard band (a probe
at x_hi with K' < k, or at s_hi with Kc' < k) raises SolverError, as
does a lane still open after 200 passes or with a step that is not
finite. Either solve returns the terms of its last pass, those at the
saddlepoints, which _log_spa scores. Each pass evaluates every lane of
the gap group; a lane that has stopped keeps its point. So a plain
group costs one CGF pass unless a lane needs a Newton step, and a
conditional group 2.4 passes on average, at most 3, over the fits of 40
simulated single-trajectory panels (scripts/run_kernel_costs.py).

spa_derivatives gives the score and observed information of either
variant's panel log likelihood in (log lam, log mu), in closed form from
the saddlepoints (the comment block above it): a plain lane's from u, r,
rho and S (_plain_psi), a conditional one's from E and u (_cond_psi). A
fit asks for them at the point its objective has just scored, so
spa_loglik leaves its finished sweep's saddlepoints on the panel's
transitions table (one slot, the last sweep of finite total only): x
for a plain group, the solve's last pass for a conditional one.
spa_derivatives reads them there when the rates and the variant match:
each lane is solved once per evaluation. Where they do not,
spa_derivatives runs spa_loglik first, which is the only code that
builds a sweep. spa_loglik never reads the slot, so every value it
returns is computed afresh.
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

# Relative guard band below log R inside which evaluation is refused, and the
# residual tolerance: |K' - k| <= RESIDUAL_TOL*max(1, k), |log(Kc'/k)| <= RESIDUAL_TOL.
RADIUS_GUARD = 1e-12
RESIDUAL_TOL = 1e-10
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


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
    return _log_radius(g) * (1.0 - RADIUS_GUARD)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cgf_terms(x, g: GeomParams, a):
    """Vectorized K, K', K'' at x for a ancestors (a may be an array).

    Uses the geometric form of f; 1 - beta*s is assembled as
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


def _plain_u(lanes: _Lanes, g: GeomParams):
    """The plain root u for the lanes' ratios r = a/k under the law g, S
    there, log rho, and log(1 - u) in the forms that keep their digits:
    log((1 - r + S)/(1 + r + S)) for r <= 1 and, less log rho, log(4r/((S
    + r - 1)(1 + r + S))) for r > 1. Its callers ignore float warnings."""
    r = lanes.r
    log_rho = g.log_alpha + g.log_beta - g.log1m_alpha - g.log1m_beta
    # S = sqrt((1 - r)^2 + 4 r rho), finite unless rho passes e^1400
    s = np.hypot(lanes.one_m_r, 2.0 * lanes.sqrt_r * np.exp(0.5 * log_rho))
    den = 1.0 + r + s
    near = np.log((lanes.one_m_r + s) / den)
    return 2.0 * r / den, s, log_rho, near, np.log(4.0 * r / ((s + r - 1.0) * den))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _plain_root(lanes: _Lanes, g: GeomParams):
    """The plain root x of the lanes under the law g, +-inf or NaN on a
    lane that has no root, and S there. Where u > 1/2 and r > 1,
    log(rho/beta) replaces log rho + log R, so a beta = 0 law keeps it."""
    u, s, _, near, far = _plain_u(lanes, g)
    log_rad = _log_radius(g)
    far = np.where(
        lanes.r <= 1.0, near + log_rad, g.log_alpha - g.log1m_alpha - g.log1m_beta + far
    )
    return np.where(u <= 0.5, np.log1p(-u) + log_rad, far), s


def _no_root(k_arr, a_arr, i: int, t: float, rates: Rates) -> SolverError:
    lane = f"k={k_arr.flat[i]}, a={a_arr.flat[i]}, t={t}, rates=({rates.lam}, {rates.mu})"
    return SolverError(f"no saddlepoint root for {lane}")


def _solve_x(lanes: _Lanes, g: GeomParams, t: float, rates: Rates):
    """Vectorized saddlepoints x~ of the plain saddle equation for the
    lanes (k >= 1), and the CGF terms there (_newton's last pass), seeded
    at the closed-form root capped at x_hi. In u = 1 - beta e^x the
    equation reads a(1 - u) = k u (rho u + 1 - u), rho = e^-z. A lane
    without a root raises SolverError naming it."""
    k_arr, a_arr = lanes.k, lanes.a
    x = _plain_root(lanes, g)[0]
    ok = np.isfinite(x)
    if not ok.all():
        raise _no_root(k_arr, a_arr, int(np.argmin(ok)), t, rates)
    x_hi = _x_max(g)
    x = np.minimum(x, x_hi)
    return _newton(x, k_arr, lambda x: _cgf_terms(x, g, a_arr), x_hi, t, a_arr, rates)


@np.errstate(divide="ignore", invalid="ignore")
def _newton(x, k_arr, terms, x_hi: float, t: float, a_arr, rates: Rates):
    """Solve d1(x) = k from the seeds x, where terms(x) gives terms
    (value, d1, d2, ...) at every lane and d1 increases in x. Returns the
    saddlepoints and the terms of the last pass, those at the saddlepoints.
    The seeds are a float array, which each pass replaces and none
    writes into, so it is not copied.

    Each lane brackets its root between the points it has probed; a probe
    where d1 is NaN counts as below the root. The module docstring gives
    the steps and the stopping rules. Where the terms overflow (d1 = +inf
    and d2 = -inf at x_hi when 1 - beta is below about 1e-150), the Newton
    candidate reads NaN and the lane bisects its bracket instead.
    """
    tol = RESIDUAL_TOL * np.maximum(1.0, k_arr)
    done = False  # each lane's flag once the first pass has run
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


def _cond_pass(s, z: float, a, e=None):
    """One pass of the conditional solve at s = log u of every lane: (s,
    u, 1 - u, E, p, q, softplus(E), T, w, T + w, c1, f1, f2), with q the
    logistic of E, p = 1 - q, T = a softplus(E), w = T/(e^T - 1), c1 =
    q/softplus(E) and f1, f2 the first two derivatives of L = log(e^T -
    1) in E (_cond_psi). Where e^E or T underflows, c1 or w reads its
    limit 1; e^E is capped at e^700, so that p is not NaN past it. A
    given e is E at s = 0 (_flat_solve). It runs under the errstate of
    its callers."""
    u = np.exp(s)
    om = -np.expm1(s)
    if e is None:
        e = z + np.log(om) - s
    ee = np.exp(np.minimum(e, 700.0))
    p = 1.0 / (1.0 + ee)
    q = ee * p
    sp = np.logaddexp(0.0, e)
    t = a * sp
    w = np.where(t > 0.0, t / np.expm1(t), 1.0)
    tw = t + w
    c1 = np.where(e < -40.0, 1.0, q / sp)
    f1 = tw * c1
    return s, u, om, e, p, q, sp, t, w, tw, c1, f1, f1 * (p - w * c1)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cond_solve(lanes: _Lanes, g: GeomParams, t: float, rates: Rates):
    """The terms of the conditional solve's last pass (_cond_pass), those
    at the saddlepoints of the lanes (k >= 2, alpha > 0); the module
    docstring gives the seed, steps and refusals. At the plain root K' =
    k, K'' = k^2 S/a, K''' = k/u^2 (p(2p - 1) + 3p(1 - u) + (1 - u)(2 -
    u)) with p = 1 - k u/a, so with v = 1/(e^T - 1), Kc' - k = k v, Kc''
    = (1 + v)(K'' - v k^2), Kc''' = (1 + v)(K''' - 3v k K'' + v(1 + 2v)
    k^3). The Halley step, at most twice Newton's and at most 2
    in x, moves u to u + (1 - u)(1 - e^-step) unless Kc'' <= 0. It pays
    for itself: without it the solve takes 3.7 passes per group in
    place of 2.2 at the spmle_adjusted optima of single_traj panels, and
    3.1 in place of 1.3 on pooled_growth ones (scripts/run_kernel_costs.py)."""
    k_arr, a_arr = lanes.k, lanes.a
    u, big_s, log_rho, near, far = _plain_u(lanes, g)
    om = np.where(u <= 0.5, 1.0 - u, np.exp(np.where(lanes.r <= 1.0, near, log_rho + far)))
    flat = ~(om >= _TINY) | (g.log_beta == -math.inf)
    if flat.any():
        out = np.empty((13,) + flat.shape)
        out[:, flat] = _flat_solve(lanes[flat], g, t, rates)
        out[:, ~flat] = _cond_solve(lanes[~flat], g, t, rates)
        return tuple(out)
    s = np.where(u <= 0.5, np.log(u), np.log1p(-om))
    z = g.log1m_alpha + g.log1m_beta - g.log_alpha - g.log_beta
    v = 1.0 / np.expm1(a_arr * np.logaddexp(0.0, z + np.log(om) - s))
    p, k2 = 1.0 - u * k_arr / a_arr, lanes.k_sq * big_s / a_arr
    k3 = k_arr / (u * u) * (p * (2.0 * p - 1.0) + 3.0 * p * (1.0 - u) + (1.0 - u) * (2.0 - u))
    resid, kc2 = k_arr * v, (1.0 + v) * (k2 - v * k_arr * k_arr)
    kc3 = (1.0 + v) * (k3 - 3.0 * v * k_arr * k2 + v * (1.0 + 2.0 * v) * lanes.k_cube)
    den = np.maximum(kc2 - 0.5 * resid * kc3 / kc2, 0.5 * kc2)
    step = np.log1p(om / u * -np.expm1(-resid / np.maximum(den, 0.5 * resid)))
    s = np.where((kc2 > 0.0) & np.isfinite(step), s + step, s)
    u_hi = -math.expm1(-RADIUS_GUARD * _log_radius(g))
    s_hi = math.log(u_hi) if u_hi > 0.0 else -math.inf
    log_k = lanes.log_k
    s = np.maximum(np.maximum(s, -log_k), s_hi)
    done = False  # each lane's flag once the first pass has run
    for _ in range(200):
        terms = _cond_pass(s, z, a_arr)
        h = np.log(terms[-2]) - s - log_k  # log(Kc'/k)
        done |= np.abs(h) <= RESIDUAL_TOL
        if done.all():
            return terms
        fo, f2 = terms[-2] * terms[2], terms[-1]  # f1 (1 - u), f2
        # a Newton step on h, whose slope in s is -(f2 + f1 (1 - u))/(f1 (1 - u))
        cand = np.maximum(np.minimum(s + h * fo / (f2 + fo), 0.5 * s), s_hi)
        if (cand == s_hi).any():
            blocked = ~done & (s == s_hi) & (h < 0.0)
            if blocked.any():
                i = int(np.argmax(blocked))
                raise SolverError(
                    f"saddlepoint for k={k_arr[i]}, a={a_arr[i]}, t={t}, "
                    f"rates=({rates.lam}, {rates.mu}) lies inside the radius guard "
                    f"band: Kc'(u_hi) = {k_arr[i] * math.exp(h[i])}"
                )
        if not np.isfinite(cand).all():
            done = np.isfinite(cand)  # names a lane whose step is not finite
            break
        s = np.where(done, s, cand)

    i = int(np.argmin(done))
    raise SolverError(
        f"saddlepoint solve did not converge for k={k_arr[i]}, a={a_arr[i]}, "
        f"t={t}, rates=({rates.lam}, {rates.mu})"
    )


def _flat_solve(lanes: _Lanes, g: GeomParams, t: float, rates: Rates):
    """The last pass (_cond_pass) at the conditional roots of lanes whose
    1 - u at the plain root is not a normal float. With k < a the root
    lies at E <= log(k/(a - k)), where 1 - u = e^(E - z) u is smaller
    still: u is 1, E = x + log((1 - alpha)(1 - beta)/alpha), Kc' = f1 and
    Kc'' = f2 in x, and _newton solves them. k >= a raises SolverError."""
    k_arr, a_arr = lanes.k, lanes.a
    x = _plain_root(lanes, g)[0]
    ok = np.isfinite(x) & (k_arr < a_arr)
    if not ok.all():
        raise _no_root(k_arr, a_arr, int(np.argmin(ok)), t, rates)
    c, x_hi = g.log1m_alpha + g.log1m_beta - g.log_alpha, _x_max(g)

    def terms(x):
        out = _cond_pass(np.zeros(x.shape), 0.0, a_arr, x + c)
        return out, out[-2], out[-1]

    return _newton(np.minimum(x, x_hi), k_arr, terms, x_hi, t, a_arr, rates)[1][0]


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
    lanes = _Lanes(np.array([float(k)]), np.array([float(a)]))
    xs, (value, d1, d2) = _solve_x(lanes, g, t, rates)
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
    coefs = (float(np.sum(a[exact])) - ones.size, float(ones.size), float(np.sum(np.log(ones))))
    live = ~exact
    return coefs, k[live], a[live]


class _Lanes:
    """Saddlepoint lanes a -> k (float arrays, k >= 1) and the rate-free
    arrays their kernels read: r = a/k, sqrt(r), 1 - r, k^2, k^3, log k
    and log a, and the sums of k and a. Each is the expression a kernel
    would form from k and a, so reading it gives the bits that forming it
    gives. Indexing by a mask gives the lanes it selects."""

    __slots__ = ("k", "a", "r", "sqrt_r", "one_m_r", "k_sq", "k_cube", "log_k", "log_a",
                 "k_sum", "a_sum")

    def __init__(self, k: np.ndarray, a: np.ndarray):
        self.k, self.a = k, a
        self.r = a / k
        self.sqrt_r = np.sqrt(self.r)
        self.one_m_r = 1.0 - self.r
        self.k_sq = k * k
        self.k_cube = k**3
        self.log_k = np.log(k)
        self.log_a = np.log(a)
        self.k_sum, self.a_sum = float(np.sum(k)), float(np.sum(a))

    def __getitem__(self, mask: np.ndarray) -> _Lanes:
        return _Lanes(self.k[mask], self.a[mask])


def lane_table(groups, conditional: bool) -> tuple:
    """Each gap group's lanes under the variant, as (coefs, lanes): the
    exact lanes' coefficients from _lanes and the saddlepoint lanes (a
    _Lanes, None where there are none). Rate-free, so the panel's
    transitions table builds it once per variant (Transitions.spa_lanes)."""
    out = []
    for grp in groups:
        coefs, k, a = _lanes(grp.dst, grp.src, conditional)
        out.append((coefs, _Lanes(k, a) if k.size else None))
    return tuple(out)


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
def _log_spa(lanes: _Lanes, g: GeomParams, t: float, rates: Rates, conditional: bool):
    """The variant's saddlepoint lanes scored from the solve's last pass:
    (sp, log pmfs), sp being that pass for a conditional lane
    (_cond_log_spa) and x for a plain one; alpha = 0 makes the
    conditional lanes plain ones. A lane's value does not depend on the
    other lanes. Where d2 underflows to 0 (a law collapsed
    toward a point mass) the lane scores -inf, not the +inf of log(0)."""
    if conditional and g.log_alpha > -math.inf:
        sp, _, lp = _cond_log_spa(lanes, g, t, rates)
        return sp, lp
    x, (value, _, d2) = _solve_x(lanes, g, t, rates)
    lp = -0.5 * np.log(2.0 * math.pi * d2) + value - x * lanes.k
    return x, np.where(np.isfinite(d2) & (d2 > 0.0), lp, -np.inf)


@np.errstate(divide="ignore", invalid="ignore")
def _cond_log_spa(lanes: _Lanes, g: GeomParams, t: float, rates: Rates):
    """The terms of the conditional solve's last pass (_cond_solve), the
    saddlepoints x = log(1 - u) + log R (E less log((1 - alpha)(1 -
    beta)/alpha) where u is 1), and the lanes' log pmfs.

    The pmf (1 - p0) exp(Kc - x k)/sqrt(2 pi Kc'') has Kc = log(M - p0) -
    log(1 - p0), so it scores a log(alpha) + L - x k - 1/2 log(2 pi
    Kc''), log Kc'' = log(f2 + f1 (1 - u)) - 2s. L = log(e^T - 1) is T +
    log(-expm1(-T)) where T > 1 and log T - log w below, log T = log a +
    E where e^E underflows: so a lane keeps its value where M - p0
    underflows. Where Kc'' underflows to 0 the lane scores -inf."""
    terms = _cond_solve(lanes, g, t, rates)
    s, _, om, e, _, _, sp, big_t, w, _, _, f1, f2 = terms
    log_t = lanes.log_a + np.where(e < -40.0, e, np.log(sp))
    ell = np.where(big_t > 1.0, big_t + np.log(-np.expm1(-big_t)), log_t - np.log(w))
    c = g.log1m_alpha + g.log1m_beta - g.log_alpha  # E - x where u is 1
    x = np.where(om > 0.0, np.log(om) + _log_radius(g), e - c)
    d = f2 + f1 * om
    lp = lanes.a * g.log_alpha + ell - x * lanes.k - 0.5 * np.log(2.0 * math.pi * d) + s
    return terms, x, np.where(d > 0.0, lp, -np.inf)


def _pmf(k: int, t: float, a: int, rates: Rates, conditional: bool) -> float:
    _check_args(t, a, k)
    g = geom_params(t, rates)
    coefs, ks, anc = _lanes([k], [a], conditional)
    if ks.size:
        return float(np.exp(_log_spa(_Lanes(ks, anc), g, t, rates, conditional)[1][0]))
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
    _, lp = _log_spa(_Lanes(ks, np.full_like(ks, float(a))), g, t, rates, False)
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
    set per gap, split once per variant (Transitions.spa_lanes), and each
    set is evaluated in one vectorized sweep.

    Every call solves its saddlepoints, and scores them from the solve's
    last pass. A sweep that finishes with a finite total leaves each
    group's law and saddlepoints, (g, sp), in the table's _saddlepoints
    slot for spa_derivatives at the same rates and variant: sp is
    _log_spa's (None without saddlepoint lanes). The slot is emptied
    first, so a call that raises or scores -inf leaves nothing there.
    """
    conditional = _is_conditional(variant)
    table = panel.transitions
    table._saddlepoints.clear()
    total = 0.0
    sweep = []
    for grp, (coefs, lanes) in zip(table.groups, table.spa_lanes(conditional)):
        g = geom_params(grp.tau, rates)
        total += _exact_log(coefs, g)
        sp = None
        if lanes is not None:
            sp, lp = _log_spa(lanes, g, grp.tau, rates, conditional)
            total += float(lp.sum())
        sweep.append((g, sp))
    if math.isfinite(total):
        table._saddlepoints[rates, conditional] = sweep
    return total


# ---------------------------------------------------------------------------
# score and observed information
#
# With y = x + log(beta) and z = log(1-alpha) + log(1-beta) - log(alpha)
# - log(beta), the single-ancestor generating function at e^x is
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
# a log(alpha) + log(e^{a Phi} - 1), again a function of (y, z) alone,
# and so is its psi.
#
# Taking y rather than x keeps the two rate directions apart: at a
# saddlepoint near the radius, d x~ / d log(beta) is close to -1, and the
# derivatives in x and log(beta) separately are huge and cancel.
#
# At a plain root the algebra collapses (Butler, 2007, Saddlepoint
# Approximations with Applications, ch. 1-2). With u = 1 - beta e^x~ and
# r = a/k, rho = e^-z and S = sqrt((1 - r)^2 + 4 r rho) as in _solve_x,
# the saddle equation a(1 - u) = k u (rho u + 1 - u) gives
# K''(x~) = k^2 S / a, and
#
#     psi'  = k u + t,
#     psi'' = k u^2 rho / S - t (1 - r)^2 / S^2,   t = r rho / S^2
#
# (_plain_psi). The last term is -t + 4 t^2, written so that it does not
# cancel where 4 r rho is far above (1 - r)^2. rho enters as
# sqrt(rho) = exp(1/2 log rho), as in _plain_root, and u sqrt(rho) and
# sqrt(rho)/S are bounded, so nothing overflows.
#
# The conditional L = log(e^T - 1), T = a Phi = a softplus(E), depends on
# (y, z) only through E = z + log r(y) = z + log((1 - u)/u). With f1, f2,
# ... its derivatives in E, dE/dy = 1/u and d2E/dy2 = (1 - u)/u^2 give
# Kc' = f1/u and Kc'' = D/u^2, D = f2 + f1 (1 - u). At a root f1 = k u,
# so along the roots u = f1/k, z = E - log((1 - u)/u) and psi = L - k
# log(1 - u) - 1/2 log D + log u are functions of E, du/dE = u f2/f1 and
# dz/dE = D/(f1 (1 - u)). With D' = f3 + f2 (1 - 2u), D'' = f4 + f3 (1 -
# 2u) - 2u f2^2/f1 and N = f2 - f1 D'/(2D) along the roots (_cond_psi),
#
#     psi'  = f1 + (1 - u) N/D,
#     psi'' = f1 (1 - u)/D (f2 + ((1 - u)(N' - N D'/D) - u f2 N/f1)/D).


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cond_psi(terms):
    """psi' and psi'' of the conditional lanes from the terms of their
    solve's last pass (_cond_pass), in closed form (the block comment
    above). f3 and f4 compose F(T) = log(e^T - 1), whose n-th derivative
    is taken times T^n (h2..h4, in w = T/(e^T - 1)) so that it does not
    overflow where T is tiny, with softplus(E), whose n-th derivative is
    divided by softplus (c1..c4: q, q p, q p (p - q), q p (1 - 6 q p))."""
    _, u, om, _, p, q, _, t, w, tw, c1, f1, f2 = terms
    c2 = c1 * p
    w_tw = w * tw
    h2, h3 = -w_tw, w_tw * (t + 2.0 * w)
    h4 = -w_tw * (t * t + 6.0 * w * tw)  # (6 w) tw, which 6 w_tw would round apart from
    c3, c4 = c2 * (p - q), c2 * (1.0 - 6.0 * q * p)
    sq = c1 * c1
    f3 = h3 * sq * c1 + 3.0 * h2 * c1 * c2 + tw * c3
    f4 = h4 * sq * sq + 6.0 * h3 * sq * c2 + h2 * (4.0 * c1 * c3 + 3.0 * c2 * c2) + tw * c4
    d = f2 + f1 * om
    r1 = (f3 + f2 * (1.0 - 2.0 * u)) / d
    r2 = (f4 + f3 * (1.0 - 2.0 * u) - 2.0 * u * f2 * f2 / f1) / d
    n = f2 - 0.5 * f1 * r1
    dn = f3 - 0.5 * (f2 * r1 + f1 * (r2 - r1 * r1))
    second = f1 * om / d * (f2 + (om * (dn - n * r1) - u * f2 * n / f1) / d)
    return f1 + om * n / d, second


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _plain_psi(x, g: GeomParams, lanes: _Lanes):
    """psi' and psi'' of the plain lanes at their saddlepoints x, in
    closed form (the block comment above)."""
    k, r = lanes.k, lanes.r
    # sqrt(rho) as in _plain_root, so that it cannot overflow
    root_rho = math.exp(0.5 * (g.log_alpha + g.log_beta - g.log1m_alpha - g.log1m_beta))
    s = np.hypot(lanes.one_m_r, 2.0 * lanes.sqrt_r * root_rho)
    u = math.exp(g.log1m_beta) - g.beta * np.expm1(x)  # 1 - beta e^x
    h = root_rho / s
    t = r * h * h
    v = u * root_rho
    return k * u + t, k * v * v / s - t * (lanes.one_m_r / s) ** 2


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _group_weights(g: GeomParams, sp, coefs, lanes: _Lanes, conditional: bool):
    """The group's (w1, w2, w3, var) for exact._chain, from its law and
    saddlepoints (an entry of spa_loglik's sweep) and its lanes (an entry
    of lane_table): its log likelihood's gradient in u and its Hessian's
    weight along c. The exact lanes are linear in u, with _lanes'
    coefficients."""
    n_alpha, n_l1ab, _ = coefs
    if sp is None:
        return n_alpha, 0.0, n_l1ab, 0.0
    first, second = _cond_psi(sp) if conditional else _plain_psi(sp, g, lanes)
    d1 = float(first.sum())
    w1 = n_alpha + (lanes.a_sum - d1)
    return w1, lanes.k_sum - d1, n_l1ab + d1, float(second.sum())


def spa_derivatives(panel: Panel, rates: Rates, variant: str = "plain"):
    """Score and observed information of spa_loglik(panel, rates, variant)
    in (log lam, log mu), or None on a degenerate law (alpha or beta 0),
    where spa_loglik is not finite, or where they are not finite.

    Each lane is differentiated in closed form in the one rate coordinate
    z its log pmf depends on beyond two linear terms (the block comment
    above); exact._chain, which the exact likelihood's derivatives share,
    takes the result to (log lam, log mu). The laws, lanes and
    saddlepoints are those of the last spa_loglik sweep on the panel when
    it ran at equal rates and the same variant. Otherwise, once the laws
    are checked for degeneracy (which returns None with nothing solved and
    the slot as it was), spa_loglik(panel, rates, variant) runs first:
    such a cold call returns None where it is not finite, leaves its sweep
    in the slot where it is, and raises the SolverError or DomainError
    that spa_loglik raises. The solve is deterministic lane by lane, so
    both ways give the same bits.
    """
    conditional = _is_conditional(variant)
    table = panel.transitions
    sweep = table._saddlepoints.get((rates, conditional))
    if sweep is None:
        laws = [geom_params(grp.tau, rates) for grp in table.groups]
    else:
        laws = [g for g, _ in sweep]
    if any(g.log_alpha == -math.inf or g.log_beta == -math.inf for g in laws):
        return None
    if sweep is None:
        if not math.isfinite(spa_loglik(panel, rates, variant)):
            return None
        sweep = table._saddlepoints[rates, conditional]
    weights = [
        _group_weights(g, sp, coefs, lanes, conditional)
        for (g, sp), (coefs, lanes) in zip(sweep, table.spa_lanes(conditional))
    ]
    score, info = _chain(table.groups, laws, rates, weights)
    # float tests: numpy's per-call cost on a 2-vector and a 2x2 outweighs them
    (s0, s1), (i0, i1) = score.tolist(), info.tolist()
    if not all(map(math.isfinite, (s0, s1, *i0, *i1))):
        return None
    return score, info
