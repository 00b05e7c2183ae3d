"""Independent references used to pin expected values.

The mpmath functions are deliberately written against the raw formulas
in arbitrary precision and without reusing any package code path, so
package results can be checked against a genuinely separate evaluation.

The float references at the end are what the tests hold the package's
law and sampler against:

- the event-by-event simulator (simulate_trajectory and
  simulate_trajectory_stats), which shares no code with the transition
  law: in state k the holding time is exponential with rate
  k(lambda + mu) and the jump is a birth with probability
  lambda/(lambda + mu), and states are read off at the observation times
  from the same event clock;
- the closed-form moments (mean, variance) and the generating function
  (pgf, pgf_geom), the last two on the package's (alpha, beta).
"""

from __future__ import annotations

import math
import random
from typing import Optional

import mpmath as mp

from bdrates.errors import CapError, DomainError
from bdrates.exact import GeomParams, geom_params
from bdrates.simulate import SimConfig
from bdrates.types import Rates, Trajectory

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


# ---------------------------------------------------------------------------
# float references


def mean(t: float, a: int, rates: Rates) -> float:
    """Expected count a horizon t after a ancestors: a * exp(omega*t)."""
    return a * math.exp(rates.omega * t)


def variance(t: float, a: int, rates: Rates) -> float:
    """Variance of the count a horizon t after a ancestors.

    Generic form a*(xi/omega)*e^{omega t}(e^{omega t}-1), accurate for
    every omega != 0; at omega == 0 its limit a*xi*t.
    """
    if rates.omega == 0.0:
        return a * rates.xi * t
    w = rates.omega * t
    return a * (rates.xi / rates.omega) * math.exp(w) * math.expm1(w)


def pgf(s: float, t: float, rates: Rates, a: int = 1) -> float:
    """Probability generating function E[s^Z(t)] from a ancestors.

    Requires 0 <= s < 1/beta(t); the a-ancestor value is the single-ancestor
    one raised to the a-th power.
    """
    if a < 0 or a != int(a):
        raise DomainError(f"ancestor count must be a nonnegative integer, got {a}")
    if not (s >= 0.0 and math.isfinite(s)):
        raise DomainError(f"pgf argument must be finite and nonnegative, got {s}")
    g = geom_params(t, rates)
    return pgf_geom(s, g)[0] ** a


def pgf_geom(s: float, g: GeomParams) -> tuple[float, float, float]:
    """Single-ancestor pgf value and its first two s-derivatives at s for
    the law g; raises DomainError unless s lies inside the convergence
    disc, s < 1/beta."""
    om_b = math.exp(g.log1m_beta)
    # 1 - beta*s as (1-beta) - beta*(s-1): both pieces are known accurately,
    # which matters when s is just below the radius.
    om_bs = om_b - g.beta * (s - 1.0)
    if om_bs <= 0.0:
        raise DomainError(
            f"pgf argument {s} is outside the convergence disc (radius {1.0 / g.beta})"
        )
    om_a = math.exp(g.log1m_alpha)
    f = g.alpha + om_a * om_b * s / om_bs
    f1 = om_a * om_b / (om_bs * om_bs)
    f2 = 2.0 * g.beta * om_a * om_b / (om_bs * om_bs * om_bs)
    return f, f1, f2


def _sample_counts(
    rng: random.Random, config: SimConfig, budget: int
) -> tuple[tuple[int, ...], int]:
    """One unconditioned path read at obs_times; returns (counts, events).

    The event clock is global: observation instants falling inside a
    holding interval record the pre-jump state, so no holding-time draw
    is ever discarded or restarted.
    """
    lam = config.rates.lam
    xi = config.rates.xi
    p_birth = lam / xi
    obs = config.obs_times
    n_obs = len(obs)
    out: list[int] = []
    k = config.z0
    t = 0.0
    events = 0
    i = 0
    while i < n_obs:
        if k == 0:
            out.extend([0] * (n_obs - i))
            break
        t_next = t + rng.expovariate(k * xi)
        while i < n_obs and obs[i] <= t_next:
            out.append(k)
            i += 1
        if i >= n_obs:
            break
        events += 1
        if events > budget:
            raise CapError(
                f"event cap exhausted at t={t_next:.6g}, population {k}, "
                f"{i}/{n_obs} observations recorded"
            )
        k += 1 if rng.random() < p_birth else -1
        if k > config.max_pop:
            raise CapError(
                f"population cap {config.max_pop} exceeded at t={t_next:.6g}, "
                f"{i}/{n_obs} observations recorded"
            )
        t = t_next
    return tuple(out), events


def simulate_trajectory_stats(
    config: SimConfig, rng: Optional[random.Random] = None
) -> tuple[Trajectory, int]:
    """Simulate one trajectory of a SimConfig event by event; also report
    how many paths conditioning threw away before acceptance.

    max_events bounds the births and deaths spent across the rejected
    paths, and max_pop is checked after every event; both raise CapError.
    """
    if rng is None:
        rng = random.Random(config.seed)
    budget = config.max_events
    rejections = 0
    while True:
        counts, used = _sample_counts(rng, config, budget)
        budget -= used
        if not config.condition_nonextinct or counts[-1] > 0:
            traj = Trajectory(
                (0.0,) + tuple(config.obs_times), (config.z0,) + counts
            )
            return traj, rejections
        rejections += 1
        if budget <= 0:
            raise CapError(
                f"event cap exhausted after {rejections} rejected paths; "
                "the non-extinction event may be too rare for these rates"
            )


def simulate_trajectory(
    config: SimConfig, rng: Optional[random.Random] = None
) -> Trajectory:
    """Exact simulation of the process, recorded at config.obs_times."""
    traj, _ = simulate_trajectory_stats(config, rng)
    return traj
