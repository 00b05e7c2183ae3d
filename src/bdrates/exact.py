"""Exact distribution theory for the linear birth-death process.

A population of identical individuals where each gives birth at rate
``lam`` and dies at rate ``mu`` has, over a horizon ``t``, a transition
law with a modified-geometric single-ancestor marginal and, from ``a``
ancestors, the a-fold convolution of it. Everything here is exact and
works in log space, with an internal switch to the critical-case
(lam == mu) limit formulas.

The single-ancestor law is parametrized by a pair ``(alpha, beta)``:
``alpha`` is the extinction mass at the horizon and the positive part is
geometric with ratio ``beta``,

    P(Z=0) = alpha,   P(Z=k) = (1-alpha)(1-beta) beta**(k-1)  for k >= 1,

so the generating function is alpha + (1-alpha)(1-beta) s / (1 - beta s),
with radius of convergence 1/beta.

The panel likelihood sums, per transition a -> k >= 1, min(a, k) terms
whose logs are a rate-free log binomial coefficient plus a part linear
in log(alpha), log(beta) and log(1-alpha) + log(1-beta). The
coefficients are tabulated once per panel (TermTable), so an
evaluation is one law per gap group, one affine map and a segmented
log-sum-exp. Single transitions (log_transition_prob, truncation_limit) and
the degenerate laws of a pure-birth or pure-death process use the scalar
sum _log_pmf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import CapError, DomainError
from .types import Panel, Rates

__all__ = [
    "EPS_CRITICAL",
    "alpha_beta",
    "pgf",
    "pgf_derivs",
    "log_transition_prob",
    "mean",
    "variance",
    "extinction_prob",
    "exact_loglik",
    "truncation_limit",
]

# Relative half-width of the band around lam == mu inside which the
# critical-case limit formulas are used instead of the generic ones.
EPS_CRITICAL = 1e-8

# Tail mass target for truncated normalization sums, and the hard cap on
# the truncation index.
TRUNCATION_TOL = 1e-12
TRUNCATION_CAP = 10**6

_NEG_INF = float("-inf")


def is_critical(rates: Rates) -> bool:
    """Whether the rate pair falls in the near-critical band where the
    lam == mu limit formulas apply."""
    return abs(rates.omega) <= EPS_CRITICAL * rates.xi


@dataclass(frozen=True)
class GeomParams:
    """Extinction mass and geometric ratio of the single-ancestor law at a
    fixed horizon, with their logs precomputed in stable form."""

    alpha: float
    beta: float
    log_alpha: float
    log_beta: float
    log1m_alpha: float
    log1m_beta: float


def geom_params(t: float, rates: Rates) -> GeomParams:
    """(alpha, beta) of the single-ancestor law at horizon t, with logs.

    Valid for t >= 0; t == 0 degenerates to alpha = beta = 0 (identity
    transition). All quantities are computed without evaluating exp(omega*t)
    on its own, so very long horizons do not overflow.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"horizon must be finite and nonnegative, got {t}")
    lam, mu = rates.lam, rates.mu
    if is_critical(rates):
        u = 0.5 * rates.xi * t
        # alpha = beta = u / (1 + u)
        if u == 0.0:
            return GeomParams(0.0, 0.0, _NEG_INF, _NEG_INF, 0.0, 0.0)
        log_a = math.log(u) - math.log1p(u)
        alpha = u / (1.0 + u)
        l1m = -math.log1p(u)
        return GeomParams(alpha, alpha, log_a, log_a, l1m, l1m)

    omega = rates.omega
    if t == 0.0:
        return GeomParams(0.0, 0.0, _NEG_INF, _NEG_INF, 0.0, 0.0)
    # denominator lam*(e^{omega t} - 1) + omega has the same sign as omega,
    # and its magnitude is lam*|e^{omega t} - 1| + |omega| exactly.
    wt = omega * t
    if omega > 0.0:
        # -expm1(-wt) stays positive even when exp(-wt) rounds to 1
        log_absE = wt + math.log(-math.expm1(-wt)) if wt < 700 else wt
    else:
        log_absE = math.log(-math.expm1(wt))
    log_lam = math.log(lam) if lam > 0.0 else _NEG_INF
    log_mu = math.log(mu) if mu > 0.0 else _NEG_INF
    log_absden = _logaddexp(log_lam + log_absE, math.log(abs(omega)))
    log_alpha = log_mu + log_absE - log_absden
    log_beta = log_lam + log_absE - log_absden
    log1m_alpha = math.log(abs(omega)) + wt - log_absden
    log1m_beta = math.log(abs(omega)) - log_absden
    return GeomParams(
        math.exp(log_alpha),
        math.exp(log_beta),
        log_alpha,
        log_beta,
        log1m_alpha,
        log1m_beta,
    )


def _logaddexp(x: float, y: float) -> float:
    if x == _NEG_INF:
        return y
    if y == _NEG_INF:
        return x
    if x < y:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


def alpha_beta(t: float, rates: Rates) -> tuple[float, float]:
    """Extinction mass alpha and geometric ratio beta at horizon t."""
    g = geom_params(t, rates)
    return g.alpha, g.beta


def convergence_radius(t: float, rates: Rates) -> float:
    """Radius 1/beta of the generating function at horizon t (inf if the
    geometric part is empty, e.g. for a pure-death process)."""
    g = geom_params(t, rates)
    return 1.0 / g.beta if g.beta > 0.0 else math.inf


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


def pgf_derivs(s: float, t: float, rates: Rates) -> tuple[float, float, float]:
    """Single-ancestor pgf value and its first two s-derivatives at s.

    Requires 0 < s < 1/beta(t). The generating function of a whole path
    composes this map across its observation gaps.
    """
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"pgf argument must be positive and finite, got {s}")
    return pgf_geom(s, geom_params(t, rates))


def log_transition_prob(k: int, t: float, a: int, rates: Rates) -> float:
    """Log probability of observing k individuals a horizon t after a.

    The k >= 1, a >= 1 case is a sum over the number j of ancestor lines
    that die out, each term a product of two binomials and powers of
    alpha, beta; it is accumulated in log space. k = 0 is alpha**a and
    a = 0 is a point mass at 0. Impossible transitions return -inf.
    """
    if a < 0 or k < 0:
        raise DomainError(f"counts must be nonnegative, got a={a}, k={k}")
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"horizon must be positive and finite, got {t}")
    g = geom_params(t, rates)
    return _log_pmf(k, a, g)


def _log_pmf(k: int, a: int, g: GeomParams) -> float:
    if a == 0:
        return 0.0 if k == 0 else _NEG_INF
    if k == 0:
        return a * g.log_alpha
    lg = math.lgamma
    log_head = lg(a + 1) + lg(k)  # shared numerator of both binomials
    la, lb = g.log_alpha, g.log_beta
    l1ab = g.log1m_alpha + g.log1m_beta
    terms = []
    for j in range(max(0, a - k), a):
        v = (
            log_head
            - lg(j + 1)
            - lg(a - j + 1)
            - lg(a - j)
            - lg(k - a + j + 1)
            + (a - j) * l1ab
        )
        if j > 0:
            v += j * la
        # j == 0 with alpha == 0 and e == 0 with beta == 0 contribute the
        # factor 1, so the corresponding -inf logs must not be multiplied in.
        e = k - a + j
        if e > 0:
            v += e * lb
        terms.append(v)
    m = max(terms)
    if m == _NEG_INF:
        return _NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in terms))


def mean(t: float, a: int, rates: Rates) -> float:
    """Expected count a horizon t after a ancestors: a * exp(omega*t)."""
    return a * math.exp(rates.omega * t)


def variance(t: float, a: int, rates: Rates) -> float:
    """Variance of the count a horizon t after a ancestors.

    Generic form a*(xi/omega)*e^{omega t}(e^{omega t}-1); near criticality
    it degenerates to a*xi*t.
    """
    if is_critical(rates):
        return a * rates.xi * t
    w = rates.omega * t
    return a * (rates.xi / rates.omega) * math.exp(w) * math.expm1(w)


def extinction_prob(rates: Rates) -> float:
    """Probability that the line of a single ancestor eventually dies out:
    min(1, mu/lam), and 1 for a pure-death process."""
    if rates.lam == 0.0:
        return 1.0
    return min(1.0, rates.mu / rates.lam)


def truncation_limit(t: float, a: int, rates: Rates, tol: float = TRUNCATION_TOL) -> int:
    """Truncation index K for sums over the transition pmf, so that the
    mass above K is below tol. Capped at TRUNCATION_CAP.

    A first guess comes from the geometric factor alone (beta**(K-a)
    / (1-beta) < tol). The binomial in the pmf grows polynomially in k,
    which that guess ignores, so K is then enlarged until the rigorous
    tail bound p_K * r/(1-r) < tol holds, where r = beta*K/(K-a+1) bounds
    every term ratio p_{k+1}/p_k for k >= K >= a.
    """
    g = geom_params(t, rates)
    if g.beta <= 0.0:
        return max(a, 1)  # no geometric part: support ends at a
    need = (math.log(tol) + g.log1m_beta) / g.log_beta
    k = min(max(a + int(math.ceil(need)), a + 1, 10), TRUNCATION_CAP)
    while True:
        ratio = g.beta * k / (k - a + 1)
        if ratio < 1.0:
            log_tail = _log_pmf(k, a, g) + math.log(ratio) - math.log1p(-ratio)
            if log_tail < math.log(tol):
                return k
        if k >= TRUNCATION_CAP:
            # refusing beats silently returning a K that misses tail mass
            raise CapError(
                f"enumerating the transition law to tail mass {tol} needs "
                f"more than {TRUNCATION_CAP} states (t={t}, a={a}, "
                f"beta={g.beta:.6g}); the law is too spread out"
            )
        k = min(int(math.ceil(k * 1.25)) + 8, TRUNCATION_CAP)


@dataclass(frozen=True, eq=False)
class TermTable:
    """The rate-free part of a panel's exact log likelihood.

    Each summand of the pmf of a k >= 1 transition out of a ancestors,
    indexed by the number j of ancestor lines that die out, splits as

        coef(a, k, j) + [a*l1ab + (k-a)*log(beta)] + j*(log(alpha) + log(beta) - l1ab)

    with l1ab = log(1-alpha) + log(1-beta) of the transition's gap group.
    coef holds the log binomial coefficients of every summand, flat, gap
    group after gap group: one segment of lengths = min(a, k) terms per
    k >= 1 transition, starting at starts, and group_terms terms per
    group. j holds the matching index. Per group, the bracket sums to
    src_live*l1ab + excess*log(beta), and the k = 0 transitions add
    src_dead*log(alpha). Arrays are read-only.
    """

    coef: np.ndarray
    j: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    group_terms: np.ndarray
    src_live: tuple[int, ...]
    excess: tuple[int, ...]
    src_dead: tuple[int, ...]


def term_table(groups) -> TermTable:
    """Build the TermTable of a sequence of GapGroups."""
    src = np.concatenate([grp.src for grp in groups])
    dst = np.concatenate([grp.dst for grp in groups])
    live = dst > 0
    a, k = src[live], dst[live]
    lengths = np.minimum(a, k)
    starts = np.zeros(len(lengths), dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    # j runs from max(0, a-k) to a-1 within each segment
    j_lo = np.maximum(a - k, 0)
    j = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(starts - j_lo, lengths)
    a_t = np.repeat(a, lengths)
    k_t = np.repeat(k, lengths)
    # log_head - lgamma(j+1) - lgamma(a-j+1) - lgamma(a-j) - lgamma(k-a+j+1)
    coef = gammaln(a_t + 1) + gammaln(k_t)
    coef -= gammaln(j + 1)
    coef -= gammaln(a_t - j + 1)
    coef -= gammaln(a_t - j)
    coef -= gammaln(k_t - a_t + j + 1)
    # min(a, 0) = 0: the k = 0 members add no terms
    group_terms = np.array([np.minimum(grp.src, grp.dst).sum() for grp in groups])
    arrays = (coef, j.astype(float), starts, lengths, group_terms)
    for arr in arrays:
        arr.setflags(write=False)
    live_of = [(grp, grp.dst > 0) for grp in groups]
    return TermTable(
        *arrays,
        src_live=tuple(int(grp.src[lv].sum()) for grp, lv in live_of),
        excess=tuple(int((grp.dst - grp.src)[lv].sum()) for grp, lv in live_of),
        src_dead=tuple(int(grp.src[~lv].sum()) for grp, lv in live_of),
    )


def _table_loglik(tab: TermTable, laws: list[GeomParams]) -> float:
    # sum of the panel's log pmfs for laws with alpha, beta > 0: one
    # affine map of the coefficients and a log-sum-exp per segment
    l1ab = [g.log1m_alpha + g.log1m_beta for g in laws]
    total = sum(
        n_live * c + n_exc * g.log_beta + n_dead * g.log_alpha
        for n_live, n_exc, n_dead, c, g in zip(
            tab.src_live, tab.excess, tab.src_dead, l1ab, laws
        )
    )
    if tab.coef.size == 0:
        return total
    slopes = [g.log_alpha + g.log_beta - c for g, c in zip(laws, l1ab)]
    # a lone group's slope broadcasts; spreading it would copy the table
    v = tab.j * (slopes[0] if len(slopes) == 1 else np.repeat(slopes, tab.group_terms))
    v += tab.coef
    peak = np.maximum.reduceat(v, tab.starts)
    v -= np.repeat(peak, tab.lengths)
    np.exp(v, out=v)
    mass = np.add.reduceat(v, tab.starts)
    return total + float(np.sum(peak)) + float(np.sum(np.log(mass)))


def exact_loglik(panel: Panel, rates: Rates) -> float:
    """Exact log likelihood of a panel: the sum of log transition
    probabilities over consecutive observation pairs (the process is
    Markov, so these factorize). Transitions out of state 0 contribute 0.

    Each gap group of the panel's transitions table gets one law. The
    log pmfs come from the panel's TermTable, built on the first exact
    evaluation and kept with the transitions table: per evaluation, one
    affine map of the rate-free coefficients and a segmented
    log-sum-exp. A degenerate law (alpha = 0 or beta = 0, i.e. mu = 0 or
    lam = 0), under which some summands are -inf, sums the scalar
    _log_pmf instead."""
    trans = panel.transitions
    laws = [geom_params(grp.tau, rates) for grp in trans.groups]
    if all(g.log_alpha > _NEG_INF and g.log_beta > _NEG_INF for g in laws):
        return _table_loglik(trans.term_table, laws)
    total = 0.0
    for grp, g in zip(trans.groups, laws):
        for a, k in zip(grp.src.tolist(), grp.dst.tolist()):
            total += _log_pmf(k, a, g)
            if total == _NEG_INF:
                return _NEG_INF
    return total
