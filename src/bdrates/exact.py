"""Exact distribution theory for the linear birth-death process.

A population of identical individuals where each gives birth at rate
``lam`` and dies at rate ``mu`` has, over a horizon ``t``, a transition
law with a modified-geometric single-ancestor marginal and, from ``a``
ancestors, the a-fold convolution of it. Everything here is exact and
works in log space. The generic formulas hold for every omega != 0, as
close to 0 as it gets; the lam == mu limit formulas serve omega == 0
alone.

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

The same table gives the score and the observed information in
(log lam, log mu). A segment's log-sum-exp has the softmax mean of j as
its derivative in the slope and the softmax variance of j as its second
derivative, so each costs one more weighted reduction. The chain to the
rates runs through

    log beta = log P - log(1+P),   log alpha = log Q - log(1+P),
    log(1-alpha) + log(1-beta) = omega*t - 2 log(1+P),

with P = lam*t*phi(omega*t), Q = mu*t*phi(omega*t) and
phi(x) = (e^x - 1)/x, which is smooth through omega = 0; log phi's
derivatives take a series near 0. That chain (_chain) also takes the
saddlepoint likelihoods' derivatives to the rates: their log pmfs
depend on a gap's law through the same coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapError, DomainError
from .types import Panel, Rates

__all__ = [
    "alpha_beta",
    "log_transition_prob",
    "exact_loglik",
    "truncation_limit",
]

# Tail mass target for truncated normalization sums, and the hard cap on
# the truncation index.
TRUNCATION_TOL = 1e-12
TRUNCATION_CAP = 10**6

_NEG_INF = float("-inf")


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


# the law of a zero horizon: the ancestor survives alone, alpha = beta = 0
_IDENTITY_LAW = GeomParams(0.0, 0.0, _NEG_INF, _NEG_INF, 0.0, 0.0)


def geom_params(t: float, rates: Rates) -> GeomParams:
    """(alpha, beta) of the single-ancestor law at horizon t, with logs.

    Valid for t >= 0; t == 0 degenerates to alpha = beta = 0 (identity
    transition), and so does a horizon so short that lam*t (at omega == 0)
    or omega*t underflows to 0. All quantities are computed without
    evaluating exp(omega*t) on its own, so very long horizons do not
    overflow. The generic formulas keep their relative accuracy as omega
    nears 0, so the lam == mu limit alpha = beta = u/(1+u), u = lam*t, is
    taken at omega == 0 only.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"horizon must be finite and nonnegative, got {t}")
    if t == 0.0:
        return _IDENTITY_LAW
    lam, mu, omega = rates.lam, rates.mu, rates.omega
    if omega == 0.0:
        u = lam * t
        if u == 0.0:
            return _IDENTITY_LAW
        a = u / (1.0 + u)
        log_a = math.log(u) - math.log1p(u)
        l1m = -math.log1p(u)
        return GeomParams(a, a, log_a, log_a, l1m, l1m)
    # denominator lam*(e^{omega t} - 1) + omega has the same sign as omega,
    # and its magnitude is lam*|e^{omega t} - 1| + |omega| exactly.
    wt = omega * t
    if wt == 0.0:
        # omega = lam - mu is 0 or at least an ulp of the smaller rate, so
        # both lam*t and mu*t are below about 1e-307 here
        return _IDENTITY_LAW
    if omega > 0.0:
        # -expm1(-wt) stays positive even when exp(-wt) rounds to 1, and
        # rounds to 1 itself once wt is large
        log_absE = wt + math.log(-math.expm1(-wt))
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
    group; segment_group holds each segment's group. j holds the
    matching index. Per group, the bracket sums to
    src_live*l1ab + excess*log(beta), and the k = 0 transitions add
    src_dead*log(alpha). Arrays are read-only.
    """

    coef: np.ndarray
    j: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    group_terms: np.ndarray
    segment_group: np.ndarray
    src_live: tuple[int, ...]
    excess: tuple[int, ...]
    src_dead: tuple[int, ...]


def term_table(groups) -> TermTable:
    """Build the TermTable of a sequence of GapGroups."""
    from scipy.special import gammaln  # here, so that import bdrates loads no scipy

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
    segment_group = np.repeat(
        np.arange(len(groups)), [np.count_nonzero(grp.dst) for grp in groups]
    )
    arrays = (coef, j.astype(float), starts, lengths, group_terms, segment_group)
    for arr in arrays:
        arr.setflags(write=False)
    live_of = [(grp, grp.dst > 0) for grp in groups]
    return TermTable(
        *arrays,
        src_live=tuple(int(grp.src[lv].sum()) for grp, lv in live_of),
        excess=tuple(int((grp.dst - grp.src)[lv].sum()) for grp, lv in live_of),
        src_dead=tuple(int(grp.src[~lv].sum()) for grp, lv in live_of),
    )


def _table_loglik(tab: TermTable, laws: list[GeomParams], moments: bool = False):
    """Sum of the panel's log pmfs for laws with alpha, beta > 0: one
    affine map of the coefficients and a log-sum-exp per segment. With
    moments, also each group's sums over its segments of the softmax mean
    and variance of j: the first two derivatives of the log-sum-exps in
    their group's slope."""
    l1ab = [g.log1m_alpha + g.log1m_beta for g in laws]
    total = sum(
        n_live * c + n_exc * g.log_beta + n_dead * g.log_alpha
        for n_live, n_exc, n_dead, c, g in zip(
            tab.src_live, tab.excess, tab.src_dead, l1ab, laws
        )
    )
    if tab.coef.size == 0:
        zero = np.zeros(len(laws))
        return (total, zero, zero) if moments else total
    slopes = [g.log_alpha + g.log_beta - c for g, c in zip(laws, l1ab)]
    # a lone group's slope broadcasts; spreading it would copy the table
    v = tab.j * (slopes[0] if len(slopes) == 1 else np.array(slopes).repeat(tab.group_terms))
    v += tab.coef
    peak = np.maximum.reduceat(v, tab.starts)
    v -= peak.repeat(tab.lengths)
    np.exp(v, out=v)
    mass = np.add.reduceat(v, tab.starts)
    value = total + float(peak.sum()) + float(np.log(mass).sum())
    if not moments:
        return value
    # v / mass are the softmax weights within each segment
    mean = np.add.reduceat(v * tab.j, tab.starts) / mass
    dev = tab.j - mean.repeat(tab.lengths)
    var = np.add.reduceat(v * dev * dev, tab.starts) / mass
    n = len(laws)
    return (
        value,
        np.bincount(tab.segment_group, mean, n),
        np.bincount(tab.segment_group, var, n),
    )


# log phi(x) = log((e^x - 1)/x) has derivatives 1/2 + coth(x/2)/2 - 1/x and
# 1/x^2 - (coth(x/2)^2 - 1)/4; below this |x| both cancel, and their
# series, truncated after the x^7 and x^6 terms, are exact to rounding
_SERIES_X = 0.1


def _log_phi_derivs(x: float) -> tuple[float, float]:
    """First and second derivatives of log phi at x."""
    if abs(x) < _SERIES_X:
        x2 = x * x
        return (
            0.5 + x * (1.0 / 12.0 - x2 * (1.0 / 720.0 - x2 * (1.0 / 30240.0 - x2 / 1209600.0))),
            1.0 / 12.0 - x2 * (1.0 / 240.0 - x2 * (1.0 / 6048.0 - x2 / 172800.0)),
        )
    coth = 1.0 / math.tanh(0.5 * x)
    return 0.5 + 0.5 * coth - 1.0 / x, 1.0 / (x * x) - 0.25 * (coth * coth - 1.0)


def _chain(
    groups, laws: list[GeomParams], rates: Rates, weights
) -> tuple[np.ndarray, np.ndarray]:
    """Score and observed information in theta = (log lam, log mu) of a
    log likelihood that depends on each gap group's law only through
    u = (log alpha, log beta, log(1-alpha) + log(1-beta)), with gradient
    (w1, w2, w3) in u and Hessian var * c c^T along the slope
    c = (1, 1, -1): weights holds (w1, w2, w3, var) per group. The chain
    runs through P, Q and phi (the module docstring). Scalar arithmetic
    per group: a panel has few groups, and numpy's per-call cost on
    2-vectors would outweigh the work."""
    lam, mu = rates.lam, rates.mu
    g0 = g1 = h00 = h01 = h11 = 0.0
    for grp, law, (w1, w2, w3, var) in zip(groups, laws, weights):
        d1, d2 = _log_phi_derivs(rates.omega * grp.tau)
        # x = omega*tau: gradient (x0, x1), Hessian diag(x0, x1)
        x0, x1 = lam * grp.tau, -mu * grp.tau
        # log P and log Q: gradients p and q; both have the Hessian l
        p0, p1 = 1.0 + d1 * x0, d1 * x1
        q0, q1 = d1 * x0, 1.0 + d1 * x1
        l00, l01, l11 = d2 * x0 * x0 + d1 * x0, d2 * x0 * x1, d2 * x1 * x1 + d1 * x1
        # log(1+P) = softplus(log P), whose slope is beta and curvature
        # beta(1 - beta): gradient (s0, s1), Hessian (s00, s01, s11)
        b = law.beta
        bv = b * math.exp(law.log1m_beta)
        s0, s1 = b * p0, b * p1
        s00, s01, s11 = bv * p0 * p0 + b * l00, bv * p0 * p1 + b * l01, bv * p1 * p1 + b * l11
        # u = (log Q - sp, log P - sp, x - 2 sp)
        g0 += w1 * (q0 - s0) + w2 * (p0 - s0) + w3 * (x0 - 2.0 * s0)
        g1 += w1 * (q1 - s1) + w2 * (p1 - s1) + w3 * (x1 - 2.0 * s1)
        # the slope's gradient in theta is q + p - x (the softplus cancels)
        c0, c1 = q0 + p0 - x0, q1 + p1 - x1
        w12 = w1 + w2
        h00 += var * c0 * c0 + w12 * (l00 - s00) + w3 * (x0 - 2.0 * s00)
        h01 += var * c0 * c1 + w12 * (l01 - s01) - w3 * 2.0 * s01
        h11 += var * c1 * c1 + w12 * (l11 - s11) + w3 * (x1 - 2.0 * s11)
    return np.array([g0, g1]), -np.array([[h00, h01], [h01, h11]])


def _score_information(
    trans, laws: list[GeomParams], rates: Rates, mean_j: np.ndarray, var_j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Score and observed information of the table log likelihood. Per
    group, the summed softmax mean m of j gives its gradient in u,
    (n_dead + m, n_exc + m, n_live - m), and the summed softmax variance
    its Hessian along the slope, whose coefficient j carries."""
    tab = trans.term_table
    weights = [
        (n_dead + m1, n_exc + m1, n_live - m1, var)
        for n_dead, n_exc, n_live, m1, var in zip(
            tab.src_dead, tab.excess, tab.src_live, mean_j.tolist(), var_j.tolist()
        )
    ]
    return _chain(trans.groups, laws, rates, weights)


def exact_loglik(panel: Panel, rates: Rates, derivatives: bool = False):
    """Exact log likelihood of a panel: the sum of log transition
    probabilities over consecutive observation pairs (the process is
    Markov, so these factorize). Transitions out of state 0 contribute 0.

    Each gap group of the panel's transitions table gets one law. The
    log pmfs come from the panel's TermTable, built on the first exact
    evaluation and kept with the transitions table: per evaluation, one
    affine map of the rate-free coefficients and a segmented
    log-sum-exp. A degenerate law (alpha = 0 or beta = 0, i.e. mu = 0 or
    lam = 0), under which some summands are -inf, sums the scalar
    _log_pmf instead.

    With derivatives, returns (value, score, information): the score
    and the observed information (minus the Hessian) in
    (log lam, log mu), or None for both on a degenerate law."""
    trans = panel.transitions
    laws = [geom_params(grp.tau, rates) for grp in trans.groups]
    if all(g.log_alpha > _NEG_INF and g.log_beta > _NEG_INF for g in laws):
        if not derivatives:
            return _table_loglik(trans.term_table, laws)
        value, mean_j, var_j = _table_loglik(trans.term_table, laws, moments=True)
        return (value, *_score_information(trans, laws, rates, mean_j, var_j))
    value = _scalar_loglik(trans, laws)
    return (value, None, None) if derivatives else value


def _scalar_loglik(trans, laws: list[GeomParams]) -> float:
    total = 0.0
    for grp, g in zip(trans.groups, laws):
        for a, k in zip(grp.src.tolist(), grp.dst.tolist()):
            total += _log_pmf(k, a, g)
            if total == _NEG_INF:
                return _NEG_INF
    return total
