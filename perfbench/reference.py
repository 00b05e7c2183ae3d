"""Independent exact likelihood and the correctness gate.

The reference log-likelihood is written from the transition-pmf formula
with scipy's ``gammaln`` and ``logsumexp``, vectorized over the sum index;
it shares no code with ``bdrates.exact``. The gate raises
``GateError`` on the first check a fit fails, which fails the run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp
from scipy.stats import norm
from scipy.stats import t as student_t

# |reference - reported| allowed on an mle fit, relative to max(1, |loglik|)
MLE_REL_TOL = 1e-9
# |own objective at the estimate - reported| allowed on the other
# likelihood fits; the search and the re-evaluation do the same arithmetic
OWN_REL_TOL = 1e-12
# qg reports its profile likelihood, re-evaluated here by the full form
QG_REL_TOL = 1e-9
# log-rate step of the local-maximum check on mle fits
LOCAL_STEP = 1e-3


class GateError(AssertionError):
    """A benchmark output failed a correctness check."""


def _log_law(tau: float, lam: float, mu: float) -> tuple[float, float, float, float]:
    """log alpha, log beta, log(1 - alpha), log(1 - beta) over a gap tau,
    with 1 - alpha and 1 - beta formed without cancellation."""
    w = lam - mu
    if w == 0.0:
        u = lam * tau
        la = math.log(u) - math.log1p(u)
        return la, la, -math.log1p(u), -math.log1p(u)
    em1 = math.expm1(w * tau)
    # lam * e^{w tau} - mu, summed from two terms of the sign of w so that
    # it keeps its precision next to the critical line
    log_den = math.log(abs(lam * em1 + w))
    log_em1 = math.log(abs(em1))
    log_mu = math.log(mu) if mu > 0.0 else -math.inf
    return (
        log_mu + log_em1 - log_den,
        math.log(lam) + log_em1 - log_den,
        math.log(abs(w)) + w * tau - log_den,
        math.log(abs(w)) - log_den,
    )


def log_pmf(k: int, a: int, law: tuple[float, float, float, float]) -> float:
    """log P(Z = k | a ancestors) from the binomial-geometric sum over the
    number j of ancestor lines that die out."""
    la, lb, l1a, l1b = law
    if a == 0:
        return 0.0 if k == 0 else -math.inf
    if k == 0:
        return a * la
    j = np.arange(max(0, a - k), a, dtype=float)
    e = k - a + j  # births beyond the first descendant of each line
    terms = (
        gammaln(a + 1) - gammaln(j + 1) - gammaln(a - j + 1)
        + gammaln(k) - gammaln(a - j) - gammaln(e + 1)
        + (a - j) * (l1a + l1b)
    )
    # 0 * log 0 is 1 here: j = 0 lines died, or no extra births
    terms = terms + np.where(j > 0, j * la, 0.0) + np.where(e > 0, e * lb, 0.0)
    return float(logsumexp(terms))


def exact_loglik(panel, lam: float, mu: float) -> float:
    """Sum of log transition probabilities over every consecutive pair."""
    laws: dict[float, tuple] = {}
    total = 0.0
    for tr in panel:
        for i in range(1, len(tr.counts)):
            a = tr.counts[i - 1]
            if a == 0:
                continue
            tau = tr.times[i] - tr.times[i - 1]
            if tau not in laws:
                laws[tau] = _log_law(tau, lam, mu)
            total += log_pmf(tr.counts[i], a, laws[tau])
    return total


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def check_fit(panel, result, own_loglik) -> None:
    """Gate one fit.

    own_loglik(panel, rates) re-evaluates the method's own objective; it
    is None for gw and qg. Every estimate must be finite; an mle fit
    must match the reference likelihood and be a local maximum of it.
    """
    lam, mu = result.rates.lam, result.rates.mu
    if not all(map(math.isfinite, (lam, mu, result.omega_hat))):
        raise GateError(f"{result.method}: non-finite estimate ({lam}, {mu})")
    if result.method == "gw":
        return
    ll = result.loglik
    if ll is None or not math.isfinite(ll):
        raise GateError(f"{result.method}: log-likelihood {ll} is not finite")
    if result.method == "mle":
        ref = exact_loglik(panel, lam, mu)
        if not _close(ref, ll, MLE_REL_TOL):
            raise GateError(f"mle: reported loglik {ll!r} != reference {ref!r}")
        for d0, d1 in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            probe = exact_loglik(
                panel, lam * math.exp(d0 * LOCAL_STEP), mu * math.exp(d1 * LOCAL_STEP)
            )
            if probe > ref + MLE_REL_TOL * max(1.0, abs(ref)):
                raise GateError(
                    f"mle: ({lam}, {mu}) is not a local maximum: a log-rate step "
                    f"({d0 * LOCAL_STEP}, {d1 * LOCAL_STEP}) raises {ref!r} to {probe!r}"
                )
        return
    if own_loglik is not None:
        again = own_loglik(panel, result.rates)
        rel = QG_REL_TOL if result.method == "qg" else OWN_REL_TOL
        if again is not None and not _close(again, ll, rel):
            raise GateError(
                f"{result.method}: reported loglik {ll!r} != objective at the "
                f"estimate {again!r}"
            )


def check_mc(n_used: int, n_failed: int, n_replicates: int, method: str) -> None:
    if n_used + n_failed != n_replicates:
        raise GateError(
            f"{method}: n_used {n_used} + n_failed {n_failed} != {n_replicates} replicates"
        )


def check_mean_omega(estimates: list[float], omega: float, method: str) -> None:
    """The mean of the Monte Carlo omega estimates lies within 4 standard
    errors of the true omega. The standard error is estimated from the
    replicates, so the bound is the Student-t quantile with the two-sided
    tail of 4 normal standard errors (6.3e-5): 4 for many replicates,
    wider for few."""
    n = len(estimates)
    if n < 2:
        raise GateError(f"{method}: {n} Monte Carlo estimates, need at least 2")
    v = np.asarray(estimates, dtype=float)
    if not np.all(np.isfinite(v)):
        raise GateError(f"{method}: non-finite Monte Carlo estimate")
    se = float(np.std(v, ddof=1)) / math.sqrt(n)
    mean = float(np.mean(v))
    bound = float(student_t.isf(norm.sf(4.0), n - 1))
    if abs(mean - omega) > bound * se:
        raise GateError(
            f"{method}: mean omega-hat {mean} is {abs(mean - omega) / se:.2f} "
            f"standard errors from the true {omega} over {n} replicates "
            f"(bound {bound:.2f})"
        )
