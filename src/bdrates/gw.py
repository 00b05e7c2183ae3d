"""Moment estimators built on the process embedded at equal time steps.

With a common inter-observation gap dt, the observed counts form a
branching process in discrete generations whose offspring mean and
variance are m = exp(omega*dt) and the horizon-dt variance of a single
ancestor. Pooled ratio estimators of (m, sigma2) invert in closed form to
the birth and death rates:

    lam = log(m)/(2 dt) * (sigma2/(m(m-1)) + 1)
    mu  = log(m)/(2 dt) * (sigma2/(m(m-1)) - 1)

for every m != 1, however close to 1 (log(m) and m - 1 are both
accurate to rounding there, so their quotient is too), and lam = mu =
sigma2/(2 dt) at m == 1 exactly. The growth rate estimate
log(m_hat)/dt depends on m_hat alone and converges at the
faster sqrt(sum of source counts) rate, while (lam_hat, mu_hat) are
sqrt(n)-normal with a rank-1 covariance: their standard errors coincide.

The moments depend on the panel alone: they are formed from its step
table on first use and kept there (Transitions.gw_moments), so the
moment fit and the start of every likelihood search share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .types import Panel, Rates, Transitions

__all__ = [
    "EPS_NEAR_CRITICAL",
    "GwMoments",
    "GwEstimate",
    "gw_moments",
    "gw_invert",
    "gw_estimate",
    "gw_standard_errors",
]

# m_hat at or below 1 + EPS_NEAR_CRITICAL flags the estimate's regime
# as near-critical: the supercritical limit theory behind the standard
# errors does not hold there. It does not change the estimate.
EPS_NEAR_CRITICAL = 1e-6

REGIME_OK = "supercritical_ok"
REGIME_NEAR_CRITICAL = "near_critical_warning"


@dataclass(frozen=True)
class GwMoments:
    """Pooled offspring mean and variance of the embedded process.

    n_terms counts the transitions with a positive source count: those
    are the generations that carry information (a 0 source forces a 0
    target, and the 0/0 := 1 convention makes such terms vanish), and it
    equals the per-trajectory stopping index summed over the panel.
    """

    m_hat: float
    sigma2_hat: float
    delta_t: float
    n_terms: int
    m_traj: int


@dataclass(frozen=True)
class GwEstimate:
    """Rates recovered from the embedded-process moments, with plug-in
    standard errors; se_lambda == se_mu always (rank-1 asymptotic
    covariance). regime flags panels whose m_hat is too close to 1 for
    the supercritical limit theory; clamped flags a negative rate that
    was pulled back to the boundary of the parameter space."""

    rates: Rates
    omega_hat: float
    se_lambda: float
    se_mu: float
    se_omega: float
    regime: str
    clamped: bool


def gw_moments(panel: Panel) -> GwMoments:
    """Pooled moment estimators over all trajectories and generations.

    m_hat is the ratio of summed targets to summed sources; sigma2_hat
    averages the squared standardized one-step fluctuations around m_hat.
    Requires equal spacing throughout the panel. The moments depend on
    the panel alone, so they are formed once and kept with its step
    table (Transitions.gw_moments).
    """
    return panel.transitions.gw_moments


def _moments(table: Transitions) -> GwMoments:
    # the step table's sums give m_hat in Python ints; sigma2_hat sums
    # the transitions' terms left to right in group order, panel order
    # within a group, with ** as Python's float power
    try:
        delta_t = table.common_gap()
    except DataError:
        raise DataError(
            "panel is not equally spaced; the embedded-process estimator "
            "does not apply (use the quasi-likelihood estimator instead)"
        ) from None
    src = np.concatenate([grp.src for grp in table.groups])
    dst = np.concatenate([grp.dst for grp in table.groups])
    m_hat = table.dst_total / table.src_total
    terms = src * np.float_power(dst / src - m_hat, 2.0)
    acc = float(terms.cumsum()[-1])
    return GwMoments(m_hat, acc / len(src), delta_t, len(src), table.n_traj)


def gw_invert(moments: GwMoments) -> Rates:
    """Closed-form inversion of (m_hat, sigma2_hat) to the rate pair.

    m_hat == 1 maps to the lam == mu limit; every other m_hat, however
    close to 1, takes the generic formula. A negative rate
    (possible in small samples when sigma2_hat is small) is clamped to
    the boundary in the way that preserves the growth-rate estimate:
    the clamped rate becomes 0 and the other |log(m_hat)|/delta_t.
    """
    rates, _ = _invert_flagged(moments)
    return rates


def _invert_flagged(moments: GwMoments) -> tuple[Rates, bool]:
    m, s2, dt = moments.m_hat, moments.sigma2_hat, moments.delta_t
    if m <= 0.0:
        raise DomainError(f"offspring mean estimate must be positive, got {m}")
    if m == 1.0:
        lam = s2 / (2.0 * dt)
        if lam <= 0.0:
            raise DomainError(
                "panel shows no one-step variation: both rates inverted to 0"
            )
        return Rates(lam, lam), False
    half_omega = math.log(m) / (2.0 * dt)
    ratio = s2 / (m * (m - 1.0))
    lam = half_omega * (ratio + 1.0)
    mu = half_omega * (ratio - 1.0)
    if mu < 0.0:
        return Rates(2.0 * half_omega, 0.0), True
    if lam < 0.0:
        return Rates(0.0, -2.0 * half_omega), True
    return Rates(lam, mu), False


def gw_standard_errors(moments: GwMoments, panel: Panel) -> tuple[float, float, float]:
    """Plug-in asymptotic standard errors (se_lambda, se_mu, se_omega).

    The rate pair has equal standard errors
    |log m| * sigma2 / sqrt(2 dt^2 m^2 (m-1)^2 n_terms); the growth rate
    uses the observed-information normalization sigma / (m dt sqrt(S))
    with S the summed source counts. Outside the supercritical regime
    the rate-pair formula degenerates (division by m-1) and the caller
    is expected to flag the regime; the values are still returned. A
    denominator that is 0 (m_hat == 1, or a gap so short that it
    underflows) gives an infinite standard error. A zero m_hat (every
    trajectory extinct after one step) raises DomainError, since the
    growth-rate normalization divides by it.
    """
    m, s2, dt = moments.m_hat, moments.sigma2_hat, moments.delta_t
    if m == 0.0:
        raise DomainError(
            "offspring mean estimate m_hat is 0 (every trajectory died out in "
            "its first step): the standard errors divide by it"
        )
    src_total = panel.transitions.src_total
    gap = abs(m - 1.0)
    rate_den = math.sqrt(2.0 * dt * dt * m * m * gap * gap * moments.n_terms)
    se_rate = abs(math.log(m)) * s2 / rate_den if rate_den > 0.0 and m > 0.0 else math.inf
    omega_den = m * dt * math.sqrt(src_total)
    se_omega = math.sqrt(s2) / omega_den if omega_den > 0.0 else math.inf
    return se_rate, se_rate, se_omega


def gw_estimate(panel: Panel) -> GwEstimate:
    """Full pipeline: pooled moments, closed-form inversion, plug-in
    standard errors, and the regime/clamp flags."""
    moments = gw_moments(panel)
    rates, clamped = _invert_flagged(moments)
    omega_hat = math.log(moments.m_hat) / moments.delta_t
    se_l, se_m, se_w = gw_standard_errors(moments, panel)
    regime = (
        REGIME_OK if moments.m_hat > 1.0 + EPS_NEAR_CRITICAL else REGIME_NEAR_CRITICAL
    )
    return GwEstimate(rates, omega_hat, se_l, se_m, se_w, regime, clamped)
