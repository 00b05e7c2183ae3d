import math
import random

import legacy_kernels as legacy
import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import mean, mp_alpha_beta, pgf, pgf_geom, variance

from bdrates.errors import CapError, DomainError
from bdrates.exact import (
    alpha_beta,
    exact_loglik,
    geom_params,
    log_transition_prob,
    truncation_limit,
)
from bdrates.types import Panel, Rates, Trajectory

# Frozen against tests/oracles.py (mpmath at 60 digits):
# (k, t, a, lam, mu, log pmf)
ORACLE_LOG_PMF = [
    (2, 0.3, 1, 1.2, 0.8, -1.8127111866411082),
    (7, 1.0, 3, 7.0, 5.0, -4.1076072335381508),
    (40, 1.0, 10, 7.0, 5.0, -4.7703254316184019),
    (120, 1.0, 20, 7.0, 5.0, -5.184897410122921),
    (3, 0.5, 4, 2.0, 2.0, -1.8562979903656262),
    (5, 2.0, 8, 0.0, 3.0, -25.982093797371729),
    (9, 0.7, 2, 3.0, 0.0, -3.0349591515562603),
    (1, 1.0, 20, 7.0, 5.0, -8.5306527509489099),
]


def test_alpha_beta_critical_closed_form():
    # lam = mu = 2, t = 0.5: alpha = beta = lam*t/(1+lam*t) = 0.5
    a, b = alpha_beta(0.5, Rates(2.0, 2.0))
    assert a == pytest.approx(0.5, abs=1e-15)
    assert b == pytest.approx(0.5, abs=1e-15)


def _near_critical_laws():
    """(t, lam, mu) with 0 < |omega|/xi <= 1e-6 and xi*t from 1e-3 to
    1e5, both log-uniform, omega of either sign."""
    rng = random.Random(41)
    out = []
    for _ in range(40):
        rel = 10.0 ** rng.uniform(-15.0, -6.0) * rng.choice((1.0, -1.0))
        lam = 10.0 ** rng.uniform(-1.0, 2.0)
        mu = lam * (1.0 - rel) / (1.0 + rel)  # omega/xi = rel, to rounding
        out.append((10.0 ** rng.uniform(-3.0, 5.0) / (lam + mu), lam, mu))
    return out


@pytest.mark.parametrize("t, lam, mu", _near_critical_laws())
def test_geom_params_logs_match_oracle_near_criticality(t, lam, mu):
    # the generic formulas hold right up to omega == 0; the lam == mu
    # limit would be off by about |omega|*t/2 in log(1-alpha) here
    r = Rates(lam, mu)
    assert r.omega != 0.0
    g = geom_params(t, r)
    alpha, beta = mp_alpha_beta(t, lam, mu)
    want = [mp.log(alpha), mp.log(beta), mp.log(1 - alpha), mp.log(1 - beta)]
    got = [g.log_alpha, g.log_beta, g.log1m_alpha, g.log1m_beta]
    for x, ref in zip(got, want):
        ref = float(ref)
        assert abs(x - ref) <= 1e-13 * max(1.0, abs(ref)), (x, ref)


def test_geom_params_underflowing_horizon_is_the_identity_law():
    # t > 0, but lam*t (omega == 0) or omega*t (generic branch) rounds to 0
    identity = geom_params(0.0, Rates(1.0, 1.0))
    assert geom_params(1e-300, Rates(1e-30, 1e-30)) == identity
    assert geom_params(1e-320, Rates(2e-10, 1e-10)) == identity


def test_alpha_beta_ratio_identity():
    a, b = alpha_beta(1.0, Rates(7.0, 5.0))
    assert b / a == pytest.approx(7.0 / 5.0, rel=1e-14)
    # frozen oracle values
    assert a == pytest.approx(0.68371063516051419, rel=1e-14)
    assert b == pytest.approx(0.95719488922471986, rel=1e-14)


def test_alpha_beta_rejects_negative_horizon():
    with pytest.raises(DomainError):
        alpha_beta(-0.1, Rates(1.0, 1.0))


def test_pgf_at_one_and_zero():
    r = Rates(7.0, 5.0)
    assert pgf(1.0, 3.7, r) == pytest.approx(1.0, rel=1e-12)
    a, _ = alpha_beta(1.0, r)
    assert pgf(0.0, 1.0, r) == pytest.approx(a, rel=1e-14)
    assert pgf(0.0, 1.0, r, a=4) == pytest.approx(a**4, rel=1e-13)


def test_pgf_rejects_outside_radius():
    r = Rates(7.0, 5.0)
    radius = 1.0 / alpha_beta(1.0, r)[1]
    with pytest.raises(DomainError):
        pgf(radius * 1.01, 1.0, r)


def test_pgf_derivs_match_oracle_difference():
    # h balances truncation O(h^2) against the eps/h^2 rounding floor of
    # the second central difference
    r = Rates(1.2, 0.8)
    s, t, h = 0.9, 0.7, 1e-4
    f, f1, f2 = pgf_geom(s, geom_params(t, r))
    assert f == pytest.approx(pgf(s, t, r), rel=1e-14)
    fd1 = (pgf(s + h, t, r) - pgf(s - h, t, r)) / (2 * h)
    fd2 = (pgf(s + h, t, r) - 2 * f + pgf(s - h, t, r)) / (h * h)
    assert f1 == pytest.approx(fd1, rel=1e-7)
    assert f2 == pytest.approx(fd2, rel=1e-5)


@pytest.mark.parametrize("k,t,a,lam,mu,expected", ORACLE_LOG_PMF)
def test_log_pmf_matches_high_precision_oracle(k, t, a, lam, mu, expected):
    got = log_transition_prob(k, t, a, Rates(lam, mu))
    assert got == pytest.approx(expected, rel=1e-10)


def test_log_pmf_k0_is_a_log_alpha():
    r = Rates(2.3, 1.1)
    g = geom_params(0.8, r)
    for a in (1, 3, 17):
        assert log_transition_prob(0, 0.8, a, r) == pytest.approx(
            a * g.log_alpha, rel=1e-15
        )


def test_log_pmf_single_ancestor_closed_form():
    # a=1, k=2: (1-alpha)(1-beta)*beta
    r = Rates(1.2, 0.8)
    a, b = alpha_beta(0.3, r)
    expected = math.log((1 - a) * (1 - b) * b)
    assert log_transition_prob(2, 0.3, 1, r) == pytest.approx(expected, rel=1e-13)


def test_log_pmf_impossible_transitions():
    # pure death can only lose individuals; pure birth can only gain
    assert log_transition_prob(9, 1.0, 8, Rates(0.0, 3.0)) == -math.inf
    assert log_transition_prob(1, 0.7, 2, Rates(3.0, 0.0)) == -math.inf
    # from an empty population, only 0 is reachable
    assert log_transition_prob(0, 1.0, 0, Rates(1.0, 1.0)) == 0.0
    assert log_transition_prob(3, 1.0, 0, Rates(1.0, 1.0)) == -math.inf


def test_pmf_normalizes_tightly():
    r = Rates(7.0, 5.0)
    kmax = truncation_limit(1.0, 3, r)
    total = sum(math.exp(log_transition_prob(k, 1.0, 3, r)) for k in range(kmax + 1))
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize(
    "t,a,lam,mu",
    [
        (1.0, 20, 7.0, 5.0),
        (0.5, 4, 2.0, 2.0),
        (2.0, 8, 0.0, 3.0),
        (0.7, 2, 3.0, 0.0),
        (3.0, 5, 7.0, 5.0),
        (1.0, 1, 2.0, 2.0 + 1e-12),
    ],
)
def test_pmf_normalizes_across_grid(t, a, lam, mu):
    r = Rates(lam, mu)
    kmax = truncation_limit(t, a, r)
    total = sum(math.exp(log_transition_prob(k, t, a, r)) for k in range(kmax + 1))
    assert abs(total - 1.0) < 1e-8


def test_mean_and_variance_closed_forms():
    r = Rates(7.0, 5.0)
    assert mean(0.0, 9, r) == 9.0
    assert mean(1.0, 10, r) == pytest.approx(10 * math.e**2, rel=1e-15)
    assert variance(0.0, 9, r) == 0.0
    w = 2.0
    expected = 10 * (12.0 / 2.0) * math.exp(w) * math.expm1(w)
    assert variance(1.0, 10, r) == pytest.approx(expected, rel=1e-14)


def test_variance_critical_branch_and_continuity():
    rc = Rates(2.0, 2.0)
    assert variance(0.5, 4, rc) == pytest.approx(4 * 4.0 * 0.5, rel=1e-15)
    near = Rates(2.0, 2.0 + 1e-9)
    assert variance(0.5, 4, near) == pytest.approx(variance(0.5, 4, rc), rel=1e-6)
    # the pmf is continuous through omega == 0, where its limit takes over
    lc = log_transition_prob(3, 0.5, 4, rc)
    ln = log_transition_prob(3, 0.5, 4, near)
    assert ln == pytest.approx(lc, rel=1e-7)


def test_long_horizon_supercritical_no_overflow():
    # e^{omega t} alone would overflow here; the stable forms must not
    r = Rates(7.0, 5.0)
    a, b = alpha_beta(400.0, r)
    assert a == pytest.approx(5.0 / 7.0, rel=1e-12)
    assert b == pytest.approx(1.0, rel=1e-12)
    assert math.isfinite(log_transition_prob(1, 400.0, 1, r))


def test_exact_loglik_additivity_and_absorption():
    r = Rates(1.8, 1.2)
    tr = Trajectory((0.0, 0.5, 1.0, 2.0), (3, 5, 0, 0))
    panel = Panel((tr,))
    manual = (
        log_transition_prob(5, 0.5, 3, r)
        + log_transition_prob(0, 0.5, 5, r)
        # 0 -> 0 transition contributes nothing
    )
    assert exact_loglik(panel, r) == pytest.approx(manual, rel=1e-14)


def test_exact_loglik_impossible_path():
    r = Rates(0.0, 3.0)  # pure death cannot grow
    panel = Panel((Trajectory((0.0, 1.0), (2, 5)),))
    assert exact_loglik(panel, r) == -math.inf


rates_st = st.tuples(
    st.floats(0.1, 8.0), st.floats(0.1, 8.0)
).map(lambda p: Rates(*p))


@settings(max_examples=40, deadline=None)
@given(
    r=rates_st,
    t=st.floats(0.05, 2.0),
    a=st.integers(1, 12),
)
def test_property_pmf_normalizes(r, t, a):
    try:
        kmax = truncation_limit(t, a, r)
    except CapError:
        # support too spread out to enumerate; the refusal is loud, and
        # whenever a limit IS returned the mass promise must hold
        assume(False)
    logs = [log_transition_prob(k, t, a, r) for k in range(kmax + 1)]
    m = max(logs)
    total = math.exp(m) * sum(math.exp(v - m) for v in logs)
    assert abs(total - 1.0) < 1e-8


def test_truncation_cap_refusal_is_loud():
    # beta within 2e-5 of 1: the support needed exceeds the state cap
    r = Rates(5.7200291784137365, 0.1)
    with pytest.raises(CapError, match="too spread out"):
        truncation_limit(1.9, 3, r)


@settings(max_examples=40, deadline=None)
@given(
    r=rates_st,
    t=st.floats(0.05, 2.0),
    a=st.integers(1, 12),
    k=st.integers(0, 60),
)
def test_property_log_pmf_is_log_of_probability(r, t, a, k):
    v = log_transition_prob(k, t, a, r)
    assert v <= 1e-12
    assert not math.isnan(v)


def test_exact_loglik_matches_float_gap_walk():
    # one law per merged gap instead of one per float key
    times = (0.0,) + tuple(0.1 * (j + 1) for j in range(12))
    panel = Panel(
        (
            Trajectory(times, (10, 9, 13, 21, 20, 17, 24, 31, 30, 51, 60, 84, 128)),
            Trajectory(times, (4, 3, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
            Trajectory((0.0, 0.188, 0.3, 0.357, 0.595), (8, 5, 3, 4, 13)),
        )
    )
    rng = random.Random(9)
    for _ in range(20):
        r = Rates(rng.uniform(0.5, 12.0), rng.uniform(0.5, 12.0))
        ref = legacy.exact_loglik(panel, r)
        assert abs(exact_loglik(panel, r) - ref) <= 1e-12 * abs(ref)
