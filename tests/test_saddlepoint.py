import math
import warnings

import legacy_kernels as legacy
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mp_log_spa_pmf
from scipy.optimize import brentq

from bdrates.errors import BdError, DomainError, SolverError
from bdrates.exact import (
    _log_pmf,
    convergence_radius as radius,
    exact_loglik,
    geom_params,
    log_transition_prob,
    mean,
    truncation_limit,
    variance,
)
from bdrates.saddlepoint import (
    _exact_log,
    _lanes,
    _log_spa,
    cgf_eval,
    high_mass_region,
    solve_saddlepoint,
    spa_loglik,
    spa_pmf,
    spa_pmf_conditional,
    spa_pmf_normalized,
)
from bdrates.simulate import SimConfig, simulate_panel
from bdrates.types import Panel, Rates, Trajectory

R75 = Rates(7.0, 5.0)

# Frozen against tests/oracles.py (mpmath at 60 digits):
# (x, t, a, lam, mu, K, K', K'')
ORACLE_CGF = [
    (0.03, 1.0, 10, 7.0, 5.0, 5.3383327061468875, 438.76961294553951, 44578.229463650518),
    (-0.5, 0.5, 4, 2.0, 2.0, -1.3271862630047449, 1.7410663935743354, 2.4988944402828211),
]


@pytest.mark.parametrize("x,t,a,lam,mu,K,K1,K2", ORACLE_CGF)
def test_cgf_matches_high_precision_oracle(x, t, a, lam, mu, K, K1, K2):
    pt = cgf_eval(x, t, a, Rates(lam, mu))
    assert pt.value == pytest.approx(K, rel=1e-12)
    assert pt.d1 == pytest.approx(K1, rel=1e-9)
    assert pt.d2 == pytest.approx(K2, rel=1e-9)


def test_cgf_identities_at_zero():
    for r, t, a in [(R75, 1.0, 10), (Rates(2.0, 2.0), 0.5, 4), (Rates(0.5, 2.0), 1.2, 7)]:
        pt = cgf_eval(0.0, t, a, r)
        assert pt.value == pytest.approx(0.0, abs=1e-12)
        assert pt.d1 == pytest.approx(mean(t, a, r), rel=1e-12)
        assert pt.d2 == pytest.approx(variance(t, a, r), rel=1e-10)


def test_cgf_rejects_outside_domain():
    lr = math.log(radius(1.0, R75))
    with pytest.raises(DomainError):
        cgf_eval(lr + 0.01, 1.0, 10, R75)


def test_saddlepoint_critical_mean_case():
    # lam = mu means m(t) = 1, so k = a sits exactly at the mean: s~ = 1
    sol = solve_saddlepoint(4, 0.5, 4, Rates(2.0, 2.0))
    assert sol.s_tilde == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.residual) <= 1e-10 * 4


def test_saddlepoint_noncritical_mean_case():
    # rates chosen so exp(omega*t) = 2 up to float rounding: k = 2a is the mean
    r = Rates(5.0 + math.log(2.0), 5.0)
    sol = solve_saddlepoint(20, 1.0, 10, r)
    assert sol.s_tilde == pytest.approx(1.0, abs=1e-9)


def test_saddlepoint_residual_grid():
    for a in (1, 5, 20):
        for k in (1, 2, 5, 17, 40, 100, 400):
            sol = solve_saddlepoint(k, 1.0, a, R75)
            assert abs(sol.residual) <= 1e-10 * max(1, k)


def test_saddlepoint_agrees_with_bisection():
    # independent root find of K'(x) = k over (0, R)
    k, a, t = 40, 10, 1.0
    sol = solve_saddlepoint(k, t, a, R75)
    lr = math.log(radius(t, R75))

    def fun(x):
        return cgf_eval(x, t, a, R75).d1 - k

    root = brentq(fun, -30.0, lr * (1 - 1e-10), xtol=1e-15, rtol=8.9e-16)
    assert sol.x_tilde == pytest.approx(root, rel=1e-10, abs=1e-12)
    assert abs(sol.residual) <= 1e-10 * k


def test_saddlepoint_monotone_in_k():
    xs = [solve_saddlepoint(k, 1.0, 10, R75).x_tilde for k in range(1, 220, 7)]
    assert all(b > a for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize(
    "call,args,message",
    [
        (solve_saddlepoint, (0, 1.0, 5), "target count"),
        (solve_saddlepoint, (3, 1.0, 0), "ancestor count a"),
        (solve_saddlepoint, (3, 0.0, 2), "horizon t"),
        (spa_pmf, (-1, 1.0, 2), "target count k"),
        (spa_pmf, (3, 1.0, 0), "ancestor count a"),
        (spa_pmf, (3, 0.0, 2), "horizon t"),
        (spa_pmf_conditional, (3, math.inf, 2), "horizon t"),
        (spa_pmf_conditional, (3, math.nan, 2), "horizon t"),
        (spa_pmf_normalized, (-1, 1.0, 2), "target count k"),
        (spa_pmf_normalized, (0, 1.0, -1), "ancestor count a"),
        (high_mass_region, (1.0, 0), "ancestor count a"),
        (high_mass_region, (1.0, -2), "ancestor count a"),
        (high_mass_region, (-1.0, 3), "horizon t"),
    ],
)
def test_saddlepoint_rejects_bad_targets(call, args, message):
    # the error names the argument at fault, and no warning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            call(*args, rates=R75)


def test_spa_pmf_k0_is_exact_passthrough():
    g = geom_params(1.0, R75)
    for a in (1, 5, 20):
        assert spa_pmf(0, 1.0, a, R75) == pytest.approx(
            math.exp(a * g.log_alpha), rel=1e-15
        )
        assert spa_pmf_normalized(0, 1.0, a, R75) == spa_pmf(0, 1.0, a, R75)
        assert spa_pmf_conditional(0, 1.0, a, R75) == spa_pmf(0, 1.0, a, R75)


def _exact_pmf_row(t, a, r, kmax):
    g = geom_params(t, r)
    return np.array([math.exp(log_transition_prob(k, t, a, r)) for k in range(1, kmax + 1)])


def test_spa_error_shrinks_with_ancestors():
    # max relative error over the central-mass window, a = 5 vs a = 20
    errs = {}
    for a in (5, 20):
        k_lo, k_hi = high_mass_region(1.0, a, R75)
        ks = range(k_lo, k_hi + 1)
        p = [math.exp(log_transition_prob(k, 1.0, a, R75)) for k in ks]
        ptil = [spa_pmf(k, 1.0, a, R75) for k in ks]
        errs[a] = max(abs(q / e - 1.0) for q, e in zip(ptil, p))
    assert errs[20] < errs[5]
    assert errs[20] <= 0.04


def test_high_mass_region_is_central():
    k_lo, k_hi = high_mass_region(1.0, 20, R75)
    m = mean(1.0, 20, R75)
    assert 1 < k_lo < m < k_hi
    with pytest.raises(DomainError):
        high_mass_region(1.0, 20, R75, lo=0.9, hi=0.1)


def test_spa_normalized_sums_to_one():
    a, t = 10, 1.0
    kmax = truncation_limit(t, a, R75)
    total = spa_pmf_normalized(0, t, a, R75) + sum(
        spa_pmf_normalized(k, t, a, R75) for k in range(1, kmax + 1)
    )
    assert abs(total - 1.0) < 1e-8


def test_spa_normalized_beats_plain_in_sup_norm():
    a, t = 10, 1.0
    kmax = truncation_limit(t, a, R75)
    p = _exact_pmf_row(t, a, R75, kmax)
    plain = np.array([spa_pmf(k, t, a, R75) for k in range(1, kmax + 1)])
    norm = np.array([spa_pmf_normalized(k, t, a, R75) for k in range(1, kmax + 1)])
    assert np.max(np.abs(norm - p)) < np.max(np.abs(plain - p))


def test_spa_conditional_small_k_artifact_reduction():
    # near the support boundary the conditional variant must do strictly better
    a, t = 10, 1.0
    ks = range(1, 6)
    p = [math.exp(log_transition_prob(k, t, a, R75)) for k in ks]
    plain = [abs(spa_pmf(k, t, a, R75) - q) for k, q in zip(ks, p)]
    cond = [abs(spa_pmf_conditional(k, t, a, R75) - q) for k, q in zip(ks, p)]
    assert max(cond) < max(plain)


def test_spa_conditional_agrees_with_plain_for_large_a():
    for k in (300, 370, 450):
        pl = spa_pmf(k, 1.0, 50, R75)
        co = spa_pmf_conditional(k, 1.0, 50, R75)
        assert co == pytest.approx(pl, rel=1e-3)


def test_spa_conditional_k1_is_exact_boundary_value():
    # k=1 is the conditional support minimum: no finite saddlepoint exists,
    # the exact single-term value is used
    for a in (2, 10, 25):
        assert spa_pmf_conditional(1, 1.0, a, R75) == pytest.approx(
            math.exp(log_transition_prob(1, 1.0, a, R75)), rel=1e-15
        )


def test_spa_conditional_renormalizes_cleanly():
    a, t = 10, 1.0
    kmax = truncation_limit(t, a, R75)
    vals = np.array([spa_pmf_conditional(k, t, a, R75) for k in range(1, kmax + 1)])
    assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
    q = vals / vals.sum()
    assert abs(q.sum() - 1.0) < 1e-6


def test_spa_loglik_additivity():
    # lanes into 5, 2, 0 and 1; the variants score the lanes into 1
    # differently (plain: saddlepoint, conditional: exact)
    r = Rates(1.8, 1.2)
    panel = Panel(
        (
            Trajectory((0.0, 0.5, 1.0, 2.0), (3, 5, 2, 0)),
            Trajectory((0.0, 0.5, 1.0), (4, 1, 1)),
        )
    )
    lanes = [(5, 0.5, 3), (2, 0.5, 5), (0, 1.0, 2), (1, 0.5, 4), (1, 0.5, 1)]
    for variant, pmf in (("plain", spa_pmf), ("conditional", spa_pmf_conditional)):
        manual = sum(math.log(pmf(k, t, a, r)) for k, t, a in lanes)
        assert spa_loglik(panel, r, variant) == pytest.approx(manual, rel=1e-12)


def test_spa_loglik_high_count_panel_is_sharp():
    r = Rates(1.8, 1.2)
    panel = Panel(
        (
            Trajectory((0.0, 0.5, 1.0, 1.5), (60, 75, 90, 110)),
            Trajectory((0.0, 0.5, 1.0), (55, 50, 71)),
        )
    )
    le = exact_loglik(panel, r)
    ls = spa_loglik(panel, r)
    assert abs(ls - le) / abs(le) < 1e-3


def test_spa_loglik_error_scales_inversely_with_counts():
    # |exact - spa| ~ C / (min source count); C should be stable across scales
    r = Rates(1.8, 1.2)
    consts = []
    for scale in (1, 4, 16):
        tr = Trajectory(
            (0.0, 0.5, 1.0, 1.5), (5 * scale, 7 * scale, 6 * scale, 9 * scale)
        )
        panel = Panel((tr,))
        d = abs(exact_loglik(panel, r) - spa_loglik(panel, r))
        consts.append(d * 5 * scale)
    assert max(consts) / min(consts) < 1.5


def test_spa_loglik_rejects_unknown_variant():
    panel = Panel((Trajectory((0.0, 1.0), (3, 4)),))
    with pytest.raises(DomainError):
        spa_loglik(panel, R75, variant="renormalized")


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.2, 6.0),
    mu=st.floats(0.2, 6.0),
    t=st.floats(0.1, 1.5),
    a=st.integers(1, 15),
    k=st.integers(1, 120),
)
def test_property_residual_invariant(lam, mu, t, a, k):
    sol = solve_saddlepoint(k, t, a, Rates(lam, mu))
    assert abs(sol.residual) <= 1e-10 * max(1, k)
    assert sol.cgf.d2 > 0.0


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.2, 6.0),
    mu=st.floats(0.2, 6.0),
    t=st.floats(0.1, 1.5),
    a=st.integers(1, 10),
    k=st.integers(1, 60),
)
def test_property_spa_positive_and_finite(lam, mu, t, a, k):
    v = spa_pmf(k, t, a, Rates(lam, mu))
    assert math.isfinite(v) and v >= 0.0


# ---------------------------------------------------------------------------
# one-sweep conditional kernel and panel walk against the replaced code


def _mixed_lanes(rng, rates, t, n):
    """n (k, a) lanes with repeated and distinct ancestor counts, k >= 2
    drawn within about two standard deviations of the mean."""
    a = np.concatenate(
        [rng.choice([1, 2, 3, 7, 40], size=n // 2), rng.integers(1, 400, size=n - n // 2)]
    ).astype(float)
    m = np.exp(rates.omega * t)
    sd = np.sqrt(np.array([variance(t, int(ai), rates) for ai in a]))
    k = np.round(a * m + 2.0 * sd * rng.uniform(-1.0, 1.0, size=n))
    return np.maximum(k, 2.0), a


@pytest.mark.parametrize(
    "lam,mu,t",
    [(7.0, 5.0, 0.1), (7.0, 5.0, 0.2), (2.0, 6.0, 0.7), (4.0, 4.0, 0.3), (9.0, 0.5, 1.0)],
)
def test_conditional_one_sweep_matches_per_count_loop(lam, mu, t):
    rates = Rates(lam, mu)
    rng = np.random.default_rng(11)
    g = geom_params(t, rates)
    for _ in range(5):
        k, a = _mixed_lanes(rng, rates, t, 80)
        got = _log_spa(k, a, g, t, rates, True)
        ref = legacy.log_spa_conditional(k, a, g, t, rates)
        assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "t,rates",
    [(1.0, R75), (0.2, Rates(2.0, 6.0)), (0.5, Rates(4.0, 4.0)), (1e-12, R75), (0.5, Rates(3.0, 0.0))],
)
def test_log_pmf_one_closed_form(t, rates):
    # the conditional variant scores k = 1 exactly, from _lanes'
    # coefficients; t = 1e-12 drives alpha toward 0; mu = 0 makes it
    # exactly 0, where only a = 1 can reach k = 1
    g = geom_params(t, rates)
    for a in range(1, 201):
        coefs, k, _ = _lanes([1], [a], True)
        assert k.size == 0
        v = _exact_log(coefs, g)
        ref = _log_pmf(1, a, g)
        if ref == -math.inf:
            assert v == -math.inf
        else:
            assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref))


def _walk_panels():
    cells = [
        (R75, 10, 0.1, 20, 4),  # pooled growth on a float grid
        (R75, 1, 0.2, 14, 1),  # single trajectory, small counts
        (Rates(3.0, 4.0), 6, 0.25, 12, 3),  # subcritical, with extinctions
    ]
    panels = []
    for i, (r, z0, dt, n, m) in enumerate(cells):
        cfg = SimConfig(r, z0, tuple(dt * (j + 1) for j in range(n)), seed=100 + i)
        panels.append(simulate_panel(cfg, m))
    panels.append(
        Panel(
            (
                Trajectory((0.0, 0.188, 0.3, 0.357, 0.595, 0.767, 0.944), (8, 5, 3, 4, 13, 33, 69)),
                Trajectory((0.0, 0.112, 0.3, 0.5, 0.7), (3, 1, 1, 2, 1)),
            )
        )
    )
    return panels


@pytest.mark.parametrize("variant", ["plain", "conditional"])
def test_spa_loglik_matches_float_gap_walk(variant):
    rng = np.random.default_rng(3)
    for panel in _walk_panels():
        for _ in range(8):
            r = Rates(*rng.uniform(0.5, 12.0, size=2))
            try:
                ref = legacy.spa_loglik(panel, r, variant)
            except (DomainError, SolverError) as exc:
                with pytest.raises(type(exc)):
                    spa_loglik(panel, r, variant)
                continue
            got = spa_loglik(panel, r, variant)
            assert abs(got - ref) <= 1e-12 * abs(ref)


def _one_step(a, k, t):
    return Panel((Trajectory((0.0, t), (a, k)),))


# (a, k, lambda, mu, t) of one-transition panels on which the old
# Newton-then-brentq solvers warned (division by zero or log of a negative
# number in the CGF terms, overflow in the quadratic's discriminant) or
# raised scipy's bare ValueError; on the last one beta rounds close to 1
# and 1 - beta*s went negative below the old log radius -log(beta)
EDGE_INPUTS = [
    (3, 2, 0.015039993583716273, 30.75876642857539, 4.045870995154412),
    (17, 14, 0.21429584545820518, 10.941623175892738, 4.896397190495787),
    (6, 2, 0.002033275760620081, 18.709812242521387, 2.5805538923985925),
    (136, 10**7, 22.50430748026842, 0.3795964918679304, 8.281344035246526),
    (4, 2, 0.00047968440257367326, 12.210102965056127, 8.279897916191494),
    (1, 10**7, 27.39343349121747, 0.28066276162833503, 2.9658718534433155),
    (16, 6416867, 25.64980151993033, 1.3032964568531082, 1.2176110711011734),
    # probes of a Newton fit: the quadratic's coefficients overflow, and
    # (beta rounding to 1) K' and K'' overflow near the radius
    (50, 3, 328.7384990863487, 60.089802085189156, 1.3034828466184352),
    (50, 3, 1470.9570132556241, 1214.380994645912, 1.3034828466184352),
]


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("a,k,lam,mu,t", EDGE_INPUTS)
def test_edge_inputs_give_a_float_or_typed_error(a, k, lam, mu, t, variant):
    try:
        val = spa_loglik(_one_step(a, k, t), Rates(lam, mu), variant)
    except BdError:
        return
    assert isinstance(val, float) and (math.isfinite(val) or val == -math.inf)


@pytest.mark.parametrize(
    "a,k,lam,mu,t,ref",
    [
        (17, 14, 0.21429584545820518, 10.941623175892738, 4.896397190495787, -69.75603302031905),
        (6, 2, 0.002033275760620081, 18.709812242521387, 2.5805538923985925, -29.379116750276346),
    ],
)
def test_plain_loglik_where_one_ulp_exceeds_the_tolerance(a, k, lam, mu, t, ref):
    # K'' is about 1e12 at these roots, so one ulp of x moves K' by more
    # than the residual tolerance; the solve stops on its bracket width and
    # the value agrees with the old bisection fallback's to 1e-5
    val = spa_loglik(_one_step(a, k, t), Rates(lam, mu), "plain")
    assert abs(val - ref) <= 1e-5 * abs(ref)


@pytest.mark.parametrize("a,k,lam,mu,t", EDGE_INPUTS[1:3])
def test_conditional_solve_crosses_where_m_minus_p0_rounds_to_zero(a, k, lam, mu, t):
    # Newton steps from the plain root land where M(x) - p0 rounds to 0;
    # those probes count as below the root, and the solve still ends near
    # the exact log pmf
    rates = Rates(lam, mu)
    val = spa_loglik(_one_step(a, k, t), rates, "conditional")
    ref = log_transition_prob(k, t, a, rates)
    assert abs(val - ref) <= 5e-3 * abs(ref)


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("a,k,lam,mu,t", [EDGE_INPUTS[0], EDGE_INPUTS[4]])
def test_root_inside_the_guard_band_raises_solver_error(a, k, lam, mu, t, variant):
    # alpha rounds to 1, so K'(x_hi) is ~1e-17 or less, far below k = 2
    with pytest.raises(SolverError, match="guard band"):
        spa_loglik(_one_step(a, k, t), Rates(lam, mu), variant)


@settings(max_examples=300, deadline=None)
@given(
    log_lam=st.floats(math.log(1e-8), math.log(30.0)),
    log_mu=st.floats(math.log(1e-8), math.log(30.0)),
    gap=st.floats(1e-3, 5.0),
    a=st.integers(1, 1000),
    k=st.integers(0, 10**7),
    variant=st.sampled_from(["plain", "conditional"]),
)
def test_one_transition_loglik_is_a_float_or_typed_error(log_lam, log_mu, gap, a, k, variant):
    # pytest turns any RuntimeWarning into a failure here as well
    rates = Rates(math.exp(log_lam), math.exp(log_mu))
    try:
        val = spa_loglik(_one_step(a, k, gap), rates, variant)
    except BdError:
        return
    assert isinstance(val, float) and (math.isfinite(val) or val == -math.inf)


# beta rounds to 1.0 here, so both roots of the saddle quadratic round onto
# 1/beta and fail its range check although K' crosses k in (-1, 0)
BETA_ONE = (38, 13.34, 0.00131, 3.87)


def test_plain_solve_runs_where_both_quadratic_roots_round_onto_the_radius():
    a, lam, mu, t = BETA_ONE
    val = spa_loglik(_one_step(a, 1, t), Rates(lam, mu), "plain")
    ref = float(mp_log_spa_pmf(1, t, a, lam, mu, -1, 0))
    assert abs(val - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("k", [1, 2, 30])
def test_conditional_solve_runs_where_both_quadratic_roots_round_onto_the_radius(k):
    # k = 1 is scored exactly; k >= 2 seeds from the plain solve
    a, lam, mu, t = BETA_ONE
    rates = Rates(lam, mu)
    val = spa_loglik(_one_step(a, k, t), rates, "conditional")
    ref = log_transition_prob(k, t, a, rates)
    assert abs(val - ref) <= 5e-3 * abs(ref)
