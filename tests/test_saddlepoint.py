import math
import warnings

import legacy_kernels as legacy
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    mp_alpha_beta,
    mp_cgf_prime,
    mp_cond_cgf_derivative,
    mp_cond_cgf_prime,
    mp_log_cond_spa_pmf,
    mp_log_spa_pmf,
)
from scipy.optimize import brentq

from bdrates import saddlepoint
from bdrates.errors import BdError, DomainError, SolverError
from bdrates.exact import (
    _log_pmf,
    alpha_beta,
    exact_loglik,
    geom_params,
    log_transition_prob,
    mean,
    truncation_limit,
    variance,
)
from bdrates.saddlepoint import (
    RESIDUAL_TOL,
    _cond_log_spa,
    _exact_log,
    _lanes,
    _log_radius,
    _log_spa,
    _solve_x,
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
    lr = -math.log(alpha_beta(1.0, R75)[1])
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
    lr = -math.log(alpha_beta(t, R75)[1])

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
        (cgf_eval, (0.0, 0.0, 1), "horizon t"),
        (cgf_eval, (0.0, 1.0, 0), "ancestor count a"),
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
    # the one-sweep solve starts elsewhere than the per-count loop (the
    # closed-form plain root, and the exact root on a = 1 lanes), so a lane
    # may stop at another point inside the residual tolerance; such a lane
    # must solve the saddle equation there to RESIDUAL_TOL at mpmath
    # precision
    rates = Rates(lam, mu)
    rng = np.random.default_rng(11)
    g = geom_params(t, rates)
    for _ in range(5):
        k, a = _mixed_lanes(rng, rates, t, 80)
        _, x, got = _cond_log_spa(k, a, g, t, rates)
        ref = legacy.log_spa_conditional(k, a, g, t, rates)
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
        for i in np.flatnonzero(got != ref):
            kc1 = mp_cond_cgf_derivative(x[i], t, a[i], lam, mu)
            assert abs(kc1 - k[i]) <= RESIDUAL_TOL * max(1.0, k[i])


@pytest.mark.parametrize(
    "lam,mu,t",
    [
        # growth, decline, near-critical (outside the band of the lam == mu
        # formulas) and critical
        *[
            (lam, mu, t)
            for lam, mu in [(7.0, 5.0), (2.0, 6.0), (4.0, 4.000004), (4.0, 4.0)]
            for t in (1e-3, 0.1, 1.0, 5.0)
        ],
        (66.56, 3.214, 1.998),  # beta rounds to 1
    ],
)
def test_conditional_seed_of_one_ancestor_is_its_root(monkeypatch, lam, mu, t):
    # given survival, one ancestor's count is geometric, Kc' = 1/(1 - beta
    # e^x) and Kc'' = Kc'(Kc' - 1): the conditional solve seeds a = 1 lanes
    # at the root in closed form, and the seed solves the saddle equation
    # at mpmath precision: to RESIDUAL_TOL, or to what the float error of
    # its input log R and two float spacings of x move Kc' (at k = 1e6 and
    # x near 5 one spacing moves it by 9e-10 k). The seed is the first s =
    # log u that the solve passes, and x = log(1 - u) + log R
    rates = Rates(lam, mu)
    g = geom_params(t, rates)
    k = np.array([2.0, 5.0, 40.0, 1e6])
    passes = _count_cond_passes(monkeypatch)
    saddlepoint._cond_solve(k, np.ones_like(k), g, t, rates)
    x = np.log(-np.expm1(passes[0])) + _log_radius(g)
    lr_err = abs(_log_radius(g) + mp.log(mp_alpha_beta(t, lam, mu)[1]))
    for xi, ki in zip(x, k):
        kc1 = mp_cond_cgf_derivative(xi, t, 1, lam, mu)
        moved = ki * (ki - 1.0) * (lr_err + 2.0 * np.spacing(abs(xi)))
        assert abs(kc1 - ki) <= max(RESIDUAL_TOL * ki, moved), (xi, ki, kc1)


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
            # the conditional solve starts elsewhere than the walk's
            # per-count loop, and stops within its residual tolerance
            assert abs(got - ref) <= (1e-11 if variant == "conditional" else 1e-12) * abs(ref)


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
    # probes of a Newton fit: the coefficients of the quadratic that used to
    # seed the solve overflow, and (beta rounding to 1) K' and K'' overflow
    # near the radius
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


@pytest.mark.parametrize("a,k,lam,mu,t", EDGE_INPUTS[:3] + EDGE_INPUTS[4:5])
def test_conditional_solve_crosses_where_m_minus_p0_rounds_to_zero(a, k, lam, mu, t):
    # alpha rounds to 1: formed as K - log p0, M(x) - p0 rounded to 0 where
    # Newton steps from the plain root landed, and those probes counted as
    # below the root, so two of these lanes ran into the guard band; the
    # solve must end near the exact log pmf
    rates = Rates(lam, mu)
    val = spa_loglik(_one_step(a, k, t), rates, "conditional")
    ref = log_transition_prob(k, t, a, rates)
    assert abs(val - ref) <= 5e-3 * abs(ref)


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("a,k,lam,mu,t", [EDGE_INPUTS[0], EDGE_INPUTS[4]])
def test_root_inside_the_guard_band_raises_solver_error(a, k, lam, mu, t, variant):
    # alpha rounds to 1, so K'(x_hi) is ~1e-17 or less, far below k = 2.
    # Given survival the count is at least geometric with mean
    # 1/(1 - beta e^x), so the conditional Kc'(x_hi) is above 1e10, and
    # its root lies in the band only for a k beyond that
    if variant == "conditional":
        k = 10**12
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


# beta rounds to 1.0 here, and K' crosses k in (-1, 0); the quadratic in
# s = e^x that used to seed the solve had both roots round onto 1/beta
BETA_ONE = (38, 13.34, 0.00131, 3.87)


def test_plain_solve_runs_where_both_quadratic_roots_round_onto_the_radius():
    a, lam, mu, t = BETA_ONE
    val = spa_loglik(_one_step(a, 1, t), Rates(lam, mu), "plain")
    ref = float(mp_log_spa_pmf(1, t, a, lam, mu, -1, 0))
    assert abs(val - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("k", [1, 2, 30])
def test_conditional_solve_runs_where_both_quadratic_roots_round_onto_the_radius(k):
    # k = 1 is scored exactly; k >= 2 seeds from the plain root
    a, lam, mu, t = BETA_ONE
    rates = Rates(lam, mu)
    val = spa_loglik(_one_step(a, k, t), rates, "conditional")
    ref = log_transition_prob(k, t, a, rates)
    assert abs(val - ref) <= 5e-3 * abs(ref)


# ---------------------------------------------------------------------------
# the closed-form seed of the plain solve


def _count_passes(monkeypatch):
    real, calls = saddlepoint._cgf_terms, []
    monkeypatch.setattr(
        saddlepoint, "_cgf_terms", lambda *args: calls.append(1) or real(*args)
    )
    return calls


def _count_cond_passes(monkeypatch):
    """The s = log u of each pass of the conditional solve."""
    real, calls = saddlepoint._cond_pass, []
    monkeypatch.setattr(
        saddlepoint, "_cond_pass", lambda s, *args: calls.append(s) or real(s, *args)
    )
    return calls


@pytest.mark.parametrize(
    "lam,mu,t",
    [
        # growth, decline, critical, near-critical (outside the band of the
        # lam == mu formulas), pure birth and pure death
        *[
            (lam, mu, t)
            for lam, mu in [(7.0, 5.0), (2.0, 6.0), (4.0, 4.0), (4.0, 4.000004), (2.5, 0.0), (0.0, 2.0)]
            for t in (1e-3, 0.1, 1.0, 5.0)
        ],
        # 1 - beta = 9.7e-147: the 2 -> 11 root is x = -1.539e-71
        (490.5467, 0.0036409, 0.68539),
    ],
)
def test_plain_seed_solves_the_saddle_equation(monkeypatch, lam, mu, t):
    # the seed alone meets the residual tolerance at 200 digits, with K'
    # in closed form (mp.diff's step would cross a radius 1e-146 away), so
    # a plain group makes exactly one CGF pass
    rates = Rates(lam, mu)
    g = geom_params(t, rates)
    lanes = [(a, k) for a in (1, 2, 3, 40) for k in (1, 2, 5, 11, 40, 300)]
    # pure birth has no root for k <= a, pure death none for k >= a
    lanes = [(a, k) for a, k in lanes if not (mu == 0.0 and k <= a or lam == 0.0 and k >= a)]
    a, k = (np.array(v, dtype=float) for v in zip(*lanes))
    seeds = []
    real = saddlepoint._newton
    monkeypatch.setattr(saddlepoint, "_newton", lambda x, *args: seeds.append(x) or real(x, *args))
    passes = _count_passes(monkeypatch)
    x, _ = _solve_x(k, a, g, t, rates)
    assert len(passes) == 1
    assert np.array_equal(seeds[0], x)
    with mp.workdps(200):
        for xi, ai, ki in zip(x, a, k):
            k1 = mp_cgf_prime(xi, t, ai, lam, mu)
            assert abs(k1 - ki) <= RESIDUAL_TOL * max(1.0, ki), (xi, ai, ki, k1)


@pytest.mark.parametrize(
    "a,k,lam,mu,t",
    [
        (3, 3, 2.5, 0.0, 0.7),  # pure birth, k = a
        (5, 2, 2.5, 0.0, 0.7),  # pure birth, k < a
        (3, 3, 0.0, 2.0, 0.7),  # pure death, k = a
        (2, 5, 0.0, 2.0, 0.7),  # pure death, k > a
    ],
)
@pytest.mark.parametrize("variant", ["plain", "conditional"])
def test_a_lane_without_a_root_raises_solver_error(a, k, lam, mu, t, variant):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=f"no saddlepoint root for k={float(k)}, a={float(a)}"):
            spa_loglik(_one_step(a, k, t), Rates(lam, mu), variant)
    with pytest.raises(SolverError, match=f"t={t}, rates=\\({float(lam)}, {float(mu)}\\)"):
        spa_pmf(k, t, a, Rates(lam, mu))


@pytest.mark.parametrize("lam", [0.0, 1e-320, 1e-310])
def test_conditional_lanes_where_u_rounds_to_one_are_solved_in_e(lam):
    # with beta = 0, u = 1 - beta e^x is 1 for every x, and below lam
    # 1e-308 the 1 - u of the plain root of 5 -> 2 is subnormal: there
    # the solve in s = log u has nothing to move, and these lanes solve
    # Kc' = f1 = k in E. The solve in x read -1.215323876288272 on each
    rates, ref = Rates(lam, 2.0), -1.215323876288272
    val = spa_loglik(_one_step(5, 2, 0.7), rates, "conditional")
    assert abs(val - ref) <= 1e-9 * abs(ref)
    assert abs(math.log(spa_pmf_conditional(2, 0.7, 5, rates)) - val) <= 1e-14
    # lanes with k >= a have no root there, under either solve; one such
    # lane beside 5 -> 2 refuses the group
    with pytest.raises(SolverError, match="k=5.0, a=5.0"):
        pair = Trajectory((0.0, 0.7), (5, 2)), Trajectory((0.0, 0.7), (5, 5))
        spa_loglik(Panel(pair), rates, "conditional")


def test_a_group_with_lanes_where_u_rounds_to_one_scores_each_lane_alone():
    # at mu 1e-306 the 1 - u of the plain roots of 5 -> 2 and 20 -> 40 are
    # normal floats, and those of 100 -> 2 and 1000 -> 3 subnormal: the
    # group solves the first two in s and the others in E, at 1 - u = 0,
    # and each lane reads what it reads alone, and what the solve in x reads
    t, rates = 0.5, Rates(2.0, 1e-306)
    g = geom_params(t, rates)
    k, a = np.array([2.0, 2.0, 3.0, 40.0]), np.array([5.0, 100.0, 1000.0, 20.0])
    terms, x, lp = _cond_log_spa(k, a, g, t, rates)
    assert np.array_equal(terms[2] > 0.0, [True, False, False, True])  # 1 - u
    for i in range(4):
        _, xi, lpi = _cond_log_spa(k[i : i + 1], a[i : i + 1], g, t, rates)
        assert xi[0] == x[i] and lpi[0] == lp[i]
    ref_x, ref = legacy.log_spa_conditional_halley(k, a, g, t, rates)
    assert np.all(np.abs(lp - ref) <= 1e-12 * np.abs(ref))
    assert np.all(np.abs(x - ref_x) <= 1e-9 * np.maximum(1.0, np.abs(x)))


@pytest.mark.parametrize(
    "a,k,lam,mu,t",
    [
        # the bracket of the old quadratic's seed read K' = 1.7e-44 and 5e81 at
        # its ends, and bisection in x could not reach a root at -4.6e-42
        (136, 10**7, 22.50430748026842, 0.3795964918679304, 8.281344035246526),
        # 1 - beta = 1e-55 near the spmle optimum of a two-gap panel
        (2, 9, 66.56, 3.214, 1.998053006936432),
    ],
)
def test_lanes_whose_root_is_near_zero_take_one_pass(monkeypatch, a, k, lam, mu, t):
    # both lanes took 200 CGF passes and raised SolverError on the
    # quadratic seed
    rates = Rates(lam, mu)
    passes = _count_passes(monkeypatch)
    val = spa_loglik(_one_step(a, k, t), rates, "plain")
    assert len(passes) == 1
    x = solve_saddlepoint(k, t, a, rates).x_tilde
    with mp.workdps(200):
        ref = mp_log_spa_pmf(k, t, a, lam, mu, 2.0 * x, _log_radius(geom_params(t, rates)))
    assert abs(val - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "lam,mu,ref",
    [
        (7.0, 5.0, -4967822.496025696),
        (2.0, 6.0, -6218595.1560368575),
        (4.0, 4.0, -5525447.340601421),
    ],
)
def test_large_k_conditional_lanes_stop_on_a_newton_correction_below_four_ulps(
    monkeypatch, lam, mu, ref
):
    # at 1 -> 1e6 over t = 1e-3 one ulp of x moves Kc' by about 9e-10 k,
    # more than the residual tolerance, and these lanes bisected their
    # brackets for 25, 33 and 3 passes when the solve ran in x; the Newton
    # correction at the seed was below 4 ulps of x, and the solve stopped
    # there. In s = log u the seed -log k is the root, and meets the
    # residual tolerance in one pass
    passes = _count_cond_passes(monkeypatch)
    val = spa_loglik(_one_step(1, 10**6, 1e-3), Rates(lam, mu), "conditional")
    assert len(passes) == 1
    assert abs(val - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "lam,mu,t",
    [(7.0, 5.0, 0.1), (7.0, 5.0, 0.2), (2.0, 6.0, 0.7), (4.0, 4.0, 0.3), (9.0, 0.5, 1.0)],
)
def test_plain_kernel_matches_the_quadratic_seed(lam, mu, t):
    # both seeds feed the same Newton solve; the lanes stop within the
    # residual tolerance of one root
    rates = Rates(lam, mu)
    rng = np.random.default_rng(11)
    g = geom_params(t, rates)
    for _ in range(5):
        k, a = _mixed_lanes(rng, rates, t, 80)
        k = np.concatenate([k, np.ones(4)])
        a = np.concatenate([a, [1.0, 2.0, 7.0, 40.0]])
        _, got = _log_spa(k, a, g, t, rates, False)
        ref = legacy.log_spa_quadratic(k, a, g, t, rates, False)
        assert np.all(np.abs(got - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref)))


# ---------------------------------------------------------------------------
# conditional lanes where M - p0 is far below M

# 2 -> 9 over t = 1.998 at rates where 1 - beta runs from e^-34 to e^-489.
# M - p0 at the root falls from 1e-13 M to 1e-211 M; formed as K - log p0,
# it kept no digits below about 1e-15 M, and the lane read -76.6 at
# (150, 60) and -153.9 at (387.5, 142.9) against exact -181.1 and -489.9
@pytest.mark.parametrize(
    "lam,mu",
    [(20.0, 3.2), (66.56, 3.214), (150.0, 60.0), (250.0, 100.0), (387.52235946843052, 142.93051025564782)],
)
def test_conditional_lane_keeps_its_digits_where_m_minus_p0_is_tiny(lam, mu):
    a, k, t = 2, 9, 1.998053006936432
    rates = Rates(lam, mu)
    val = spa_loglik(_one_step(a, k, t), rates, "conditional")
    assert abs(val - log_transition_prob(k, t, a, rates)) < 0.1
    # the root solves the conditional saddle equation at 300 digits
    g = geom_params(t, rates)
    _, x, _ = _cond_log_spa(np.array([float(k)]), np.array([float(a)]), g, t, rates)
    with mp.workdps(300):
        kc1 = mp_cond_cgf_prime(float(x[0]), t, a, lam, mu)
    assert abs(kc1 - k) <= 2.0 * RESIDUAL_TOL * k


def test_conditional_lane_where_m_minus_p0_underflows_matches_mpmath():
    # 3 -> 95 over t = 3 at lam 250.29, mu 4.5704: 1 - beta = e^-737.2, and
    # at the root M - p0 lies below the smallest float; the solve in x
    # formed (M - p0)/M as 4e-322, read Kc' = inf and scored the lane -inf,
    # where the exact log pmf is -744.10. mpmath keeps the digits that
    # 1 - beta cancels at 60 + |log(1 - beta)|/ln 10 digits
    a, k, t = 3, 95, 3.0
    rates = Rates(250.2901987107919, 4.570406856062319)
    g = geom_params(t, rates)
    _, x, got = _cond_log_spa(np.array([float(k)]), np.array([float(a)]), g, t, rates)
    # the root lies below 0, and log R is e^-737
    with mp.workdps(60 + math.ceil(abs(g.log1m_beta) / math.log(10))):
        ref = mp_log_cond_spa_pmf(k, t, a, rates.lam, rates.mu, 2.0 * x[0], 0.5 * x[0])
    assert abs(got[0] - ref) <= 1e-13 * abs(ref)
    assert abs(got[0] - log_transition_prob(k, t, a, rates)) < 0.1
    panel = Panel((Trajectory((0.0, 0.5, 2.5, 5.5), (150, 1257, 3, 95)),))
    assert math.isfinite(spa_loglik(panel, rates, "conditional"))
