"""Joint-path saddlepoint: mv_spmle is the plain saddlepoint fit, and the
retired N-dimensional solver (nested PGF, chain-rule CGF, Newton solve,
pmf), kept in legacy_kernels, agrees with the plain saddlepoint
likelihood it was replaced by."""

import dataclasses
import math

import numpy as np
import pytest
from legacy_kernels import (
    joint_pgf,
    mv_cgf,
    mv_log_spa_pmf,
    mv_loglik,
    mv_solve,
    mv_spa_pmf,
)
from oracles import mean, pgf, variance
from scipy.optimize import minimize

from bdrates.errors import DomainError, SolverError
from bdrates.estimate import fit
from bdrates.exact import geom_params, log_transition_prob
from bdrates.saddlepoint import cgf_eval, solve_saddlepoint, spa_loglik, spa_pmf
from bdrates.simulate import SimConfig, simulate_panel
from bdrates.types import Panel, Rates, Trajectory

RATES = Rates(1.2, 0.8)
TIMES2 = (0.0, 0.3, 0.7)  # gaps 0.3, 0.4


def lattice_joint(k1, k2, a, rates=RATES, t1=0.3, t2=0.4):
    return math.exp(
        log_transition_prob(k1, t1, a, rates) + log_transition_prob(k2, t2, k1, rates)
    )


# ---------------------------------------------------------------------------
# joint generating function


def test_joint_pgf_at_ones():
    assert joint_pgf([1.0, 1.0], TIMES2, 3, RATES) == pytest.approx(1.0, abs=1e-12)
    assert joint_pgf([1.0] * 4, (0.0, 0.2, 0.5, 0.9, 1.0), 7, RATES) == pytest.approx(
        1.0, abs=1e-12
    )


def test_joint_pgf_single_gap_reduction():
    assert joint_pgf([0.9], (0.0, 0.4), 5, RATES) == pytest.approx(
        pgf(0.9, 0.4, RATES, 5), rel=1e-14
    )


def test_joint_pgf_matches_lattice():
    a = 3
    s = (0.9, 0.95)
    acc = 0.0
    for k1 in range(0, 90):
        p1 = math.exp(log_transition_prob(k1, 0.3, a, RATES))
        inner = sum(
            s[1] ** k2 * math.exp(log_transition_prob(k2, 0.4, k1, RATES))
            for k2 in range(0, 160)
        )
        acc += s[0] ** k1 * p1 * inner
    assert joint_pgf(s, TIMES2, a, RATES) == pytest.approx(acc, abs=1e-6)


def test_lattice_oracle_marginalizes():
    # self-test of the brute-force oracle: summing out the second
    # coordinate recovers the one-gap law
    a, k1 = 4, 6
    total = sum(lattice_joint(k1, k2, a) for k2 in range(0, 120))
    assert total == pytest.approx(
        math.exp(log_transition_prob(k1, 0.3, a, RATES)), abs=1e-6
    )


def test_joint_pgf_domain_violation_names_level():
    with pytest.raises(DomainError, match="level 2"):
        joint_pgf([0.5, 50.0], TIMES2, 3, RATES)
    with pytest.raises(DomainError):
        joint_pgf([0.5, 0.5], (0.0, 0.3, 0.2), 3, RATES)  # non-increasing times
    with pytest.raises(DomainError):
        joint_pgf([0.5], (0.0, 0.3, 0.7), 3, RATES)  # length mismatch


# ---------------------------------------------------------------------------
# path CGF derivatives


def test_cgf_gradient_at_zero_is_means():
    a = 4
    _, grad, hess = mv_cgf([0.0, 0.0], TIMES2, a, RATES)
    om = RATES.omega
    assert grad[0] == pytest.approx(a * math.exp(om * 0.3), rel=1e-10)
    assert grad[1] == pytest.approx(a * math.exp(om * 0.7), rel=1e-10)
    # diagonal of the Hessian at 0 is the marginal variance
    assert hess[1, 1] == pytest.approx(variance(0.7, a, RATES), rel=1e-8)


@pytest.mark.parametrize(
    "times,x",
    [
        ((0.0, 0.4), [0.02]),
        ((0.0, 0.3, 0.7), [0.01, -0.2]),
        ((0.0, 0.2, 0.5, 0.9), [0.01, -0.3, 0.04]),
    ],
)
def test_cgf_derivatives_match_finite_differences(times, x):
    a = 4
    x = np.asarray(x)
    n = len(x)
    _, grad, hess = mv_cgf(x, times, a, RATES)
    h = 1e-5
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        kp, gp, _ = mv_cgf(x + e, times, a, RATES)
        km, gm, _ = mv_cgf(x - e, times, a, RATES)
        assert (kp - km) / (2 * h) == pytest.approx(grad[i], rel=1e-5)
        fd_row = (gp - gm) / (2 * h)
        assert np.allclose(fd_row, hess[i], rtol=1e-5, atol=1e-8)


def test_cgf_single_gap_reduces_to_univariate():
    val, grad, hess = mv_cgf([0.02], (0.0, 0.4), 6, RATES)
    point = cgf_eval(0.02, 0.4, 6, RATES)
    assert val == pytest.approx(point.value, rel=1e-13, abs=1e-13)
    assert grad[0] == pytest.approx(point.d1, rel=1e-13)
    assert hess[0, 0] == pytest.approx(point.d2, rel=1e-13)


# ---------------------------------------------------------------------------
# Newton solve


def test_solve_at_integer_means():
    # critical rates: the one-gap mean is the source count, so an integer
    # mean vector makes x = 0 the exact solution and the start lands on it
    sol = mv_solve([4, 4], TIMES2, 4, Rates(1.0, 1.0))
    assert sol.residual_norm <= 1e-8 * max(1.0, 4.0)
    assert np.max(np.abs(sol.x_tilde)) < 1e-9


def test_solve_residual_and_hessian_invariants():
    k = [7, 12]
    sol = mv_solve(k, TIMES2, 5, RATES)
    assert sol.residual_norm <= 1e-8 * max(1.0, max(k))
    assert np.array_equal(sol.hess, sol.hess.T)
    np.linalg.cholesky(sol.hess)  # must succeed
    _, grad, _ = mv_cgf(sol.x_tilde, TIMES2, 5, RATES)
    assert np.max(np.abs(grad - np.asarray(k, float))) <= 1e-8 * max(1.0, max(k))


def test_solve_matches_exponent_minimization():
    # the saddlepoint is the minimizer of K(x) - x.k over the region
    k = np.array([7.0, 12.0])
    sol = mv_solve([7, 12], TIMES2, 5, RATES)

    def exponent(x):
        try:
            val, _, _ = mv_cgf(x, TIMES2, 5, RATES)
        except DomainError:
            return math.inf
        return val - float(x @ k)

    res = minimize(
        exponent,
        np.zeros(2),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
    )
    assert np.allclose(res.x, sol.x_tilde, atol=1e-5)


def test_solve_single_gap_matches_univariate():
    sol = mv_solve([9], (0.0, 0.4), 6, RATES)
    uni = solve_saddlepoint(9, 0.4, 6, RATES)
    assert abs(sol.x_tilde[0] - uni.x_tilde) <= 1e-9


def test_solve_input_validation():
    with pytest.raises(DomainError):
        mv_solve([0, 5], TIMES2, 4, RATES)  # zero inside the prefix
    with pytest.raises(DomainError):
        mv_solve([3, 5], (0.0, 0.3), 4, RATES)  # times too short
    with pytest.raises(DomainError):
        mv_solve([3, 5], TIMES2, 0, RATES)


# ---------------------------------------------------------------------------
# joint pmf approximation


def test_pmf_single_gap_equals_univariate():
    assert mv_spa_pmf([9], (0.0, 0.4), 6, RATES) == pytest.approx(
        spa_pmf(9, 0.4, 6, RATES), rel=1e-12
    )


def _max_ratio_err(a, rates, dt=0.5):
    times = (0.0, dt, 2 * dt)
    m1 = mean(dt, a, rates)
    s1 = math.sqrt(variance(dt, a, rates))
    errs = []
    for k1 in range(max(1, int(m1 - 1.5 * s1)), int(m1 + 1.5 * s1) + 1):
        m2 = mean(dt, k1, rates)
        s2 = math.sqrt(variance(dt, k1, rates))
        for k2 in range(max(1, int(m2 - 1.5 * s2)), int(m2 + 1.5 * s2) + 1):
            lexact = log_transition_prob(k1, dt, a, rates) + log_transition_prob(
                k2, dt, k1, rates
            )
            lspa = mv_log_spa_pmf([k1, k2], times, a, rates)
            errs.append(abs(math.expm1(lspa - lexact)))
    return max(errs)


def test_pmf_error_shrinks_with_ancestors():
    rates = Rates(1.5, 0.5)
    err5 = _max_ratio_err(5, rates)
    err20 = _max_ratio_err(20, rates)
    assert err20 < 0.25 * err5  # first-order error: 4x fewer ancestors


def test_trailing_zeros_factor_exactly():
    times = (0.0, 0.3, 0.7, 1.0, 1.4)
    whole = mv_log_spa_pmf([5, 3, 0, 0], times, 4, RATES)
    prefix = mv_log_spa_pmf([5, 3], times[:3], 4, RATES)
    g = geom_params(0.3, RATES)  # the gap 0.7 -> 1.0
    assert whole == pytest.approx(prefix + 3 * g.log_alpha, rel=1e-12)


def test_all_zero_vector_is_exact_extinction():
    g = geom_params(0.3, RATES)
    assert mv_log_spa_pmf([0, 0], TIMES2, 4, RATES) == pytest.approx(
        4 * g.log_alpha, rel=1e-14
    )


def test_revival_rejected():
    with pytest.raises(DomainError, match="extinction"):
        mv_log_spa_pmf([5, 0, 3], (0.0, 0.3, 0.7, 1.0), 4, RATES)


def test_loglik_adds_over_trajectories():
    t1 = Trajectory((0.0, 0.1, 0.2), (10, 12, 15))
    t2 = Trajectory((0.0, 0.1), (5, 4))
    rates = Rates(7.0, 5.0)
    joint = mv_loglik(Panel((t1, t2)), rates)
    parts = mv_loglik(Panel((t1,)), rates) + mv_loglik(Panel((t2,)), rates)
    assert joint == pytest.approx(parts, rel=1e-12)


# ---------------------------------------------------------------------------
# the retired solver against the plain saddlepoint likelihood


def _identity_panels():
    """40 seeded panels: 1-3 trajectories, 2-15 unequal gaps, z0 1-29,
    every other one conditioned on survival."""
    panels = []
    for i in range(40):
        rng = np.random.default_rng(1000 + i)
        gaps = rng.uniform(0.05, 0.35, size=int(rng.integers(2, 16)))
        rates = Rates(float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5)))
        config = SimConfig(
            rates=rates,
            z0=int(rng.integers(1, 30)),
            obs_times=tuple(np.cumsum(gaps)),
            condition_nonextinct=i % 2 == 1,
            seed=i,
        )
        panels.append((simulate_panel(config, int(rng.integers(1, 4))), rates))
    return panels


def test_retired_solver_matches_plain_saddlepoint():
    panels = _identity_panels()
    assert any(tr.counts[-1] == 0 for p, _ in panels for tr in p)
    compared = 0
    for panel, rates in panels:
        for f_lam, f_mu in ((1.0, 1.0), (1.4, 1.0), (1.0, 0.6), (0.7, 1.3), (2.0, 2.0)):
            probe = Rates(rates.lam * f_lam, rates.mu * f_mu)
            # the reference pulls an overflowing start back by testing
            # finiteness, so its overflow in exp and the inf * 0 products
            # that follow are expected
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    ref = mv_loglik(panel, probe)
                except (DomainError, SolverError):
                    continue
            if not math.isfinite(ref):
                continue
            plain = spa_loglik(panel, probe, variant="plain")
            assert plain == pytest.approx(ref, rel=1e-8), (panel, probe)
            compared += 1
    assert compared >= 190


# ---------------------------------------------------------------------------
# mv_spmle is spmle under its old name


_FIT_PANELS = {
    "single_transition": Panel(
        (Trajectory((0.0, 0.25), (12, 15)), Trajectory((0.0, 0.25), (8, 6)))
    ),
    "large_counts": Panel(
        (
            Trajectory(
                tuple(0.1 * i for i in range(11)),
                (60, 73, 72, 102, 112, 138, 141, 176, 220, 253, 284),
            ),
        )
    ),
    "growth_path": Panel(
        (Trajectory(tuple(0.1 * i for i in range(6)), (10, 10, 20, 33, 67, 80)),)
    ),
    "infeasible_joint_start": Panel(
        (
            Trajectory(
                tuple(0.1 * i for i in range(11)),
                (10, 10, 14, 12, 15, 12, 10, 16, 25, 37, 40),
            ),
        )
    ),
    # the joint solver failed on the way to spmle's pure-death optimum
    "pure_death_edge": Panel((Trajectory((0.0, 1.75, 1.9), (19, 2, 2)),)),
}


@pytest.mark.parametrize("name", list(_FIT_PANELS))
def test_mv_spmle_fit_equals_spmle_fit(name):
    panel = _FIT_PANELS[name]
    uni = fit(panel, "spmle")
    mv = fit(panel, "mv_spmle")
    assert mv.method == "mv_spmle"
    # every other field but the wall time, bit for bit: rates, loglik,
    # cov and the search's counts
    for field in dataclasses.fields(uni):
        if field.name in ("method", "wall_time"):
            continue
        a, b = getattr(uni, field.name), getattr(mv, field.name)
        assert (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b), field.name
