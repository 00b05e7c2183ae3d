"""Estimation front-end: dispatch, optimizer, numeric Hessian, compare."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import bdrates
import bdrates.optimize as optimize
from bdrates.errors import CapError, DomainError
from bdrates.estimate import (
    EstimateResult,
    FitOptions,
    canonical_method,
    compare,
    fit,
    format_compare_table,
    initial_rates,
    numeric_hessian_se,
)
from bdrates.exact import exact_loglik
from bdrates.gaussian import qg_fit
from bdrates.gw import gw_estimate
from bdrates.multivariate import mv_loglik
from bdrates.optimize import maximize_2d
from bdrates.saddlepoint import spa_loglik
from bdrates.types import Panel, Rates, Trajectory

# Frozen sampled paths (exact transition law, birth 7 death 5, step 0.1).
# PANEL_A: 19 transitions from 10 individuals, min count 9.
# PANEL_B: 10 transitions from 60 individuals, min count 60.
PANEL_A = Panel(
    (
        Trajectory(
            tuple(0.1 * i for i in range(20)),
            (10, 9, 13, 21, 20, 17, 24, 31, 30, 51, 60, 84, 128, 155, 191,
             207, 266, 332, 401, 455),
        ),
    )
)
PANEL_B = Panel(
    (
        Trajectory(
            tuple(0.1 * i for i in range(11)),
            (60, 73, 72, 102, 112, 138, 141, 176, 220, 253, 284),
        ),
    )
)
# PANEL_C: unequal spacing (same generator, gaps 0.05-0.25).
PANEL_C = Panel(
    (
        Trajectory(
            (0.0, 0.188, 0.3, 0.357, 0.595, 0.767, 0.944, 1.149, 1.3),
            (8, 5, 3, 4, 13, 33, 69, 76, 96),
        ),
    )
)


# ---------------------------------------------------------------------------
# optimizer


def _no_model(x):
    # no model anywhere: the Newton run hands the start to Nelder-Mead
    return None


def test_maximize_quadratic():
    res = maximize_2d(
        lambda x: -((x[0] - 2.0) ** 2) - (x[1] + 1.0) ** 2, [0.0, 0.0], derivatives=_no_model
    )
    assert res.converged and res.continued
    assert abs(res.x[0] - 2.0) < 1e-6
    assert abs(res.x[1] + 1.0) < 1e-6
    assert abs(res.fun) < 1e-12
    # the Newton run and one Nelder-Mead run; without a model at the
    # optimum there is no Hessian
    assert res.n_evals > 0 and res.n_runs == 2
    assert res.hessian is None


def test_maximize_quadratic_newton():
    # with its exact derivatives, one Newton step reaches the optimum and
    # the next step is zero; no Nelder-Mead continuation runs
    def obj(x):
        return -((x[0] - 2.0) ** 2) - 3.0 * (x[1] + 1.0) ** 2

    def derivatives(x):
        return np.array([-2.0 * (x[0] - 2.0), -6.0 * (x[1] + 1.0)]), np.diag([-2.0, -6.0])

    res = maximize_2d(obj, [0.5, 0.0], derivatives=derivatives)
    assert res.converged and res.n_runs == 1 and not res.continued
    assert res.x == (2.0, -1.0) and res.fun == 0.0
    assert res.newton_iterations == 2 and res.n_evals == 2
    assert np.array_equal(res.hessian, np.diag([-2.0, -6.0]))


def test_import_loads_no_scipy():
    # scipy.special and scipy.optimize are imported by the functions that
    # call them, so a process that only imports the package pays for neither
    code = "import sys, bdrates; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
    src = str(Path(bdrates.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def _counting_minimize(monkeypatch):
    """The results of every scipy minimize call that maximize_2d makes
    (it imports minimize from scipy.optimize when it continues)."""
    real, runs = scipy.optimize.minimize, []

    def minimize(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(scipy.optimize, "minimize", minimize)
    return runs


def test_continuation_makes_one_nelder_mead_run(monkeypatch):
    # the optimum (0.3, 0.2) lies within 3e-6 of a -inf region; the one
    # Nelder-Mead run reaches it, and no restart follows
    def obj(x):
        if x[0] < 0.3 - 3e-6:
            return -math.inf
        return -((x[0] - 0.3) ** 2) - (x[1] - 0.2) ** 2

    runs = _counting_minimize(monkeypatch)
    res = maximize_2d(obj, [0.5, 0.0], derivatives=_no_model)
    assert len(runs) == 1 and res.n_runs == 2
    assert res.converged and res.hessian is None
    assert abs(res.x[0] - 0.3) < 1e-6 and abs(res.x[1] - 0.2) < 1e-6
    # the run's evaluations, the start and the optimum's re-evaluation
    assert res.n_evals == runs[0].nfev + 2


def test_continuation_cut_short_by_maxiter_makes_one_run(monkeypatch):
    def obj(x):
        return -((x[0] - 2.0) ** 2) - (x[1] + 1.0) ** 2

    runs = _counting_minimize(monkeypatch)
    res = maximize_2d(obj, [0.0, 0.0], derivatives=_no_model, maxiter=30)
    assert len(runs) == 1 and runs[0].nit == 30
    assert not res.converged and res.continued and res.fun < 0.0


def test_maximize_rejects_bad_start():
    with pytest.raises(ValueError):
        maximize_2d(lambda x: -math.inf, [0.0, 0.0], derivatives=_no_model)
    with pytest.raises(ValueError):
        maximize_2d(lambda x: -x[0] ** 2, [0.0, 0.0, 0.0], derivatives=_no_model)


def test_maximize_bad_start_is_a_package_error():
    # a typed error, so compare() records it instead of aborting
    with pytest.raises(DomainError, match="starting point"):
        maximize_2d(lambda x: math.nan, [0.5, 1.0], derivatives=_no_model)


def test_maximize_handles_rejection_regions():
    # objective is -inf outside the unit disc; optimum inside
    def obj(x):
        if x[0] ** 2 + x[1] ** 2 > 1.0:
            return -math.inf
        return -((x[0] - 0.3) ** 2) - (x[1] - 0.2) ** 2

    res = maximize_2d(obj, [0.0, 0.0], derivatives=_no_model)
    assert abs(res.x[0] - 0.3) < 1e-6
    assert abs(res.x[1] - 0.2) < 1e-6


# ---------------------------------------------------------------------------
# numeric Hessian


def test_hessian_quadratic_exact():
    # curvature diag(1, 4) at theta=(1, 2): covariance of the rates is
    # diag(e^2, e^4/4) through the exp-map Jacobian
    cov = numeric_hessian_se([1.0, 2.0], -np.diag([1.0, 4.0]))
    expect = np.diag([math.e**2, 0.25 * math.e**4])
    assert np.allclose(cov, expect, rtol=1e-15, atol=0)


def test_hessian_exactly_symmetric():
    # the Hessian of -(2 x^2 + 1.3 x y + 3 y^2)/2
    cov = numeric_hessian_se([0.1, -0.2], -np.array([[2.0, 0.65], [0.65, 3.0]]))
    assert cov[0, 1] == cov[1, 0]
    assert cov[0, 0] > 0.0 and cov[1, 1] > 0.0


def test_hessian_not_positive_definite():
    assert numeric_hessian_se([0.0, 0.0], np.eye(2)) is None
    assert numeric_hessian_se([0.0, 0.0], np.array([[-1.0, 2.0], [2.0, -1.0]])) is None


def test_hessian_nonfinite_or_missing():
    assert numeric_hessian_se([1.0, 0.0], np.array([[-math.inf, 0.0], [0.0, -1.0]])) is None
    assert numeric_hessian_se([1.0, 0.0], np.array([[-1.0, math.nan], [math.nan, -1.0]])) is None
    assert numeric_hessian_se([1.0, 0.0]) is None
    assert numeric_hessian_se([1.0, 0.0], None) is None


def test_hessian_boundary_fit():
    # a rate below 1e-6 of the other: no covariance, whatever the Hessian
    assert numeric_hessian_se([0.0, math.log(0.9e-6)], -np.eye(2)) is None
    assert numeric_hessian_se([math.log(0.9e-6), 0.0], -np.eye(2)) is None
    assert numeric_hessian_se([0.0, math.log(1.1e-6)], -np.eye(2)) is not None


# ---------------------------------------------------------------------------
# result type and dispatch plumbing


def test_canonical_method_folding():
    assert canonical_method("spmle-adjusted") == "spmle_adjusted"
    assert canonical_method("  MLE ") == "mle"
    with pytest.raises(DomainError):
        canonical_method("bogus")


def test_result_invariants_enforced():
    with pytest.raises(ValueError):
        EstimateResult("gw", Rates(2.0, 1.0), 0.5, None, None, True, 0, 0.0)
    bad_cov = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ValueError):
        EstimateResult("gw", Rates(2.0, 1.0), 1.0, bad_cov, None, True, 0, 0.0)


def test_fit_gw_matches_gw_estimate():
    est = gw_estimate(PANEL_A)
    res = fit(PANEL_A, "gw")
    assert res.rates == est.rates
    assert res.loglik is None
    assert res.converged and res.n_obj_evals == 0
    assert res.se_lambda == pytest.approx(est.se_lambda, rel=1e-12)
    assert res.se_mu == pytest.approx(est.se_mu, rel=1e-12)
    assert res.se_omega == pytest.approx(est.se_omega, rel=1e-12)


def test_fit_qg_matches_qg_fit():
    qf = qg_fit(PANEL_A)
    res = fit(PANEL_A, "qg")
    assert res.rates == qf.rates
    assert res.loglik == qf.loglik
    assert np.array_equal(res.cov, qf.cov_lambda_mu)


def test_fit_qg_reports_no_loglik_on_a_zero_residual_panel():
    # one transition: the residuals vanish at the exact ratio, so the
    # profile is unbounded and the scan stops at an arbitrary value
    panel = Panel((Trajectory((0.0, 1.0), (7, 1012)),))
    qf = qg_fit(panel)
    res = fit(panel, "qg")
    assert qf.degenerate and math.isfinite(qf.loglik)
    assert res.rates == qf.rates
    assert res.loglik is None and res.cov is None
    assert res.n_obj_evals == qf.profile_iterations


def test_initial_rates_interior():
    r = initial_rates(PANEL_A)
    assert r.lam > 0.0 and r.mu > 0.0
    r = initial_rates(PANEL_C)
    assert r.lam > 0.0 and r.mu > 0.0


# ---------------------------------------------------------------------------
# likelihood fits on the frozen panels


def test_spmle_close_to_mle():
    spa = fit(PANEL_A, "spmle")
    exact = fit(PANEL_A, "mle")
    assert spa.converged and exact.converged
    assert abs(spa.rates.lam - exact.rates.lam) / exact.rates.lam <= 0.05
    assert abs(spa.rates.mu - exact.rates.mu) / exact.rates.mu <= 0.05
    assert abs(spa.omega_hat - exact.omega_hat) / abs(exact.omega_hat) <= 1e-3


def test_adjusted_spmle_close_to_plain():
    plain = fit(PANEL_A, "spmle")
    adj = fit(PANEL_A, "spmle_adjusted")
    # small-count smoothing correction is tiny on a panel with counts >= 9
    assert abs(adj.rates.lam - plain.rates.lam) / plain.rates.lam <= 0.01
    assert adj.loglik is not None and plain.loglik is not None


def test_optimum_compass_directions():
    res = fit(PANEL_A, "spmle")
    obj = lambda r: spa_loglik(PANEL_A, r)
    at = obj(res.rates)
    th = np.array([math.log(res.rates.lam), math.log(res.rates.mu)])
    for dx in (-1e-3, 0.0, 1e-3):
        for dy in (-1e-3, 0.0, 1e-3):
            if dx == 0.0 and dy == 0.0:
                continue
            val = obj(Rates(math.exp(th[0] + dx), math.exp(th[1] + dy)))
            assert val <= at + 5e-8


def test_restarts_is_still_accepted():
    # read by no code; callers that pass it (perfbench's warm-up options)
    # must still construct
    assert FitOptions(restarts=0, maxiter=20).maxiter == 20


def test_start_override():
    res = fit(PANEL_A, "spmle", FitOptions(start=(3.0, 1.0)))
    base = fit(PANEL_A, "spmle")
    assert abs(res.rates.lam - base.rates.lam) / base.rates.lam <= 1e-5


START_PANEL = Panel((Trajectory((0.0, 0.2, 0.4, 0.6000000000000001, 0.8), (1, 2, 4, 3, 6)),))


@pytest.mark.parametrize(
    "start", [Rates(3.0, 2.0), (3.0, 2.0), [3, 2], (np.float64(3.0), 2.0)], ids=repr
)
def test_start_accepts_rates_or_a_positive_pair(start):
    options = FitOptions(start=start)
    assert options.start == (3.0, 2.0)
    assert all(type(v) is float for v in options.start)
    res = fit(START_PANEL, "spmle", options)
    assert res.rates == fit(START_PANEL, "spmle", FitOptions(start=(3.0, 2.0))).rates


@pytest.mark.parametrize(
    "start",
    [
        (3.0,),
        (3.0, 0.0),
        ("a", 1.0),
        (3.0, -1.0),
        (math.nan, 1.0),
        (3.0, math.inf),
        (True, 1.0),
        (3.0, 2.0, 1.0),
        3.0,
        "ab",
        Rates(3.0, 0.0),
    ],
    ids=repr,
)
def test_start_refuses_anything_else_naming_it(start):
    # each used to end in a bare TypeError or ValueError inside fit
    with pytest.raises(DomainError, match="^start must be a Rates or a"):
        fit(START_PANEL, "spmle", FitOptions(start=start))


def test_mle_count_cap():
    with pytest.raises(CapError):
        fit(PANEL_A, "mle", FitOptions(max_count_cap=100))


def test_spa_tracks_exact_loglik_at_high_counts():
    # per-transition SPA error shrinks like 1/min-count; at counts >= 60
    # the whole-panel gap stays far below 0.02 per transition
    res = fit(PANEL_B, "mle")
    gap = abs(spa_loglik(PANEL_B, res.rates) - exact_loglik(PANEL_B, res.rates))
    assert gap <= 0.02 * PANEL_B.n_transitions


def test_unequal_spacing_panel_fits():
    res = fit(PANEL_C, "spmle")
    assert res.converged
    assert res.rates.lam > res.rates.mu  # panel grows 8 -> 96


# ---------------------------------------------------------------------------
# compare


def test_compare_battery():
    rows = compare(PANEL_A)
    assert [r.method for r in rows] == ["gw", "qg", "spmle", "spmle_adjusted", "mle"]
    assert all(r.error is None for r in rows)
    assert rows[0].result.loglik is None
    assert all(r.result.wall_time >= 0.0 for r in rows)
    table = format_compare_table(rows)
    assert "spmle_adjusted" in table and "lambda" in table


def test_compare_captures_method_failure():
    rows = compare(PANEL_C, methods=("gw", "qg", "spmle"))
    assert rows[0].result is None and "DataError" in rows[0].error
    assert rows[1].result is not None
    assert rows[2].result is not None


def test_compare_survives_infeasible_joint_start():
    # growth path from z0=10 (birth 7, death 5, step 0.1) on which the
    # componentwise univariate start leaves the joint pgf's domain; the
    # start is pulled toward the origin and the joint fit agrees with mle
    panel = Panel(
        (
            Trajectory(
                tuple(0.1 * i for i in range(11)),
                (10, 10, 14, 12, 15, 12, 10, 16, 25, 37, 40),
            ),
        )
    )
    assert math.isfinite(mv_loglik(panel, initial_rates(panel)))
    rows = compare(panel, ["mle", "mv_spmle"])
    ref, joint = rows[0].result, rows[1].result
    assert joint is not None and joint.converged
    assert abs(joint.omega_hat - ref.omega_hat) <= 2.0 * ref.se_omega


def test_cross_method_omega_agreement():
    rows = compare(PANEL_A)
    ref = next(r.result for r in rows if r.method == "mle")
    for row in rows:
        se = max(
            s for s in (row.result.se_omega, ref.se_omega) if s is not None
        )
        assert abs(row.result.omega_hat - ref.omega_hat) <= 2.0 * se


# panels on which the old saddlepoint solver's brentq fallback ended a fit
# with scipy's bare ValueError: a collapse to one survivor, and one step
COLLAPSE = Panel((Trajectory((0.0, 0.2, 3.4), (25, 1, 1)),))
ONE_STEP = Panel((Trajectory((0.0, 0.5718816614534702), (6, 9)),))


@pytest.mark.parametrize("method", ["spmle", "mv_spmle"])
@pytest.mark.parametrize("panel", [COLLAPSE, ONE_STEP], ids=["collapse", "one_step"])
def test_saddlepoint_fit_returns_where_the_fallback_raised(panel, method):
    res = fit(panel, method)
    assert math.isfinite(res.loglik)
    assert res.rates.lam > 0.0


def test_compare_reports_every_method_on_a_collapsing_panel():
    rows = compare(COLLAPSE)
    assert [r.method for r in rows] == ["gw", "qg", "spmle", "spmle_adjusted", "mle"]


def test_compare_reports_every_method_where_the_moment_errors_underflow():
    # a common gap of 1e-170: the moment fit's standard errors divided by
    # an underflowed 0, and the bare ZeroDivisionError aborted compare()
    panel = Panel((Trajectory((0.0, 1e-170, 2e-170, 3e-170), (5, 7, 9, 12)),))
    rows = compare(panel)
    assert [r.method for r in rows] == ["gw", "qg", "spmle", "spmle_adjusted", "mle"]
    assert all(r.error is None for r in rows)
    gw_fit = rows[0].result
    assert gw_fit.rates == gw_estimate(panel).rates and gw_fit.cov is None


def test_adjusted_fit_reaches_its_optimum_where_m_minus_p0_is_tiny():
    # a Newton step of this fit lands at (387.5, 142.9), where 1 - beta of
    # the 2 -> 9 gap is e^-489 and M - p0 of that lane is 1e-211 M. Formed
    # as K - log p0 it kept no digits: the lane read -153.9 against an exact
    # -489.9, and the fit stopped there at -163.70. With its digits the
    # step is rejected, and the fit reaches the optimum near lam = mu = 9338
    # that the exact fit also finds
    panel = Panel((Trajectory((0.0, 1.998053006936432, 2.010204501876863), (2, 9, 482)),))
    res = fit(panel, "spmle_adjusted")
    assert res.loglik == pytest.approx(-30.2382396282, abs=1e-6)
    assert res.cov is not None and not res.continued
