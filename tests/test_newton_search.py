"""The likelihood searches against the Nelder-Mead search with blind
confirming restarts (kept in legacy_kernels): the damped Newton search
on the exact likelihood's and the saddlepoint likelihoods' analytic
derivatives, and their covariances against the 9-point stencil (kept
there too). Then the Nelder-Mead continuation, the edge panels, and
property tests of fit and compare over small panels."""

import math

import legacy_kernels as legacy
import numpy as np
import pytest
import test_exact_table
import test_table_consumers
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdrates import errors
from bdrates.errors import BdError
from bdrates.estimate import (
    FitOptions,
    _search_functions,
    compare,
    fit,
    initial_rates,
    numeric_hessian_se,
)
from bdrates.exact import exact_loglik
from bdrates.optimize import maximize_2d
from bdrates.types import Panel, Trajectory

FROZEN = {
    **{f"exact_table.{k}": p for k, p in test_exact_table.PANELS.items()},
    **{f"table_consumers.{k}": p for k, p in test_table_consumers.PANELS.items()},
}
LIKELIHOODS = ("spmle", "spmle_adjusted", "mle")


def _legacy_fit(panel, method):
    objective, _ = _search_functions(method, panel, FitOptions())
    start = initial_rates(panel)
    return legacy.maximize_2d(objective, [math.log(start.lam), math.log(start.mu)])


def _stencil_cov(objective, theta):
    """The covariance from the 9-point stencil's Hessian at theta."""
    _, hessian = legacy._stencil(objective, theta, objective(theta))
    return numeric_hessian_se(theta, hessian)


@pytest.mark.parametrize("method", LIKELIHOODS)
@pytest.mark.parametrize("name", sorted(FROZEN))
def test_fit_agrees_with_the_nelder_mead_search(name, method):
    panel = FROZEN[name]
    new, old = fit(panel, method), _legacy_fit(panel, method)
    # the Newton run alone reaches the reference search's optimum
    assert new.converged and not new.continued
    assert new.loglik >= old.fun - 1e-9 * max(1.0, abs(old.fun))
    # every frozen fit is interior, so each keeps its covariance
    assert new.cov is not None
    if "extinct" in name:
        # every target is 0: the likelihood climbs toward 0 as the death
        # rate grows, so there is no optimum for the two searches to share
        return
    got = np.array([new.rates.lam, new.rates.mu])
    want = np.exp(old.x)
    assert np.all(np.abs(got - want) <= 1e-5 * want)


def test_mle_takes_a_few_evaluations_and_its_cov_is_the_analytic_information():
    panel = FROZEN["exact_table.pooled_float_grid"]
    res = fit(panel, "mle")
    assert res.n_obj_evals <= 8 and res.rejected_probes == 0
    theta = np.log([res.rates.lam, res.rates.mu])
    _, _, info = exact_loglik(panel, res.rates, derivatives=True)
    objective, _ = _search_functions("mle", panel, FitOptions())
    assert np.allclose(res.cov, numeric_hessian_se(theta, -info), rtol=1e-12, atol=0)
    # the 9-point stencil agrees to its own accuracy: the rates lie on a
    # ridge, where the inverse amplifies the stencil's rounding noise
    stencil = _stencil_cov(objective, theta)
    assert np.all(np.abs(res.cov - stencil) <= 1e-2 * np.abs(stencil))
    assert res.se_omega == pytest.approx(
        math.sqrt(stencil[0, 0] + stencil[1, 1] - 2 * stencil[0, 1]), rel=1e-3
    )


# the extinct panels have no optimum (see above), so neither matrix is
# an information there; on the large_counts ridge (lam = 138.6,
# mu = 138.0) the stencil's se_lambda reads 74.3 at the spmle optimum
# and 81.7 at the mle one, and a fourth-order stencil's 65 to 79 as its
# step goes from 1e-3 to 1e-4, against 79.8 from both analytic
# informations, so there se_omega is compared with the stencil and the
# information with central differences of the analytic score
RIDGE = "exact_table.large_counts"


@pytest.mark.parametrize("method", ["spmle", "spmle_adjusted"])
@pytest.mark.parametrize("name", sorted(k for k in FROZEN if "extinct" not in k))
def test_saddlepoint_cov_from_the_information_agrees_with_the_stencil(name, method):
    panel = FROZEN[name]
    res = fit(panel, method)
    objective, derivatives = _search_functions(method, panel, FitOptions())
    theta = np.log([res.rates.lam, res.rates.mu])
    stencil = _stencil_cov(objective, theta)
    assert res.se_omega == pytest.approx(
        math.sqrt(stencil[0, 0] + stencil[1, 1] - 2 * stencil[0, 1]), rel=1e-4
    )
    if name != RIDGE:
        se = np.sqrt(np.diag(stencil))
        assert np.all(np.abs(np.array([res.se_lambda, res.se_mu]) - se) <= 1e-2 * se)
        return
    _, hess = derivatives(theta)
    h = 1e-3
    cols = []
    for e in np.eye(2) * h:
        grad = [derivatives(theta + d * e)[0] for d in (2, 1, -1, -2)]
        cols.append((-grad[0] + 8 * grad[1] - 8 * grad[2] + grad[3]) / (12 * h))
    ref = np.array(cols).T
    assert np.all(np.abs(hess - ref) <= 1e-6 * np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# the Nelder-Mead continuation


def _beside_a_hole(x):
    # -inf right of x0 = 0.5, optimum at (0.4, 0.2)
    if x[0] > 0.5:
        return -math.inf
    return -((x[0] - 0.4) ** 2) - (x[1] - 0.2) ** 2


def test_continuation_runs_where_there_is_no_model():
    # no model at the start, as at a degenerate law of the exact likelihood
    res = maximize_2d(_beside_a_hole, [0.5 - 1e-7, 0.0], derivatives=lambda x: None)
    assert res.continued and res.n_runs == 2 and res.newton_iterations == 0
    assert abs(res.x[0] - 0.4) < 1e-6 and abs(res.x[1] - 0.2) < 1e-6
    # without a model at the optimum there is no Hessian
    assert res.hessian is None


def test_continuation_runs_when_the_halvings_run_out():
    # a model whose optimum (5, 0.2) lies deep in the hole: every probe
    # along its clipped step is -inf or lower than the start, and the 30th
    # halving still leaves the step above XATOL
    def derivatives(x):
        return np.array([-2.0 * (x[0] - 5.0), -2.0 * (x[1] - 0.2)]), -2.0 * np.eye(2)

    res = maximize_2d(_beside_a_hole, [0.5 - 1e-7, 0.2], derivatives=derivatives)
    assert res.continued and res.n_runs == 2
    assert res.newton_iterations == 1 and res.rejected == 30
    assert abs(res.x[0] - 0.4) < 1e-6 and abs(res.x[1] - 0.2) < 1e-6


def test_a_run_halved_down_to_xatol_stalls_and_continues():
    # a model that points away from the optimum (1, 1) with a small step:
    # its halvings shrink the step to XATOL within 30 probes, none of them
    # improving, so the run stalls (it does not converge) and Nelder-Mead
    # takes over from the start
    def quadratic(x):
        return -((x[0] - 1.0) ** 2) - (x[1] - 1.0) ** 2

    def wrong_way(x):
        return 2.0 * (np.asarray(x) - 1.0), -1e3 * np.eye(2)

    res = maximize_2d(quadratic, [0.0, 0.0], derivatives=wrong_way)
    assert res.continued and res.converged
    assert res.newton_iterations == 1 and res.rejected == 21
    assert abs(res.x[0] - 1.0) < 1e-6 and abs(res.x[1] - 1.0) < 1e-6


def test_a_failed_probe_within_the_value_tolerance_ends_the_run():
    # values rounded to steps of 1e-10, as a likelihood rounds near its
    # optimum: the start and the optimum read alike, so the first probe
    # fails, and its step promised far less than the value tolerance
    def rounded(x):
        return -1e-10 * round((x[0] ** 2 + x[1] ** 2) / 1e-10)

    def derivatives(x):
        return -2.0 * np.asarray(x, dtype=float), -2.0 * np.eye(2)

    res = maximize_2d(rounded, [1e-6, -1e-6], derivatives=derivatives)
    assert res.converged and not res.continued
    assert res.n_evals == 2 and res.rejected == 1
    assert res.x == (1e-6, -1e-6)


COLLAPSE = Panel((Trajectory((0.0, 0.2, 3.4), (25, 1, 1)),))
ONE_STEP = Panel((Trajectory((0.0, 0.5718816614534702), (6, 9)),))
PURE_DEATH_EDGE = Panel((Trajectory((0.0, 1.75, 1.9), (19, 2, 2)),))


def test_collapse_spmle_reaches_the_nelder_mead_loglik():
    # the spmle surface has -inf holes near the start; the search must step
    # around them to the optimum at -6.864231
    res = fit(COLLAPSE, "spmle")
    assert res.loglik >= -6.8643


# the Newton run of this spmle fit stalls, and one Nelder-Mead run takes
# it to the optimum
CONTINUED = Panel(
    (
        Trajectory((0.0, 1.0, 1.03125), (274, 9, 0)),
        Trajectory((0.0, 0.03125, 1.03125, 3.349820538227884, 5.349820538227884), (1094, 0, 0, 0, 0)),
    )
)


def test_continued_fit_reaches_its_loglik_in_one_run():
    res = fit(CONTINUED, "spmle")
    assert res.continued and res.converged
    assert res.loglik == pytest.approx(-7.5939, abs=5e-5)
    assert res.n_obj_evals <= 450


@pytest.mark.parametrize("method", LIKELIHOODS)
def test_value_gain_stop_ends_the_boundary_crawl(method):
    # the optimum is at mu -> 0; the clipped Newton steps crawl toward it
    # until a step gains at most FATOL*max(1, |f|)
    res = fit(ONE_STEP, method)
    assert res.converged and not res.continued
    assert res.newton_iterations < 100
    assert res.rates.mu < 1e-6 * res.rates.lam


@pytest.mark.parametrize("method", LIKELIHOODS)
def test_boundary_fit_reports_no_covariance(method):
    # the information at mu -> 0 says nothing about the estimator's spread;
    # mle's crawl stops at mu = 5.2e-9, where its model would still give one
    res = fit(ONE_STEP, method)
    assert res.rates.mu < 1e-6 * res.rates.lam
    assert res.cov is None and res.se_mu is None


# both saddlepoint objectives grow without bound as lambda -> 0 here
# (ROADMAP item 6); their Newton runs stop near lambda = e^-71
@pytest.mark.parametrize("method", LIKELIHOODS)
def test_pure_death_edge_panel_returns(method):
    res = fit(PURE_DEATH_EDGE, method)
    assert math.isfinite(res.loglik)


# ---------------------------------------------------------------------------
# property: only BdError leaves fit or compare, and no RuntimeWarning
# (pytest's filter turns one into a failure)


@st.composite
def small_panels(draw):
    trajectories = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(2, 5))
        gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
        times = tuple(float(t) for t in np.concatenate([[0.0], np.cumsum(gaps)]))
        counts = [draw(st.integers(1, 40))]
        for _ in range(n - 1):
            counts.append(0 if counts[-1] == 0 else draw(st.integers(0, 60)))
        trajectories.append(Trajectory(times, tuple(counts)))
    return Panel(tuple(trajectories))


# the examples' fits probe rates where the saddlepoint quadratic's
# coefficients overflow; the last three carry counts past the strategy's
# range, where the conditional CGF's curvature or the quadratic's array
# coefficient overflows
@settings(max_examples=40, deadline=None)
@given(panel=small_panels(), method=st.sampled_from(LIKELIHOODS))
@example(
    panel=Panel(
        (
            Trajectory((0.0, 0.25, 1.5534828466184352, 1.5634828466184352), (40, 50, 3, 48)),
            Trajectory((0.0, 0.25), (1, 0)),
        )
    ),
    method="spmle",
)
@example(
    panel=Panel(
        (
            Trajectory((0.0, 0.23828125, 1.5417640966184352, 1.5517640966184352), (40, 50, 3, 48)),
            Trajectory((0.0, 0.25), (1, 0)),
        )
    ),
    method="spmle",
)
@example(
    panel=Panel(
        (
            Trajectory((0.0, 2.0, 3.0, 6.0), (1405, 2946, 0, 0)),
            Trajectory((0.0, 0.03125, 0.53125, 0.5625, 3.5625), (1428, 1, 66, 306, 3)),
        )
    ),
    method="spmle_adjusted",
)
@example(
    panel=Panel(
        (Trajectory((0.0, 0.03125, 1.5596453520209497, 4.000807155283514), (2, 1202, 95, 61)),)
    ),
    method="spmle_adjusted",
)
@example(
    panel=Panel(
        (
            Trajectory((0.0, 2.0, 2.5, 3.365602721173814), (108, 1044, 2615, 59)),
            Trajectory((0.0, 0.5, 0.53125, 0.5625, 3.4931759613559317), (281, 6, 288, 852, 151)),
        )
    ),
    method="spmle",
)
def test_only_typed_errors_leave_fit(panel, method):
    try:
        res = fit(panel, method)
    except BdError:
        return
    assert math.isfinite(res.loglik)
    assert res.newton_iterations >= 0


# compare() catches BdError only, so any other exception fails the test;
# the example is an all-extinction panel whose qg profile rises toward
# omega -> -inf; the widened qg scan overflowed on its growth side
@settings(max_examples=15, deadline=None)
@given(panel=small_panels())
@example(panel=Panel((Trajectory((0.0, 1.0), (1, 0)), Trajectory((0.0, 2.0), (1, 0)))))
def test_compare_rows_carry_a_result_or_an_error(panel):
    rows = compare(panel)
    assert [r.method for r in rows] == ["gw", "qg", "spmle", "spmle_adjusted", "mle"]
    for row in rows:
        assert (row.result is None) != (row.error is None)
        if row.result is None:
            assert issubclass(getattr(errors, row.error.split(":")[0]), BdError)
        else:
            assert row.result.method == row.method
