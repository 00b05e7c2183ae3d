"""The search in Python floats against the search on numpy 2-vectors that
it replaced (kept in legacy_kernels): maximize_2d, _newton_step and
numeric_hessian_se return the same results bit for bit, on seeded
objectives, on objectives with a -inf wall, on runs that stall and
continue into Nelder-Mead, and on the likelihood fits."""

import math

import legacy_kernels as legacy
import numpy as np
import pytest
import test_exact_table
import test_newton_search
import test_newton_step
import test_table_consumers

from bdrates import estimate, optimize
from bdrates.estimate import fit
from bdrates.optimize import _newton_step, maximize_2d, numeric_hessian_se
from bdrates.types import Panel


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("kind", test_newton_step.KINDS)
def test_step_equals_the_vector_step_bit_for_bit(kind):
    rng = np.random.default_rng(100 + test_newton_step.KINDS.index(kind))
    for grad, hess in test_newton_step._cases(kind, rng):
        for radius in (optimize.MAX_STEP, 1e-3):
            got = _newton_step((grad, hess), radius)
            ref = legacy.newton_step_vector((grad, hess), radius)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert _bits(got[0]) == _bits(ref[0]) and _bits(got[1]) == _bits(ref[1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0,), (0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_non_finite_entry_gives_no_step_in_either_form(bad, where):
    grad, hess = np.array([1.0, -2.0]), np.array([[-2.0, 0.5], [0.5, -1.0]])
    (grad if len(where) == 1 else hess)[where] = bad
    assert _newton_step((grad, hess)) is None
    assert legacy.newton_step_vector((grad, hess)) is None


def _recording(objective):
    """objective, and the points it was asked at, as bytes."""
    points = []

    def wrapped(x):
        assert isinstance(x, np.ndarray) and x.shape == (2,)
        points.append(x.tobytes())
        return objective(x)

    return wrapped, points


def _same_search(objective, x0, derivatives, **kwargs):
    """Run both searches; assert every field of the results, and every
    point asked of the objective and of the derivatives, bit for bit."""
    runs = []
    for search in (maximize_2d, legacy.maximize_2d_vector):
        obj, points = _recording(objective)
        der, der_points = _recording(derivatives)
        runs.append((search(obj, x0, derivatives=der, **kwargs), points, der_points))
    (got, points, der_points), (ref, ref_points, ref_der_points) = runs
    assert points == ref_points and der_points == ref_der_points
    assert isinstance(got.x, tuple) and _bits(got.x) == _bits(ref.x)
    assert _bits(got.fun) == _bits(ref.fun)
    for name in ("n_evals", "rejected", "newton_iterations", "continued", "converged"):
        assert getattr(got, name) == getattr(ref, name), name
    assert (got.hessian is None) == (ref.hessian is None)
    if ref.hessian is not None:
        assert _bits(got.hessian) == _bits(ref.hessian)
    return got


def test_seeded_smooth_objectives_search_alike():
    # a concave bowl with a cross term and a log-likelihood-like surface,
    # from seeded starts; the second has no closed-form optimum
    rng = np.random.default_rng(23)
    for _ in range(40):
        centre = rng.normal(size=2) * 3.0
        a, b, c = np.exp(rng.normal(size=3))
        cross = 0.9 * math.sqrt(a * b) * rng.uniform(-1.0, 1.0)
        hess = -np.array([[a, cross], [cross, b]])
        n0, n1 = np.exp(rng.normal(size=2) * 2.0)

        def bowl(x):
            d = x - centre
            return 0.5 * float(d @ hess @ d) - c * float(np.sum(d**4))

        def bowl_model(x):
            d = x - centre
            return hess @ d - 4.0 * c * d**3, hess - np.diag(12.0 * c * d**2)

        def loglik(x):
            return n0 * x[0] + n1 * x[1] - math.exp(x[0]) - math.exp(x[1]) - math.exp(x[0] - x[1])

        def loglik_model(x):
            e0, e1, e01 = math.exp(x[0]), math.exp(x[1]), math.exp(x[0] - x[1])
            grad = np.array([n0 - e0 - e01, n1 - e1 + e01])
            return grad, np.array([[-e0 - e01, e01], [e01, -e1 - e01]])

        start = rng.normal(size=2) * 2.0
        res = _same_search(bowl, start, bowl_model)
        assert res.converged and not res.continued
        _same_search(loglik, start, loglik_model)


def test_a_wall_of_minus_inf_searches_alike():
    # the carried radius against a -inf wall at x0 = 0, and the rounded
    # objective whose failed probe ends the run
    def wall(x):
        return -((-x[0]) ** 1.25) - x[1] ** 2 if x[0] < 0.0 else -math.inf

    def wall_model(x):
        d = -x[0]
        return np.array([1.25 * d**0.25, -2.0 * x[1]]), np.diag([-0.3125 * d**-0.75, -2.0])

    res = _same_search(wall, [-1.0, 0.0], wall_model)
    assert res.rejected >= 20 and not res.continued

    def rounded(x):
        return -1e-10 * round((x[0] ** 2 + x[1] ** 2) / 1e-10)

    def rounded_model(x):
        return -2.0 * np.asarray(x, dtype=float), -2.0 * np.eye(2)

    _same_search(rounded, [1e-6, -1e-6], rounded_model)


def test_runs_that_stall_and_continue_into_nelder_mead_search_alike():
    hole = test_newton_search._beside_a_hole

    def into_the_hole(x):
        return np.array([-2.0 * (x[0] - 5.0), -2.0 * (x[1] - 0.2)]), -2.0 * np.eye(2)

    def wrong_way(x):
        return 2.0 * (np.asarray(x) - 1.0), -1e3 * np.eye(2)

    def quadratic(x):
        return -((x[0] - 1.0) ** 2) - (x[1] - 1.0) ** 2

    for objective, x0, derivatives in [
        (hole, [0.5 - 1e-7, 0.2], into_the_hole),  # 30 halvings fail
        (hole, [0.5 - 1e-7, 0.0], lambda x: None),  # no model at all
        (quadratic, [0.0, 0.0], wrong_way),  # halved down to XATOL
    ]:
        res = _same_search(objective, x0, derivatives)
        assert res.continued
    # a continuation cut short by maxiter
    res = _same_search(quadratic, [3.0, -2.0], lambda x: None, maxiter=30)
    assert res.continued and not res.converged


FITS = {
    **{f"exact_table.{k}": p for k, p in test_exact_table.PANELS.items()},
    **{f"table_consumers.{k}": p for k, p in test_table_consumers.PANELS.items()},
    "continued": test_newton_search.CONTINUED,
    "creep": test_newton_search.CREEP,
    "one_step": test_newton_search.ONE_STEP,
}


@pytest.mark.parametrize("method", ["spmle", "spmle_adjusted", "mle"])
@pytest.mark.parametrize("name", sorted(FITS))
def test_fits_equal_the_vector_search_bit_for_bit(monkeypatch, name, method):
    got = fit(Panel(FITS[name].trajectories), method)
    with monkeypatch.context() as patch:
        patch.setattr(estimate, "maximize_2d", legacy.maximize_2d_vector)
        patch.setattr(estimate, "numeric_hessian_se", legacy.numeric_hessian_se_array)
        ref = fit(Panel(FITS[name].trajectories), method)
    assert _bits([got.rates.lam, got.rates.mu, got.loglik]) == _bits(
        [ref.rates.lam, ref.rates.mu, ref.loglik]
    )
    assert (got.cov is None) == (ref.cov is None)
    if ref.cov is not None:
        assert _bits(got.cov) == _bits(ref.cov)
    for field in ("n_obj_evals", "rejected_probes", "newton_iterations", "continued", "converged"):
        assert getattr(got, field) == getattr(ref, field), field
    if name in ("continued", "creep") and method == "spmle":
        assert got.continued


def _hessians(rng):
    """Seeded Hessians of every kind numeric_hessian_se meets: negative
    definite over twelve decades, indefinite, singular, with a zero
    cross term of either sign, and not finite."""
    for _ in range(300):
        h = test_newton_step._sym(-(10.0 ** rng.uniform(-6, 6, size=2)), rng.uniform(-3, 3))
        yield h
        yield test_newton_step._sym([-(10.0 ** rng.uniform(-3, 3)), rng.uniform(-1, 1)], 0.7)
    yield np.array([[-2.0, 0.0], [0.0, -3.0]])
    yield np.array([[-2.0, -0.0], [-0.0, -3.0]])
    yield np.array([[-1.0, 1.0], [1.0, -1.0]])
    yield np.array([[-1.0, math.nan], [math.nan, -1.0]])
    yield np.array([[-math.inf, 0.0], [0.0, -1.0]])


def test_covariance_equals_the_matrix_form_bit_for_bit():
    rng = np.random.default_rng(31)
    formed = 0
    for hess in _hessians(rng):
        theta = rng.normal(size=2) * 3.0
        for th in (theta, [0.0, math.log(0.9e-6)]):
            got, ref = numeric_hessian_se(th, hess), legacy.numeric_hessian_se_array(th, hess)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert got.shape == (2, 2) and _bits(got) == _bits(ref)
                formed += 1
    assert formed >= 300


def test_a_subnormal_determinant_gives_no_covariance():
    # det = 1e-310 makes the inverse's first entry overflow: the matrix
    # form read NaN off the diagonal (0 * inf), and no covariance is formed
    hess = -np.array([[1e-310, 0.0], [0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        ref = legacy.numeric_hessian_se_array([0.0, 0.0], hess)
    assert np.isnan(ref[0, 1])
    assert numeric_hessian_se([0.0, 0.0], hess) is None
