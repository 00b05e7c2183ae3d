"""The closed-form Newton step of maximize_2d against the step it
replaced, which took the floored Hessian from numpy.linalg.eigh (kept in
legacy_kernels): the same step and promised gain to 1e-12 relative on
seeded symmetric matrices of every kind the search meets, and None where
the old step gave None."""

import math

import legacy_kernels as legacy
import numpy as np
import pytest

from bdrates.optimize import EIG_FLOOR, _newton_step


def _sym(eig, angle):
    """The symmetric matrix with eigenvalues eig along the rotation by
    angle, its off-diagonal entries set equal."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    h = rot @ np.diag(eig) @ rot.T
    h[0, 1] = h[1, 0]
    return h


def _cases(kind, rng):
    """(grad, hess) pairs of one kind. Eigenvalue magnitudes stay within
    two decades of each other, so that both decompositions resolve the
    smaller one to about 1e-14 relative; diagonal matrices, which both
    resolve exactly, span twelve decades."""
    for _ in range(200):
        grad = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3)
        angle = rng.uniform(-math.pi, math.pi)
        mags = 10.0 ** rng.uniform(-1, 1, size=2)
        if kind == "negative definite":
            yield grad, _sym(-mags, angle)
        elif kind == "diagonal":
            wide = 10.0 ** rng.uniform(-6, 6, size=2)
            yield grad, np.diag(-wide * rng.choice([-1.0, 1.0], size=2))
        elif kind == "repeated":
            e = -mags[0] * rng.choice([-1.0, 1.0])
            yield grad, _sym([e, e * (1.0 + rng.choice([0.0, 1e-15, 1e-10]))], angle)
            yield grad, e * np.eye(2)
        elif kind == "indefinite":
            yield grad, _sym([-mags[0], mags[1]], angle)
        elif kind == "floor active":
            # a positive or tiny eigenvalue is floored to -EIG_FLOOR*max
            tiny = mags[1] * rng.choice([1.0, 1e-9, 0.0, -1e-10, -1e-9])
            yield grad, _sym([-mags[0], tiny], angle)
        elif kind == "scaled":
            scale = 10.0 ** rng.uniform(-12, 12)
            signs = rng.choice([-1.0, 1.0], size=2)
            yield grad * scale, _sym(signs * mags * scale, angle)
        else:
            raise ValueError(kind)


KINDS = ["negative definite", "diagonal", "repeated", "indefinite", "floor active", "scaled"]


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_step_matches_the_eigh_step(kind):
    rng = np.random.default_rng(KINDS.index(kind) + 1)
    floored = 0
    for grad, hess in _cases(kind, rng):
        got, ref = _newton_step((grad, hess)), legacy._newton_step((grad, hess))
        if ref is None:
            assert got is None
            continue
        (step, promised), (ref_step, ref_promised) = got, ref
        scale = float(np.max(np.abs(ref_step)))
        assert np.max(np.abs(step - ref_step)) <= 1e-12 * scale, (grad, hess)
        assert abs(promised - ref_promised) <= 1e-12 * abs(ref_promised), (grad, hess)
        eig = np.linalg.eigvalsh(hess)
        floored += bool(np.any(eig > -EIG_FLOOR * max(1.0, float(np.max(np.abs(eig))))))
    if kind in ("indefinite", "floor active"):
        assert floored >= 100


def test_the_zero_matrix_floors_both_eigenvalues():
    grad = np.array([3.0, -4.0])
    got, ref = _newton_step((grad, np.zeros((2, 2)))), legacy._newton_step((grad, np.zeros((2, 2))))
    assert np.allclose(got[0], ref[0], rtol=1e-15, atol=0.0)
    assert got[1] == pytest.approx(ref[1], rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["grad", "diagonal", "off-diagonal"])
def test_non_finite_models_give_no_step(bad, where):
    grad, hess = np.array([1.0, -2.0]), np.array([[-2.0, 0.5], [0.5, -1.0]])
    if where == "grad":
        grad[1] = bad
    elif where == "diagonal":
        hess[1, 1] = bad
    else:
        hess[0, 1] = hess[1, 0] = bad
    assert legacy._newton_step((grad, hess)) is None
    assert _newton_step((grad, hess)) is None
    assert _newton_step(None) is None


def test_a_step_that_overflows_gives_none():
    # the floored curvature -EIG_FLOOR takes a gradient of 1e305 past the
    # float range
    grad, hess = np.array([1e305, -1e305]), np.zeros((2, 2))
    assert legacy._newton_step((grad, hess)) is None
    assert _newton_step((grad, hess)) is None
