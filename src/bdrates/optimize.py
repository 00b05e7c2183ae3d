"""2-D maximization: damped Newton steps on the objective's analytic
derivatives, with one Nelder-Mead run as the continuation.

Every likelihood objective in this package is a smooth function of
(log lambda, log mu), and each supplies its gradient and Hessian: the
exact likelihood from its term table, the saddlepoint likelihoods by
implicit differentiation at their saddlepoints. The search takes Newton
steps: the Hessian's eigenvalues are floored to make it negative
definite, the step is clipped to max-norm MAX_STEP and halved on every
rejected or non-improving probe. A run stops once a step starts at most
XATOL or an accepted step gains at most FATOL*max(1, |f|), or when a
probe fails although the model promised at most that gain for the full
step: the run then stands at the optimum to within the objective's own
rounding, which no halving of the step can beat. The Hessian
of the last model is returned with the optimum, so the standard errors
cost no further evaluations.

A Newton run stalls when it cannot form a finite model, or when its
halvings fail MAX_HALVINGS times or shrink a step to XATOL without an
improving probe. It then hands its best point to one Nelder-Mead run,
which steps around holes where the objective is -inf (a saddlepoint
solve that fails across a wall of rates, for instance). The Hessian at
that run's optimum comes from the derivatives there, or there is none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError

__all__ = ["OptResult", "maximize_2d", "numeric_hessian_se"]

# Stopping tolerances on the step (and on the Nelder-Mead simplex) and on
# the value
XATOL = 1e-9
FATOL = 1e-9
# Newton step: largest coordinate move, relative floor on the curvature
# magnitudes, and the halvings tried before the run hands over
MAX_STEP = 2.0
EIG_FLOOR = 1e-8
MAX_HALVINGS = 30
# a fit whose smaller rate is below this share of the larger lies on the
# boundary of the parameter space, where the information is no guide to
# the estimator's spread
BOUNDARY_RATIO = 1e-6

Model = tuple[np.ndarray, np.ndarray]  # gradient and Hessian of the objective


@dataclass(frozen=True)
class OptResult:
    """Outcome of a maximization: location, value, bookkeeping.

    rejected counts Newton probes that were non-finite or did not
    improve; continued reports whether a Nelder-Mead run continued a
    stalled Newton run. hessian is the objective's Hessian at x from the
    derivatives, or None where they give no model there."""

    x: tuple[float, float]
    fun: float
    n_evals: int
    converged: bool
    newton_iterations: int = 0
    rejected: int = 0
    continued: bool = False
    hessian: Optional[np.ndarray] = None

    @property
    def n_runs(self) -> int:
        """The Newton run, plus the Nelder-Mead run of a continued search
        (read by perfbench's tracer)."""
        return 1 + self.continued


def numeric_hessian_se(
    theta_hat: Sequence[float], hessian: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Covariance of (lambda, mu) from the observed information.

    hessian is the Hessian of the maximized log-likelihood, as a function
    of (log lambda, log mu), at theta_hat. Its negation is inverted, then
    pushed through the Jacobian diag(lambda, mu) of the exp map. Returns
    None when there is no Hessian, when the smaller rate is below
    BOUNDARY_RATIO of the larger (a boundary fit), or when the negated
    Hessian is not finite and positive definite. (perfbench's tracer
    patches this function by its name.)
    """
    if hessian is None:
        return None
    th = np.asarray(theta_hat, dtype=float)
    lam, mu = math.exp(th[0]), math.exp(th[1])
    if min(lam, mu) < BOUNDARY_RATIO * max(lam, mu):
        return None
    h00, h01, h11 = -hessian[0, 0], -hessian[0, 1], -hessian[1, 1]
    if not (math.isfinite(h00) and math.isfinite(h11) and math.isfinite(h01)):
        return None
    det = h00 * h11 - h01 * h01
    if h00 <= 0.0 or det <= 0.0:
        return None
    inv = np.array([[h11, -h01], [-h01, h00]]) / det
    jac = np.diag([lam, mu])
    cov = jac @ inv @ jac
    cov[1, 0] = cov[0, 1]
    if cov[0, 0] < 0.0 or cov[1, 1] < 0.0:
        return None
    return cov


def _newton_step(model: Optional[Model]) -> Optional[tuple[np.ndarray, float]]:
    """Ascent step of the model with its Hessian's eigenvalues floored to
    at most -EIG_FLOOR*max(1, max |eigenvalue|), clipped to max-norm
    MAX_STEP, and the gain that floored model predicts for it; None when
    the model or the step is not finite."""
    if model is None:
        return None
    grad, hess = model
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        return None
    eig, vec = np.linalg.eigh(hess)
    eig = np.minimum(eig, -EIG_FLOOR * max(1.0, float(np.max(np.abs(eig)))))
    along = vec.T @ grad
    with np.errstate(over="ignore", invalid="ignore"):
        coef = along / eig
        step = -vec @ coef
    if not np.all(np.isfinite(step)):
        return None
    # the full step gains q = -along . coef >= 0 on the floored model, a
    # step scaled by c gains q*c*(1 - c/2)
    q = -float(along @ coef)
    size = float(np.max(np.abs(step)))
    if size > MAX_STEP:
        c = MAX_STEP / size
        return step * c, q * c * (1.0 - 0.5 * c)
    return step, 0.5 * q


def maximize_2d(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    *,
    derivatives: Callable[[np.ndarray], Optional[Model]],
    maxiter: int = 2000,
) -> OptResult:
    """Maximize a 2-D objective: damped Newton steps on its derivatives,
    continued by one Nelder-Mead run (the module docstring).

    The objective may return -inf (or nan, treated the same) to reject a
    point; it must be finite at x0, else DomainError. derivatives(x),
    asked only at a point just passed to objective, returns the
    objective's gradient and Hessian there, or None where it has none.
    At most maxiter Newton steps are taken; converged reports whether
    the run stopped on XATOL or FATOL.

    When the Newton run stalls, Nelder-Mead searches from the run's best
    point for at most maxiter iterations (a derivatives that always
    returns None makes this a Nelder-Mead search from the start), and
    converged reports whether it stopped on its simplex tolerances.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"expected a 2-vector start, got shape {x.shape}")
    n_evals = 0

    def evaluate(point: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        val = float(objective(point))
        # nan and +inf both mean the probe broke down numerically; -inf is
        # a legitimate log-zero rejection. All three reject the probe.
        return val if math.isfinite(val) else -math.inf

    f = evaluate(x)
    if f == -math.inf:
        raise DomainError(f"objective is not finite at the starting point {x.tolist()}")

    model = derivatives(x)
    iterations = rejected = 0
    status = "maxiter"  # or "converged", or "stalled" to continue
    while status == "maxiter" and iterations < maxiter:
        newton = _newton_step(model)
        if newton is None:
            status = "stalled"
            break
        step, promised = newton
        iterations += 1
        if np.max(np.abs(step)) <= XATOL:
            status = "converged"
            break
        # a run whose halvings all fail, or shrink the step to XATOL,
        # stalls: its model gives no way up from x
        status = "stalled"
        for _ in range(MAX_HALVINGS):
            f_new = evaluate(x + step)
            if f_new > f:
                gain = f_new - f
                x, f = x + step, f_new
                model = derivatives(x)
                status = "converged" if gain <= FATOL * max(1.0, abs(f)) else "maxiter"
                break
            rejected += 1
            if promised <= FATOL * max(1.0, abs(f)):
                # a failed probe of a step worth at most the value
                # tolerance is rounding in the objective: halving it only
                # probes the same point again, down to XATOL
                status = "converged"
                break
            step = 0.5 * step
            if np.max(np.abs(step)) <= XATOL:
                break
    bookkeeping = dict(newton_iterations=iterations, rejected=rejected)
    if status != "stalled":
        return OptResult(
            x=(float(x[0]), float(x[1])),
            fun=f,
            n_evals=n_evals,
            converged=status == "converged",
            hessian=None if model is None else model[1],
            **bookkeeping,
        )

    # rejected probes sit at +inf in the simplex; scipy's fatol check then
    # computes inf-inf, which is harmless but noisy without the errstate
    with np.errstate(invalid="ignore"):
        best = minimize(
            lambda point: -evaluate(point),
            x,
            method="Nelder-Mead",
            options={
                "xatol": XATOL,
                "fatol": FATOL,
                "maxiter": maxiter,
                "maxfev": 4 * maxiter,
            },
        )
    x = np.asarray(best.x, dtype=float)
    model = derivatives(x) if evaluate(x) > -math.inf else None
    return OptResult(
        x=(float(x[0]), float(x[1])),
        fun=-float(best.fun),
        n_evals=n_evals,
        converged=bool(best.success),
        continued=True,
        hessian=None if model is None else model[1],
        **bookkeeping,
    )
