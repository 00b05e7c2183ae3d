"""2-D maximization: damped Newton steps on the objective's analytic
derivatives, with Nelder-Mead as the continuation.

Every likelihood objective in this package is a smooth function of
(log lambda, log mu), and each supplies its gradient and Hessian: the
exact likelihood from its term table, the saddlepoint likelihoods by
implicit differentiation at their saddlepoints. The search takes Newton
steps: the Hessian's eigenvalues are floored to make it negative
definite, the step is clipped to max-norm MAX_STEP and halved on every
rejected or non-improving probe. A run stops once a step is at most
XATOL or an accepted step gains at most FATOL*max(1, |f|), or when a
probe fails although the model promised at most that gain for the full
step: the run then stands at the optimum to within the objective's own
rounding, which no halving of the step can beat. The Hessian
of the last model is returned with the optimum, so the standard errors
cost no further evaluations.

A Newton run that cannot form a finite model, or that halves its step
MAX_HALVINGS times without an improving probe, hands its best point to
the Nelder-Mead search, which steps around holes where the objective is
-inf. Each Nelder-Mead run's optimum is checked on the 9-point
central-difference stencil that the standard errors then use (8 more
evaluations; the centre is the run's own value): it is accepted when
the run converged, every stencil value is finite and the centre is at
least each of its 8 neighbours, a check on local information in the
spirit of Kelley (1999, SIAM J. Optim. 10:43-55). Only a point that
fails it starts a further run from a perturbed point; a run that does
not beat that point by more than the value tolerance ends the restarts.
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
# the value, and the standard deviation of the Gaussian perturbation that
# starts a Nelder-Mead restart
XATOL = 1e-9
FATOL = 1e-9
PERTURB_SCALE = 0.25
# Newton step: largest coordinate move, relative floor on the curvature
# magnitudes, and the halvings tried before the run hands over
MAX_STEP = 2.0
EIG_FLOOR = 1e-8
MAX_HALVINGS = 30
# a fit whose smaller rate is below this share of the larger lies on the
# boundary of the parameter space, where the information is no guide to
# the estimator's spread
BOUNDARY_RATIO = 1e-6

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)

Model = tuple[np.ndarray, np.ndarray]  # gradient and Hessian of the objective


@dataclass(frozen=True)
class OptResult:
    """Outcome of a maximization: location, value, bookkeeping.

    n_runs counts the Newton run and each Nelder-Mead run; rejected
    counts Newton probes that were non-finite or did not improve;
    continued reports whether Nelder-Mead continued a Newton run.
    hessian is the objective's Hessian at x: from derivatives where they
    give a model there, else from the stencil that confirmed a
    Nelder-Mead optimum; None when there is none."""

    x: tuple[float, float]
    fun: float
    n_evals: int
    converged: bool
    n_runs: int
    newton_iterations: int = 0
    rejected: int = 0
    continued: bool = False
    hessian: Optional[np.ndarray] = None


def numeric_hessian_se(
    objective: Callable[[np.ndarray], float],
    theta_hat: Sequence[float],
    hessian: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Covariance of (lambda, mu) from the observed information.

    objective is the maximized log-likelihood as a function of
    (log lambda, log mu). hessian is its Hessian at theta_hat when known
    (from the search); otherwise it is formed on the 9-point stencil
    (_stencil). The negated Hessian is inverted, then pushed through the
    Jacobian diag(lambda, mu) of the exp map. Returns None when the
    smaller rate is below BOUNDARY_RATIO of the larger (a boundary fit;
    no stencil is evaluated), when the negated Hessian is not positive
    definite, or when any stencil value is non-finite.
    """
    th = np.asarray(theta_hat, dtype=float)
    lam, mu = math.exp(th[0]), math.exp(th[1])
    if min(lam, mu) < BOUNDARY_RATIO * max(lam, mu):
        return None
    if hessian is None:
        _, hessian = _stencil(objective, th, objective(th))
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


def _stencil(
    objective: Callable[[np.ndarray], float], th: np.ndarray, centre: float
) -> tuple[np.ndarray, np.ndarray]:
    """The 8 neighbours of th on the 9-point central-difference stencil,
    per-coordinate step eps^(1/3) * max(1, |theta|), and the Hessian they
    form with centre, the objective's value at th."""
    h = _EPS_CBRT * np.maximum(1.0, np.abs(th))

    def g(d0: float, d1: float) -> float:
        return objective(np.array([th[0] + d0, th[1] + d1]))

    east, west, north, south = g(h[0], 0.0), g(-h[0], 0.0), g(0.0, h[1]), g(0.0, -h[1])
    corners = g(h[0], h[1]), g(h[0], -h[1]), g(-h[0], h[1]), g(-h[0], -h[1])
    h00 = (east - 2.0 * centre + west) / (h[0] * h[0])
    h11 = (north - 2.0 * centre + south) / (h[1] * h[1])
    h01 = (corners[0] - corners[1] - corners[2] + corners[3]) / (4.0 * h[0] * h[1])
    values = np.array([east, west, north, south, *corners], dtype=float)
    return values, np.array([[h00, h01], [h01, h11]])


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
    restarts: int = 3,
    maxiter: int = 2000,
    seed: int = 0,
) -> OptResult:
    """Maximize a 2-D objective: damped Newton steps on its derivatives,
    continued by Nelder-Mead (the module docstring).

    The objective may return -inf (or nan, treated the same) to reject a
    point; it must be finite at x0, else DomainError. derivatives(x),
    asked only at a point just passed to objective, returns the
    objective's gradient and Hessian there, or None where it has none.
    At most maxiter Newton steps are taken; converged reports whether
    the run stopped on XATOL or FATOL.

    When a Newton run meets a point without a finite model or runs out
    of halvings, Nelder-Mead searches from the run's best point, and the
    9-point stencil at the run's optimum checks it (a derivatives that
    always returns None makes this a Nelder-Mead search from the start).
    While the incumbent fails the check, up to
    restarts further runs start from it plus Gaussian noise of scale
    PERTURB_SCALE drawn from a generator seeded by seed; the first run
    that does not beat the incumbent by more than FATOL*max(1, |f|) ends
    them, and the incumbent stays. converged then reports whether the
    best Nelder-Mead run stopped on its simplex tolerances, each run
    taking at most maxiter iterations.
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
        for _ in range(MAX_HALVINGS):
            if np.max(np.abs(step)) <= XATOL:
                status = "converged"
                break
            f_new = evaluate(x + step)
            if f_new > f:
                gain = f_new - f
                x, f = x + step, f_new
                model = derivatives(x)
                if gain <= FATOL * max(1.0, abs(f)):
                    status = "converged"
                break
            rejected += 1
            if promised <= FATOL * max(1.0, abs(f)):
                # a failed probe of a step worth at most the value
                # tolerance is rounding in the objective: halving it only
                # probes the same point again, down to XATOL
                status = "converged"
                break
            step = 0.5 * step
        else:
            status = "stalled"
    bookkeeping = dict(newton_iterations=iterations, rejected=rejected)
    if status != "stalled":
        return OptResult(
            x=(float(x[0]), float(x[1])),
            fun=f,
            n_evals=n_evals,
            converged=status == "converged",
            n_runs=1,
            hessian=None if model is None else model[1],
            **bookkeeping,
        )

    # the Hessian comes from derivatives, as on the Newton path, else from
    # the stencil that confirmed the Nelder-Mead optimum
    best, n_runs, nm_hessian = _nelder_mead(evaluate, x, restarts, maxiter, seed)
    x = np.asarray(best.x, dtype=float)
    model = derivatives(x) if evaluate(x) > -math.inf else None
    return OptResult(
        x=(float(x[0]), float(x[1])),
        fun=-float(best.fun),
        n_evals=n_evals,
        converged=bool(best.success),
        n_runs=1 + n_runs,
        continued=True,
        hessian=nm_hessian if model is None else model[1],
        **bookkeeping,
    )


def _nelder_mead(evaluate, x_start: np.ndarray, restarts: int, maxiter: int, seed: int):
    """Nelder-Mead from x_start, then from perturbed incumbents while the
    incumbent fails the stencil check (_confirm) and each restart beats
    it by more than FATOL*max(1, |f|); the best scipy result
    (of the negated objective), the number of runs and the Hessian of
    the stencil that confirmed it, or None when none did."""

    def negated(x: np.ndarray) -> float:
        return -evaluate(x)

    def run(start: np.ndarray):
        # rejected probes sit at +inf in the simplex; scipy's fatol check then
        # computes inf-inf, which is harmless but noisy without the errstate
        with np.errstate(invalid="ignore"):
            return minimize(
                negated,
                start,
                method="Nelder-Mead",
                options={
                    "xatol": XATOL,
                    "fatol": FATOL,
                    "maxiter": maxiter,
                    "maxfev": 4 * maxiter,
                },
            )

    rng = np.random.default_rng(seed)
    best = run(x_start)
    n_runs = 1
    hessian = _confirm(evaluate, best)
    while hessian is None and n_runs <= restarts:
        res = run(best.x + PERTURB_SCALE * rng.standard_normal(2))
        n_runs += 1
        # a restart that gains at most FATOL*max(1, |f|) confirms the
        # incumbent as far as a restart can (at a -inf hole or on a flat
        # ridge the check fails at the true optimum); more runs would land
        # there too
        if res.fun >= best.fun - FATOL * max(1.0, abs(best.fun)):
            break
        best = res
        hessian = _confirm(evaluate, best)
    return best, n_runs, hessian


def _confirm(evaluate, res) -> Optional[np.ndarray]:
    """The stencil Hessian at a converged Nelder-Mead optimum whose value
    (-res.fun) is finite on the whole stencil and at least each of its 8
    neighbours; None, after no evaluation, for a run that did not
    converge, and None for a point that fails the check."""
    if not res.success:
        return None
    centre = -float(res.fun)
    neighbours, hessian = _stencil(evaluate, res.x, centre)
    if neighbours.min() > -math.inf and centre >= neighbours.max():
        return hessian
    return None
