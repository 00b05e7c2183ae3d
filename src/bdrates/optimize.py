"""2-D maximization: damped Newton steps on the objective's analytic
derivatives, with one Nelder-Mead run as the continuation.

Every likelihood objective in this package is a smooth function of
(log lambda, log mu), and each supplies its gradient and Hessian: the
exact likelihood from its term table, the saddlepoint likelihoods in
closed form from their saddlepoints. The search takes Newton steps: the
Hessian's eigenvalues are floored to make it negative definite (its 2x2
eigendecomposition is taken in closed form, without a LAPACK call), the
step is clipped to a trust radius in max-norm and halved on every
rejected or non-improving probe. The radius is carried between
iterations (Nocedal and Wright, Numerical Optimization, ch. 4): it starts
at MAX_STEP and, after each accepted step, becomes twice that step's
max-norm, capped at MAX_STEP. So a run whose steps keep overshooting a
wall of -inf probes (a saddlepoint root inside the guard band) starts
each step near the length that last got through, not at MAX_STEP again.
A run stops once a step starts at most XATOL or an accepted step gains
at most FATOL*max(1, |f|), or when a probe fails although the model
promised at most that gain for the full step: the run then stands at the
optimum to within the objective's own rounding, which no halving of the
step can beat. A step that the radius cut short shows nothing of the
model's full step, so where it gains or promises that little the run
retries from there at MAX_STEP instead of stopping: a run creeping along
a wall in short steps would otherwise stop beside it. The Hessian of
the last model is returned with the optimum, so the standard errors cost
no further evaluations.

A Newton run stalls when it cannot form a finite model, or when its
halvings fail MAX_HALVINGS times or shrink a step to XATOL without an
improving probe. It then hands its best point to one Nelder-Mead run,
which steps around holes where the objective is -inf (a saddlepoint
solve that fails across a wall of rates, for instance). The Hessian at
that run's optimum comes from the derivatives there, or there is none.

The search keeps its point, steps and tests in Python floats, and so
does the covariance (numeric_hessian_se): on 2-vectors numpy's per-call
cost outweighs the arithmetic, and a float operation rounds as the same
numpy operation does, so the floats give the bits the arrays gave. The
objective and the derivatives still receive the point as an array, the
derivatives return their gradient and Hessian as arrays, and the
Hessian and the covariance come back as 2x2 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

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
    of (log lambda, log mu), at theta_hat (a 2x2 array). Its negation is
    inverted, then pushed through the Jacobian diag(lambda, mu) of the exp
    map, in Python floats: entry (i, j) is rate_i * inverse_ij * rate_j,
    the bits of the matrix product. Returns None when there is no
    Hessian, when the smaller rate is below BOUNDARY_RATIO of the larger
    (a boundary fit), when the negated Hessian is not finite and positive
    definite, or when its inverse is not finite (a subnormal determinant,
    where the matrix product read NaN). (perfbench's tracer patches this
    function by its name.)
    """
    if hessian is None:
        return None
    lam, mu = math.exp(theta_hat[0]), math.exp(theta_hat[1])
    if min(lam, mu) < BOUNDARY_RATIO * max(lam, mu):
        return None
    (h00, h01), (_, h11) = hessian.tolist()
    h00, h01, h11 = -h00, -h01, -h11
    if not (math.isfinite(h00) and math.isfinite(h11) and math.isfinite(h01)):
        return None
    det = h00 * h11 - h01 * h01
    if h00 <= 0.0 or det <= 0.0:
        return None
    i00, i01, i11 = h11 / det, -h01 / det, h00 / det
    if not (math.isfinite(i00) and math.isfinite(i11) and math.isfinite(i01)):
        return None
    # + 0.0: a zero covariance reads +0.0, as the matrix product's sum gives it
    cov01 = lam * i01 * mu + 0.0
    return np.array([[lam * i00 * lam, cov01], [cov01, mu * i11 * mu]])


def _newton_step(
    model: Optional[Model], radius: float = MAX_STEP
) -> Optional[tuple[tuple[float, float], float]]:
    """Ascent step of the model with its Hessian's eigenvalues floored to
    at most -EIG_FLOOR*max(1, max |eigenvalue|), clipped to max-norm
    radius, and the gain that floored model predicts for it; None when
    the model or the step is not finite. The step is a pair of floats.

    The Hessian's lower triangle [[h00, .], [h10, h11]] is decomposed in
    closed form: the eigenvalue of larger magnitude e1 = m + sign(m) r,
    with m the mean of the diagonal and r = hypot((h00 - h11)/2, h10), and
    the other as det/e1 in the form of LAPACK's dlaev2, which loses
    nothing to cancellation; e1's eigenvector is taken from the row of
    H - e1 I that does not cancel either."""
    if model is None:
        return None
    grad, hess = model
    g0, g1 = grad.tolist()
    (h00, h01), (h10, h11) = hess.tolist()
    if not all(map(math.isfinite, (g0, g1, h00, h01, h10, h11))):
        return None
    m, d = 0.5 * (h00 + h11), 0.5 * (h00 - h11)
    sr = -math.hypot(d, h10) if m < 0.0 else math.hypot(d, h10)
    e1 = m + sr
    big, small = (h00, h11) if abs(h00) > abs(h11) else (h11, h00)
    e2 = (big / e1) * small - (h10 / e1) * h10 if e1 else 0.0
    # (e1 - h11, h10) = (d + sr, h10) and (h10, e1 - h00) = (h10, sr - d)
    # both span e1's eigenspace; take the one whose sum does not cancel
    u0, u1 = (d + sr, h10) if d * sr >= 0.0 else (h10, sr - d)
    norm = math.hypot(u0, u1)
    v0, v1 = (u0 / norm, u1 / norm) if norm else (1.0, 0.0)  # else H = e1 I
    floor = -EIG_FLOOR * max(1.0, abs(e1), abs(e2))
    e1, e2 = min(e1, floor), min(e2, floor)
    p1, p2 = v0 * g0 + v1 * g1, v0 * g1 - v1 * g0  # along (v0, v1) and (-v1, v0)
    c1, c2 = p1 / e1, p2 / e2
    s0, s1 = -(v0 * c1 - v1 * c2), -(v1 * c1 + v0 * c2)
    if not (math.isfinite(s0) and math.isfinite(s1)):
        return None
    # the full step gains q = -(p1 c1 + p2 c2) >= 0 on the floored model, a
    # step scaled by c gains q*c*(1 - c/2)
    q = -(p1 * c1 + p2 * c2)
    size = max(abs(s0), abs(s1))
    if size > radius:
        c = radius / size
        return (s0 * c, s1 * c), q * c * (1.0 - 0.5 * c)
    return (s0, s1), 0.5 * q


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
    point = np.asarray(x0, dtype=float)
    if point.shape != (2,):
        raise ValueError(f"expected a 2-vector start, got shape {point.shape}")
    # the search's arithmetic is on floats; point is x as the array that
    # the objective and the derivatives receive
    x = tuple(point.tolist())
    n_evals = 0

    def evaluate(at: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        val = float(objective(at))
        # nan and +inf both mean the probe broke down numerically; -inf is
        # a legitimate log-zero rejection. All three reject the probe.
        return val if math.isfinite(val) else -math.inf

    f = evaluate(point)
    if f == -math.inf:
        raise DomainError(f"objective is not finite at the starting point {list(x)}")

    model = derivatives(point)
    iterations = rejected = 0
    radius = MAX_STEP
    status = "maxiter"  # or "converged", or "stalled" to continue
    while status == "maxiter" and iterations < maxiter:
        newton = _newton_step(model, radius)
        if newton is None:
            status = "stalled"
            break
        step, promised = newton
        iterations += 1
        size = max(abs(step[0]), abs(step[1]))
        if size <= XATOL:
            status = "converged"
            break
        # the radius cut this step short (the module docstring): its small
        # gain or promise retries at MAX_STEP instead of stopping the run
        cut = radius < MAX_STEP and size >= radius * (1.0 - 1e-12)
        done = "maxiter" if cut else "converged"
        # a run whose halvings all fail, or shrink the step to XATOL,
        # stalls: its model gives no way up from x
        status = "stalled"
        for _ in range(MAX_HALVINGS):
            probe = (x[0] + step[0], x[1] + step[1])
            at = np.array(probe)
            f_new = evaluate(at)
            if f_new > f:
                gain = f_new - f
                x, point, f = probe, at, f_new
                model = derivatives(point)
                radius = min(MAX_STEP, 2.0 * size)
                status = "maxiter"
                if gain <= FATOL * max(1.0, abs(f)):
                    status, radius = done, MAX_STEP
                break
            rejected += 1
            if promised <= FATOL * max(1.0, abs(f)):
                # a failed probe of a step worth at most the value
                # tolerance is rounding in the objective: halving it only
                # probes the same point again, down to XATOL
                status, radius = done, MAX_STEP
                break
            step, size = (0.5 * step[0], 0.5 * step[1]), 0.5 * size
            if size <= XATOL:
                break
    bookkeeping = dict(newton_iterations=iterations, rejected=rejected)
    if status != "stalled":
        return OptResult(
            x=x,
            fun=f,
            n_evals=n_evals,
            converged=status == "converged",
            hessian=None if model is None else model[1],
            **bookkeeping,
        )

    from scipy.optimize import minimize  # here, so that import bdrates loads no scipy

    # rejected probes sit at +inf in the simplex; scipy's fatol check then
    # computes inf-inf, which is harmless but noisy without the errstate
    with np.errstate(invalid="ignore"):
        best = minimize(
            lambda at: -evaluate(at),
            point,
            method="Nelder-Mead",
            options={
                "xatol": XATOL,
                "fatol": FATOL,
                "maxiter": maxiter,
                "maxfev": 4 * maxiter,
            },
        )
    point = np.asarray(best.x, dtype=float)
    model = derivatives(point) if evaluate(point) > -math.inf else None
    return OptResult(
        x=(float(point[0]), float(point[1])),
        fun=-float(best.fun),
        n_evals=n_evals,
        converged=bool(best.success),
        continued=True,
        hessian=None if model is None else model[1],
        **bookkeeping,
    )
