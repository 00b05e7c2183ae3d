"""Derivative-free 2-D maximization with seeded restarts.

Every likelihood objective in this package is a smooth function of two
parameters whose gradient is unpleasant to write down (implicit
saddlepoints), so a bounded-free Nelder-Mead simplex search in an
unconstrained parametrization is used throughout.
A small number of restarts from perturbed points guards against a
prematurely collapsed simplex; the perturbations are drawn from a
seeded generator so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError

__all__ = ["OptResult", "maximize_2d"]


@dataclass(frozen=True)
class OptResult:
    """Outcome of a maximization: location, value, bookkeeping."""

    x: tuple[float, float]
    fun: float
    n_evals: int
    converged: bool
    n_runs: int


def maximize_2d(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    *,
    restarts: int = 3,
    xatol: float = 1e-9,
    fatol: float = 1e-9,
    maxiter: int = 2000,
    seed: int = 0,
    perturb_scale: float = 0.25,
) -> OptResult:
    """Maximize a 2-D objective by Nelder-Mead with perturbed restarts.

    The objective may return -inf (or nan, treated the same) to reject a
    point; it must be finite at x0.  After the initial run, up to
    `restarts` further runs are started from the incumbent optimum plus
    Gaussian noise of scale `perturb_scale`.  A restart that lands back
    on the incumbent (to tolerance) confirms it and stops the loop
    early; a restart that improves it replaces it and the search
    continues.  converged reports whether the best run terminated on the
    simplex tolerances rather than the iteration budget.  A start where
    the objective is not finite raises DomainError.
    """
    x_start = np.asarray(x0, dtype=float)
    if x_start.shape != (2,):
        raise ValueError(f"expected a 2-vector start, got shape {x_start.shape}")
    n_evals = 0

    def negated(x: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        val = objective(x)
        # nan and +inf both mean the probe broke down numerically; -inf is
        # a legitimate log-zero rejection. All three score as +inf here so
        # the minimizer never mistakes a degenerate spike for an optimum.
        if not math.isfinite(val):
            return math.inf
        return -val

    if not math.isfinite(-negated(x_start)):
        raise DomainError(
            f"objective is not finite at the starting point {x_start.tolist()}"
        )

    def run(start: np.ndarray):
        # rejected probes sit at +inf in the simplex; scipy's fatol check then
        # computes inf-inf, which is harmless but noisy without the errstate
        with np.errstate(invalid="ignore"):
            return minimize(
                negated,
                start,
                method="Nelder-Mead",
                options={
                    "xatol": xatol,
                    "fatol": fatol,
                    "maxiter": maxiter,
                    "maxfev": 4 * maxiter,
                },
            )

    rng = np.random.default_rng(seed)
    best = run(x_start)
    n_runs = 1
    for _ in range(restarts):
        start = best.x + perturb_scale * rng.standard_normal(2)
        res = run(start)
        n_runs += 1
        same_point = np.max(np.abs(res.x - best.x)) <= 1e-6 * np.maximum(
            1.0, np.max(np.abs(best.x))
        )
        close_value = abs(res.fun - best.fun) <= 10.0 * fatol * max(1.0, abs(best.fun))
        if res.fun < best.fun:
            best = res
            if same_point and close_value:
                break
            continue
        if res.success and same_point and close_value:
            break
    return OptResult(
        x=(float(best.x[0]), float(best.x[1])),
        fun=-float(best.fun),
        n_evals=n_evals,
        converged=bool(best.success),
        n_runs=n_runs,
    )
