"""Joint-path saddlepoint approximation.

The whole observation vector of one trajectory has a generating function
built by composing the single-gap map from the last gap inward:

    g(s, t; a) = f{ s_1 f{ s_2 ... f{ s_{N-1} f(s_N, tau_N), tau_{N-1} } ..., tau_2 }, tau_1 }^a

Working with the full path in one N-dimensional saddlepoint trades the
per-transition O(1/source) error of the univariate factorization for a
single O(1/a) error tied to the initial count, which helps when the
path dips below its starting level.  The CGF gradient and Hessian are
propagated through the composition with an exact chain rule (O(N^2) per
level), the saddlepoint system K'(x) = k is solved by a damped Newton
iteration with Cholesky steps, and trailing zeros are split off exactly
before approximating the positive prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve

from .errors import DomainError, SolverError
from .exact import geom_params, pgf_geom
from .saddlepoint import solve_saddlepoint
from .types import Panel, Rates

__all__ = [
    "MvSaddle",
    "joint_pgf",
    "mv_cgf",
    "mv_solve",
    "mv_spa_pmf",
    "mv_log_spa_pmf",
    "mv_loglik",
    "mv_spmle",
]

MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30
RESIDUAL_TOL = 1e-8

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MvSaddle:
    """Solved N-dimensional saddlepoint: location, CGF value, first two
    derivative arrays there, and the final sup-norm residual of
    K'(x_tilde) - k (bounded by RESIDUAL_TOL * max(1, |k|_inf))."""

    x_tilde: np.ndarray
    cgf_value: float
    grad: np.ndarray
    hess: np.ndarray
    residual_norm: float


def _gaps_from_times(times: Sequence[float], n: int) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) != n + 1:
        raise DomainError(
            f"need {n + 1} observation times for a length-{n} vector, got {len(t)}"
        )
    gaps = np.diff(t)
    if not (np.all(gaps > 0.0) and np.all(np.isfinite(gaps))):
        raise DomainError("observation times must be finite and strictly increasing")
    return gaps


def _check_ancestors(a: int) -> None:
    if a != int(a) or a < 1:
        raise DomainError(f"ancestor count must be a positive integer, got {a}")


def _level_params(gaps: np.ndarray, rates: Rates) -> list:
    return [geom_params(float(tau), rates) for tau in gaps]


def _level_pgf(s: float, g, level: int) -> tuple[float, float, float]:
    # single-gap map and its first two derivatives; the domain check is
    # the implicit convergence-region test for the whole composition
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(
            f"joint generating function argument left the domain at nesting "
            f"level {level} (inner argument {s})"
        )
    try:
        return pgf_geom(s, g)
    except DomainError as exc:
        raise DomainError(
            f"joint generating function argument left the domain at nesting "
            f"level {level} ({exc})"
        ) from exc


def joint_pgf(s: Sequence[float], times: Sequence[float], a: int, rates: Rates) -> float:
    """Joint generating function E[prod_j s_j^{Z(t_j)} | Z(t_0) = a].

    times is the full observation grid (t_0, ..., t_N); s has one entry
    per observed time after t_0.  Composition runs from the innermost
    (last) gap outward; a domain violation at any level raises with the
    level named.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or len(s) == 0:
        raise DomainError("s must be a nonempty vector")
    _check_ancestors(a)
    gaps = _gaps_from_times(times, len(s))
    params = _level_params(gaps, rates)
    w = 1.0
    for j in range(len(s) - 1, -1, -1):
        w, _, _ = _level_pgf(s[j] * w, params[j], j + 1)
    return w**a


def _nested_derivs(
    x: np.ndarray, params: list, a: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """CGF of the path vector, with gradient and Hessian in x.

    Carries (value, gradient, Hessian) of the inner composite w_j
    through each level: with y_j = s_j * w_{j+1} and s_j = e^{x_j},
    dy/dx_j = y and the cross second derivatives of y_j against the
    deeper coordinates equal the scaled inner gradient, so the Hessian
    update is rank-one plus a bordered scaling.
    """
    n = len(x)
    s = np.exp(x)
    val = 1.0
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for j in range(n - 1, -1, -1):
        y = s[j] * val
        gy = s[j] * grad
        gy[j] = y
        hy = s[j] * hess
        hy[j, :] = gy
        hy[:, j] = gy
        f, f1, f2 = _level_pgf(y, params[j], j + 1)
        val = f
        grad = f1 * gy
        hess = f2 * np.outer(gy, gy) + f1 * hy
    if val <= 0.0:
        raise DomainError("joint generating function is nonpositive")
    k_val = a * math.log(val)
    k_grad = (a / val) * grad
    k_hess = (a / val) * hess - (a / (val * val)) * np.outer(grad, grad)
    return k_val, k_grad, k_hess


def mv_cgf(
    x: Sequence[float], times: Sequence[float], a: int, rates: Rates
) -> tuple[float, np.ndarray, np.ndarray]:
    """Path CGF K(x) = a log g(e^x; 1) with exact gradient and Hessian."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise DomainError("x must be a nonempty vector")
    _check_ancestors(a)
    gaps = _gaps_from_times(times, len(x))
    return _nested_derivs(x, _level_params(gaps, rates), a)


def _univariate_start(k: np.ndarray, gaps: np.ndarray, a: int, rates: Rates) -> np.ndarray:
    # componentwise saddlepoints of the factorized transitions: the exact
    # solution when the coupling between gaps is ignored
    x0 = np.empty(len(k))
    src = a
    for j in range(len(k)):
        x0[j] = solve_saddlepoint(int(k[j]), float(gaps[j]), src, rates).x_tilde
        src = int(k[j])
    return x0


def _feasible_start(
    x: np.ndarray, params: list, a: int
) -> tuple[np.ndarray, tuple[float, np.ndarray, np.ndarray]]:
    """Pull x toward the origin, halving it, until the path CGF and its
    derivatives are finite there.

    The componentwise start ignores the coupling between gaps and can put
    an inner argument past the convergence radius.  x = 0 is always
    feasible: every nested argument is then 1, below every level's radius.
    """
    for _ in range(MAX_HALVINGS):
        try:
            derivs = _nested_derivs(x, params, a)
        except DomainError:
            derivs = None
        if derivs is not None and all(np.all(np.isfinite(d)) for d in derivs):
            return x, derivs
        x = 0.5 * x
    x = np.zeros_like(x)
    return x, _nested_derivs(x, params, a)


def mv_solve(
    k: Sequence[int], times: Sequence[float], a: int, rates: Rates
) -> MvSaddle:
    """Solve the N-dimensional saddlepoint system K'(x) = k.

    Damped Newton from the componentwise univariate saddlepoints, pulled
    toward the origin until they lie inside the joint domain; steps are
    halved when the residual norm fails to decrease or the iterate leaves
    the convergence region (signalled by the domain error of the nested
    composition).
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or len(k) == 0:
        raise DomainError("k must be a nonempty vector")
    if not np.all(k > 0.0) or not np.all(k == np.round(k)):
        raise DomainError("joint saddlepoint needs positive integer counts")
    _check_ancestors(a)
    gaps = _gaps_from_times(times, len(k))
    params = _level_params(gaps, rates)
    tol = RESIDUAL_TOL * max(1.0, float(np.max(np.abs(k))))

    x, (val, grad, hess) = _feasible_start(
        _univariate_start(k, gaps, a, rates), params, a
    )
    resid = float(np.max(np.abs(grad - k)))
    trace = [resid]
    for _ in range(MAX_NEWTON_ITER):
        if resid <= tol:
            return MvSaddle(x, val, grad, hess, resid)
        try:
            chol = np.linalg.cholesky(hess)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"path CGF Hessian lost positive definiteness at residual {resid}"
            ) from exc
        direction = cho_solve((chol, True), k - grad)
        step = 1.0
        for _ in range(MAX_HALVINGS):
            x_new = x + step * direction
            try:
                val_n, grad_n, hess_n = _nested_derivs(x_new, params, a)
            except DomainError:
                step *= 0.5
                continue
            resid_n = float(np.max(np.abs(grad_n - k)))
            if resid_n < resid:
                break
            step *= 0.5
        else:
            raise SolverError(
                f"joint saddlepoint line search stalled; residual trace {trace}"
            )
        x, val, grad, hess, resid = x_new, val_n, grad_n, hess_n, resid_n
        trace.append(resid)
    raise SolverError(
        f"joint saddlepoint did not converge in {MAX_NEWTON_ITER} iterations; "
        f"residual trace {trace}"
    )


def _prefix_length(k: np.ndarray) -> int:
    # absorption: once the count hits zero it stays zero
    positive = np.flatnonzero(k > 0)
    if len(positive) == 0:
        return 0
    i = int(positive[-1]) + 1
    if np.any(k[:i] == 0):
        raise DomainError(
            "observation vector revives after extinction; zero counts may "
            "only trail the positive prefix"
        )
    return i


def mv_log_spa_pmf(
    k: Sequence[int], times: Sequence[float], a: int, rates: Rates
) -> float:
    """Log of the joint-path saddlepoint pmf approximation.

    Trailing zeros factor out exactly: the first zero contributes the
    exact extinction probability of the last positive count over its
    gap, later zeros contribute probability one.  The positive prefix
    gets the N-dimensional saddlepoint formula with the Hessian
    determinant from its Cholesky factor.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or len(k) == 0:
        raise DomainError("k must be a nonempty vector")
    if np.any(k < 0.0) or not np.all(k == np.round(k)):
        raise DomainError("counts must be nonnegative integers")
    _check_ancestors(a)
    gaps = _gaps_from_times(times, len(k))

    i = _prefix_length(k)
    log_factor = 0.0
    if i < len(k):
        src = int(k[i - 1]) if i > 0 else a
        g = geom_params(float(gaps[i]), rates)
        log_factor = src * g.log_alpha
    if i == 0:
        return log_factor
    sol = mv_solve(k[:i].astype(int), np.asarray(times)[: i + 1], a, rates)
    chol = np.linalg.cholesky(sol.hess)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return (
        log_factor
        + sol.cgf_value
        - float(sol.x_tilde @ k[:i])
        - 0.5 * (i * _LOG_2PI + log_det)
    )


def mv_spa_pmf(k: Sequence[int], times: Sequence[float], a: int, rates: Rates) -> float:
    """Joint-path saddlepoint pmf approximation on the probability scale."""
    return math.exp(mv_log_spa_pmf(k, times, a, rates))


def mv_loglik(panel: Panel, rates: Rates) -> float:
    """Joint-path approximate log-likelihood: one term per trajectory."""
    total = 0.0
    for tr in panel:
        total += mv_log_spa_pmf(tr.counts[1:], tr.times, tr.counts[0], rates)
    return total


def mv_spmle(panel: Panel, options=None):
    """Maximize the joint-path approximate likelihood (shared optimizer)."""
    from .estimate import fit

    return fit(panel, "mv_spmle", options)
