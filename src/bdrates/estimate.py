"""Unified estimation front-end.

fit() puts the moment estimator, the Gaussian quasi-likelihood, the two
saddlepoint maximum-likelihood variants and the exact maximum likelihood
behind a single result type.  The likelihood methods share one
derivative-free optimizer over (log lambda, log mu) and get
observed-information standard errors from a numeric Hessian at the
optimum.  compare() runs a battery of methods on one panel, capturing
per-method failures instead of aborting.

mv_spmle, the joint-path saddlepoint, is the plain saddlepoint fit under
its old name: the joint-path saddlepoint likelihood factorizes into the
per-transition one (see multivariate), so its fit equals spmle's.  It is
left out of compare()'s default battery because it would repeat spmle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BdError, CapError, DataError, DomainError, SolverError
from .exact import exact_loglik
from .gaussian import qg_fit
from .gw import gw_estimate
from .optimize import maximize_2d
from .saddlepoint import spa_loglik
from .types import Panel, Rates

__all__ = [
    "METHODS",
    "FitOptions",
    "EstimateResult",
    "CompareRow",
    "fit",
    "compare",
    "numeric_hessian_se",
    "format_compare_table",
]

# canonical method names; hyphenated spellings are accepted and folded
METHODS = ("gw", "qg", "spmle", "spmle_adjusted", "mle", "mv_spmle")

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass(frozen=True)
class FitOptions:
    """Knobs shared by the likelihood fits.

    The search runs in (log lambda, log mu), the coordinates of the
    standard errors.  max_count_cap bounds the population
    size the exact likelihood will accept: its term table holds
    sum(min(a, k)) terms over the transitions a -> k, in memory
    (16 bytes each) and in the time of every evaluation, so it grows
    with the counts; the approximations' cost does not.
    """

    restarts: int = 3
    maxiter: int = 2000
    seed: int = 0
    max_count_cap: int = 10**5
    start: Optional[tuple[float, float]] = None  # (lambda, mu) override

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """One estimator's output on one panel.

    cov is the 2x2 covariance of (lambda_hat, mu_hat) or None when it
    could not be formed (non-PD Hessian, boundary fit, degenerate
    moment panel).  loglik is the method's own objective at the
    optimum and is None for the moment estimator, which has no
    likelihood.  n_obj_evals counts optimizer objective calls only.
    """

    method: str
    rates: Rates
    omega_hat: float
    cov: Optional[np.ndarray]
    loglik: Optional[float]
    converged: bool
    n_obj_evals: int
    wall_time: float

    def __post_init__(self) -> None:
        if self.omega_hat != self.rates.lam - self.rates.mu:
            raise ValueError("omega_hat must equal lambda_hat - mu_hat exactly")
        if self.cov is not None:
            c = self.cov
            if c.shape != (2, 2) or c[0, 1] != c[1, 0]:
                raise ValueError("cov must be 2x2 and exactly symmetric")
            if c[0, 0] < 0.0 or c[1, 1] < 0.0:
                raise ValueError("cov diagonal must be nonnegative")

    @property
    def se_lambda(self) -> Optional[float]:
        return None if self.cov is None else math.sqrt(self.cov[0, 0])

    @property
    def se_mu(self) -> Optional[float]:
        return None if self.cov is None else math.sqrt(self.cov[1, 1])

    @property
    def se_omega(self) -> Optional[float]:
        if self.cov is None:
            return None
        var = self.cov[0, 0] + self.cov[1, 1] - 2.0 * self.cov[0, 1]
        return math.sqrt(max(var, 0.0))


def canonical_method(method: str) -> str:
    name = method.strip().lower().replace("-", "_")
    if name not in METHODS:
        raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")
    return name


# ---------------------------------------------------------------------------
# coordinate map


def _rates_from_log(x: np.ndarray) -> Optional[Rates]:
    try:
        return Rates(math.exp(x[0]), math.exp(x[1]))
    except OverflowError:
        return None


# ---------------------------------------------------------------------------
# objectives and starting points


def _loglik_function(
    method: str, panel: Panel, options: FitOptions
) -> Callable[[Rates], float]:
    if method == "mle":
        worst = max(max(tr.counts) for tr in panel)
        if worst > options.max_count_cap:
            raise CapError(
                f"panel count {worst} exceeds the exact-likelihood cap "
                f"{options.max_count_cap}; raise max_count_cap or use a "
                "saddlepoint method"
            )
        return lambda rates: exact_loglik(panel, rates)
    if method == "spmle":
        return lambda rates: spa_loglik(panel, rates, variant="plain")
    if method == "spmle_adjusted":
        return lambda rates: spa_loglik(panel, rates, variant="conditional")
    if method == "mv_spmle":
        from .multivariate import mv_loglik

        return lambda rates: mv_loglik(panel, rates)
    raise DomainError(f"method {method!r} has no likelihood objective")


def _wrap_objective(loglik: Callable[[Rates], float]) -> Callable[[np.ndarray], float]:
    """loglik as a function of (log lambda, log mu); -inf where it fails."""

    def objective(x: np.ndarray) -> float:
        rates = _rates_from_log(x)
        if rates is None:
            return -math.inf
        try:
            val = loglik(rates)
        except (DomainError, SolverError, OverflowError):
            return -math.inf
        if math.isnan(val):
            return -math.inf
        return val

    return objective


def initial_rates(panel: Panel) -> Rates:
    """Interior starting point for the likelihood searches.

    Equal-spacing panels seed from the moment estimator; otherwise (or
    when the moments degenerate) the pooled growth ratio fixes omega and
    the total-rate guess 2|omega| + 1 keeps the start well inside the
    wedge.  Zero components from a clamped moment fit are floored.
    """
    lam = mu = None
    if panel.equal_spacing():
        try:
            est = gw_estimate(panel)
            lam, mu = est.rates.lam, est.rates.mu
        except (DataError, DomainError):
            pass
    if lam is None:
        omega, _ = panel.transitions.pooled_growth()
        xi = 2.0 * abs(omega) + 1.0
        lam = 0.5 * (xi + omega)
        mu = 0.5 * (xi - omega)
    floor = 1e-3 * max(1.0, lam + mu)
    return Rates(max(lam, floor), max(mu, floor))


# ---------------------------------------------------------------------------
# numeric Hessian standard errors


def numeric_hessian_se(
    objective: Callable[[np.ndarray], float], theta_hat: Sequence[float]
) -> Optional[np.ndarray]:
    """Covariance of (lambda, mu) from the observed information.

    objective is the maximized log-likelihood as a function of
    (log lambda, log mu); the Hessian of its negative is formed by
    central differences with per-coordinate step eps^(1/3) * max(1, |theta|)
    and inverted, then pushed through the Jacobian diag(lambda, mu) of
    the exp map.  Returns None when the Hessian is not positive definite
    or any stencil value is non-finite.
    """
    th = np.asarray(theta_hat, dtype=float)
    h = _EPS_CBRT * np.maximum(1.0, np.abs(th))

    def g(d0: float, d1: float) -> float:
        return -objective(np.array([th[0] + d0, th[1] + d1]))

    g0 = g(0.0, 0.0)
    h00 = (g(h[0], 0.0) - 2.0 * g0 + g(-h[0], 0.0)) / (h[0] * h[0])
    h11 = (g(0.0, h[1]) - 2.0 * g0 + g(0.0, -h[1])) / (h[1] * h[1])
    h01 = (
        g(h[0], h[1]) - g(h[0], -h[1]) - g(-h[0], h[1]) + g(-h[0], -h[1])
    ) / (4.0 * h[0] * h[1])
    if not (math.isfinite(h00) and math.isfinite(h11) and math.isfinite(h01)):
        return None
    det = h00 * h11 - h01 * h01
    if h00 <= 0.0 or det <= 0.0:
        return None
    inv = np.array([[h11, -h01], [-h01, h00]]) / det
    jac = np.diag([math.exp(th[0]), math.exp(th[1])])
    cov = jac @ inv @ jac
    cov[1, 0] = cov[0, 1]
    if cov[0, 0] < 0.0 or cov[1, 1] < 0.0:
        return None
    return cov


# ---------------------------------------------------------------------------
# dispatch


def _fit_gw(panel: Panel, t0: float) -> EstimateResult:
    est = gw_estimate(panel)
    cov = None
    if math.isfinite(est.se_lambda) and math.isfinite(est.se_omega):
        # marginal rate variances plus the growth-rate variance pin down
        # the off-diagonal: var(omega) = var(l) + var(m) - 2 cov(l, m)
        var_rate = est.se_lambda**2
        off = var_rate - 0.5 * est.se_omega**2
        cov = np.array([[var_rate, off], [off, var_rate]])
    return EstimateResult(
        method="gw",
        rates=est.rates,
        omega_hat=est.rates.lam - est.rates.mu,
        cov=cov,
        loglik=None,
        converged=True,
        n_obj_evals=0,
        wall_time=time.perf_counter() - t0,
    )


def _fit_qg(panel: Panel, t0: float) -> EstimateResult:
    qf = qg_fit(panel)
    return EstimateResult(
        method="qg",
        rates=qf.rates,
        omega_hat=qf.rates.lam - qf.rates.mu,
        cov=qf.cov_lambda_mu,
        loglik=qf.loglik,
        converged=True,
        n_obj_evals=qf.profile_iterations,
        wall_time=time.perf_counter() - t0,
    )


def fit(panel: Panel, method: str, options: Optional[FitOptions] = None) -> EstimateResult:
    """Estimate (lambda, mu) from a panel by the named method."""
    options = options or FitOptions()
    name = canonical_method(method)
    t0 = time.perf_counter()
    if name == "gw":
        return _fit_gw(panel, t0)
    if name == "qg":
        return _fit_qg(panel, t0)

    objective = _wrap_objective(_loglik_function(name, panel, options))
    start = (
        Rates(*options.start) if options.start is not None else initial_rates(panel)
    )
    res = maximize_2d(
        objective,
        [math.log(start.lam), math.log(start.mu)],
        restarts=options.restarts,
        maxiter=options.maxiter,
        seed=options.seed,
    )
    rates_hat = _rates_from_log(np.asarray(res.x))
    if rates_hat is None:
        raise SolverError(f"{name} search ended outside the parameter domain")
    cov = numeric_hessian_se(
        objective, [math.log(rates_hat.lam), math.log(rates_hat.mu)]
    )
    return EstimateResult(
        method=name,
        rates=rates_hat,
        omega_hat=rates_hat.lam - rates_hat.mu,
        cov=cov,
        loglik=res.fun,
        converged=res.converged,
        n_obj_evals=res.n_evals,
        wall_time=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class CompareRow:
    method: str
    result: Optional[EstimateResult]
    error: Optional[str]


def compare(
    panel: Panel,
    methods: Optional[Sequence[str]] = None,
    options: Optional[FitOptions] = None,
) -> list[CompareRow]:
    """Run several estimators on one panel; failures become rows, not raises.

    The default battery is every method except mv_spmle, the plain
    saddlepoint fit under its old name, which would repeat spmle.
    Methods run in the order given; each row carries either the result
    or the error message.
    """
    if methods is None:
        methods = ("gw", "qg", "spmle", "spmle_adjusted", "mle")
    rows = []
    for method in methods:
        name = canonical_method(method)
        try:
            rows.append(CompareRow(name, fit(panel, name, options), None))
        except BdError as exc:
            rows.append(CompareRow(name, None, f"{type(exc).__name__}: {exc}"))
    return rows


def format_compare_table(rows: Sequence[CompareRow]) -> str:
    """Fixed-width text table of a compare() battery."""
    header = (
        f"{'method':<15} {'lambda':>12} {'mu':>12} {'omega':>12} "
        f"{'se_omega':>10} {'loglik':>14} {'conv':>5} {'evals':>6} {'time_s':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.result is None:
            lines.append(f"{row.method:<15} failed: {row.error}")
            continue
        r = row.result
        se = f"{r.se_omega:.4g}" if r.se_omega is not None else "-"
        ll = f"{r.loglik:.6f}" if r.loglik is not None else "-"
        lines.append(
            f"{r.method:<15} {r.rates.lam:>12.6f} {r.rates.mu:>12.6f} "
            f"{r.omega_hat:>12.6f} {se:>10} {ll:>14} "
            f"{str(r.converged):>5} {r.n_obj_evals:>6d} {r.wall_time:>9.4f}"
        )
    return "\n".join(lines)
