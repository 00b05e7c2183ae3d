"""Unified estimation front-end.

fit() puts the moment estimator, the Gaussian quasi-likelihood, the two
saddlepoint maximum-likelihood variants and the exact maximum likelihood
behind a single result type.  The likelihood methods share one search
over (log lambda, log mu) (optimize.maximize_2d): damped Newton steps
on each likelihood's analytic score and observed information (the exact
likelihood's from the term-table pass that gives its value, the
saddlepoint likelihoods' from saddlepoint.spa_derivatives at the
saddlepoints the objective has just solved), continued by one
Nelder-Mead run only where the Newton run stalls.  The standard errors
come from the observed information at the optimum; a continued fit
whose optimum has none, and a fit on the boundary (one rate below 1e-6
of the other), have no standard errors.  compare() runs a battery of
methods on one panel, capturing per-method failures instead of aborting.

mv_spmle, the joint-path saddlepoint, is the plain saddlepoint fit under
its old name: the joint-path saddlepoint likelihood factorizes into the
per-transition one (see multivariate), so its fit equals spmle's.  It is
left out of compare()'s default battery because it would repeat spmle.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BdError, CapError, DataError, DomainError, SolverError
from .exact import exact_loglik
from .gaussian import qg_fit
from .gw import gw_estimate, gw_invert
from .optimize import maximize_2d, numeric_hessian_se
from .saddlepoint import spa_derivatives, spa_loglik
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


@dataclass(frozen=True)
class FitOptions:
    """Knobs shared by the likelihood fits.

    The search runs in (log lambda, log mu), the coordinates of the
    standard errors.  maxiter bounds the Newton steps of a fit and the
    iterations of the Nelder-Mead run that continues a stalled Newton
    run (optimize.maximize_2d).  max_count_cap bounds the population
    size the exact likelihood will accept: its term table holds
    sum(min(a, k)) terms over the transitions a -> k, in memory (16
    bytes each) and in the time of every evaluation, so it grows with
    the counts; the approximations' cost does not.

    restarts is read by no code: the continuation is a single run.  The
    field stays only so that callers that still pass it construct
    (perfbench's warm-up options).

    start overrides the searches' starting point: a Rates or a
    (lambda, mu) pair, both positive and finite, since the search starts
    from their logs.  It is kept as a pair of floats; anything else
    raises DomainError.
    """

    restarts: int = 0
    maxiter: int = 2000
    max_count_cap: int = 10**5
    start: Optional[tuple[float, float]] = None  # (lambda, mu) override

    def __post_init__(self) -> None:
        if self.start is not None:
            object.__setattr__(self, "start", _start_pair(self.start))


def _start_pair(start) -> tuple[float, float]:
    """start as (lambda, mu) floats, or DomainError naming it."""
    pair = (start.lam, start.mu) if isinstance(start, Rates) else start
    try:
        lam, mu = pair
    except (TypeError, ValueError):
        lam = mu = None
    if not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and 0.0 < v < math.inf
        for v in (lam, mu)
    ):
        raise DomainError(
            f"start must be a Rates or a (lambda, mu) pair, both positive and "
            f"finite, got {start!r}"
        )
    return float(lam), float(mu)


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """One estimator's output on one panel.

    cov is the 2x2 covariance of (lambda_hat, mu_hat) or None when it
    could not be formed (non-PD Hessian, a boundary fit whose smaller
    rate is below 1e-6 of the larger, degenerate moment panel).  loglik
    is the method's own objective at the optimum and is None for the
    moment estimator, which has no likelihood, and for a degenerate qg
    fit (the residuals vanish, as on one transition, and the profile
    grows without bound, so the scan's last value means nothing).
    n_obj_evals counts the search's objective calls, Newton probes and
    Nelder-Mead vertices alike.  Calls for the derivatives are not counted: each comes at the
    point the objective has just scored and reuses its work there (the
    exact likelihood's one pass, the saddlepoint likelihoods' solved
    saddlepoints). For qg it counts profile evaluations, and is 1 where
    the profile's maximizer is taken in closed form (one gap group).
    The likelihood searches also report newton_iterations,
    rejected_probes (non-finite or non-improving Newton probes) and
    continued (whether a Nelder-Mead run continued the Newton run); the
    other methods leave them at their defaults.
    """

    method: str
    rates: Rates
    omega_hat: float
    cov: Optional[np.ndarray]
    loglik: Optional[float]
    converged: bool
    n_obj_evals: int
    wall_time: float
    newton_iterations: int = 0
    rejected_probes: int = 0
    continued: bool = False

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


Objective = Callable[[np.ndarray], float]
Derivatives = Callable[[np.ndarray], Optional[tuple[np.ndarray, np.ndarray]]]

# an mle point whose value has not been evaluated yet
_UNSCORED = object()


class _LastPoint:
    """The search's last evaluated point: its (log lambda, log mu) as
    floats, its Rates (None where exp overflows) and, for mle, the score
    and information there (None where there are none, _UNSCORED before
    the value is evaluated). The objective and the derivatives read the
    Rates from here, so a point asked for twice builds them once."""

    __slots__ = ("key", "rates", "model")

    def __init__(self) -> None:
        self.key = self.rates = None
        self.model = _UNSCORED

    def rates_at(self, x: np.ndarray) -> Optional[Rates]:
        key = x.tolist()
        if key != self.key:
            self.key, self.rates = key, _rates_from_log(x)
            self.model = _UNSCORED if self.rates is not None else None
        return self.rates


def _search_functions(
    method: str, panel: Panel, options: FitOptions
) -> tuple[Objective, Derivatives]:
    """The method's objective in (log lambda, log mu) and its derivatives:
    the analytic score and observed information, as the gradient and
    Hessian of the objective, or None where there are none.

    Both keep one entry, the last point evaluated (_LastPoint), and build
    its Rates once: a search asks for the derivatives at the point its
    objective has just scored. For mle the entry also keeps the score and
    information that the point's exact evaluation returned with its
    value. A derivatives call at any other point evaluates it afresh."""
    last = _LastPoint()
    if method != "mle":
        variant = "conditional" if method == "spmle_adjusted" else "plain"
        if method == "mv_spmle":
            from .multivariate import mv_loglik

            objective = _wrap_objective(lambda rates: mv_loglik(panel, rates), last)
        else:
            # spa_loglik takes exactly (panel, rates, variant), the
            # signature perfbench's traced run wraps
            objective = _wrap_objective(
                lambda rates: spa_loglik(panel, rates, variant), last
            )

        def derivatives(x: np.ndarray):
            rates = last.rates_at(x)
            try:
                out = None if rates is None else spa_derivatives(panel, rates, variant)
            except (DomainError, SolverError):
                return None
            return None if out is None else (out[0], -out[1])

        return objective, derivatives
    worst = panel.transitions.count_max
    if worst > options.max_count_cap:
        raise CapError(
            f"panel count {worst} exceeds the exact-likelihood cap "
            f"{options.max_count_cap}; raise max_count_cap or use a "
            "saddlepoint method"
        )

    def loglik(rates: Rates) -> float:
        last.model = None
        value, score, info = exact_loglik(panel, rates, derivatives=True)
        if score is not None:
            last.model = (score, -info)
        return value

    objective = _wrap_objective(loglik, last)

    def derivatives(x: np.ndarray):
        last.rates_at(x)
        if last.model is _UNSCORED:
            objective(x)
        return last.model

    return objective, derivatives


def _wrap_objective(
    loglik: Callable[[Rates], float], last: _LastPoint
) -> Callable[[np.ndarray], float]:
    """loglik as a function of (log lambda, log mu), at the Rates of
    last; -inf where it fails."""

    def objective(x: np.ndarray) -> float:
        rates = last.rates_at(x)
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

    Panels the moment estimator takes (equally spaced ones) seed from
    its rates: the panel's cached moments (Transitions.gw_moments) and
    their closed-form inversion, without the moment fit's standard
    errors, which the start does not read. Where the moments or their
    inversion refuse (unequal gaps, degenerate moments) the pooled
    growth ratio fixes omega and the total-rate guess 2|omega| + 1
    keeps the start well inside the wedge. Zero components from a
    clamped moment fit are floored.
    """
    lam = mu = None
    try:
        inverted = gw_invert(panel.transitions.gw_moments)
        lam, mu = inverted.lam, inverted.mu
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
        loglik=None if qf.degenerate else qf.loglik,
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

    objective, derivatives = _search_functions(name, panel, options)
    start = (
        Rates(*options.start) if options.start is not None else initial_rates(panel)
    )
    res = maximize_2d(
        objective,
        [math.log(start.lam), math.log(start.mu)],
        derivatives=derivatives,
        maxiter=options.maxiter,
    )
    rates_hat = _rates_from_log(np.asarray(res.x))
    if rates_hat is None:
        raise SolverError(f"{name} search ended outside the parameter domain")
    cov = numeric_hessian_se(res.x, res.hessian)
    return EstimateResult(
        method=name,
        rates=rates_hat,
        omega_hat=rates_hat.lam - rates_hat.mu,
        cov=cov,
        loglik=res.fun,
        converged=res.converged,
        n_obj_evals=res.n_evals,
        wall_time=time.perf_counter() - t0,
        newton_iterations=res.newton_iterations,
        rejected_probes=res.rejected,
        continued=res.continued,
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
    """Fixed-width text table of a compare() battery.

    Next to the objective evaluations (evals) stand the search's
    rejected Newton probes; both read 0 for the moment estimators, which
    do not search.
    """
    header = (
        f"{'method':<15} {'lambda':>12} {'mu':>12} {'omega':>12} "
        f"{'se_omega':>10} {'loglik':>14} {'conv':>5} {'evals':>6} "
        f"{'rejected':>8} {'time_s':>9}"
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
            f"{str(r.converged):>5} {r.n_obj_evals:>6d} "
            f"{r.rejected_probes:>8d} {r.wall_time:>9.4f}"
        )
    return "\n".join(lines)
