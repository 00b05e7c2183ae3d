"""Gaussian quasi-likelihood for arbitrary observation spacing.

Each transition src -> dst over a gap tau is scored as if dst were
normal with the process conditional mean and variance

    E = src * zeta,  V = src * xi * nu,   zeta = exp(omega*tau),
    nu = tau * zeta / c(omega*tau),       c(u) = u / (e^u - 1),

in the (omega, xi) = (lam - mu, lam + mu) parametrization on the open
wedge Theta = {xi > |omega|}. For fixed omega the maximizing xi has the
closed form xi_hat(omega) = mean of squared standardized residuals, so
the fit is a 1-D profile in omega.

On one gap group (equal spacing) nu cancels from the profile, which is

    -(n/2) * log R(zeta) + const,   R(zeta) = sum (dst - src*zeta)^2 / src,

a quadratic in zeta minimized at zeta_hat = sum dst / sum src. Where
R(zeta_hat) > 0 the maximizer omega_hat = log(zeta_hat) / tau is the
embedded-process moment estimator's, and the fit takes it in closed
form. The profile scan serves only the panels where that fails: several
gap groups, or no interior maximum (all targets extinct, or zero
residual). The profile is unimodal on informative panels, but panels
that crash to zero within a step or two can grow a second local maximum
at strongly negative omega, so the scan seeds a bounded refinement from
a coarse grid instead of trusting golden section alone. Standard errors
come from the sandwich I^{-1} C I^{-1} mapped to (lam, mu) by the fixed
linear change of variables; under the Gaussian working model C = I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .exact import _log_phi_derivs, geom_params
from .types import Panel, Rates

__all__ = [
    "QgParams",
    "QgFit",
    "qg_loglik",
    "qg_profile_xi",
    "qg_fit",
    "qg_sandwich_cov",
]

# xi_hat below this is treated as a deterministic (zero-residual) panel:
# the profile objective is unbounded there and no covariance makes sense.
DEGENERATE_XI_FLOOR = 1e-10

# range of omega * tau the profile scan reaches. On the growth side the
# squared residual grows as exp(2 * omega * tau) and leaves the float
# range near 354; on the decay side nu shrinks as exp(omega * tau) and
# reaches zero near -745.
SCAN_U_RANGE = (-600.0, 300.0)

_LOG_2PI = math.log(2.0 * math.pi)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass(frozen=True)
class QgParams:
    """Point of the open parameter wedge: growth rate omega and total
    event rate xi with xi > |omega| (both underlying rates positive)."""

    omega: float
    xi: float

    def __post_init__(self):
        omega, xi = float(self.omega), float(self.xi)
        if not (math.isfinite(omega) and math.isfinite(xi)):
            raise DomainError(f"parameters must be finite, got omega={omega}, xi={xi}")
        if not (xi + omega > 0.0 and xi - omega > 0.0):
            raise DomainError(
                f"(omega={omega}, xi={xi}) lies outside the wedge xi > |omega|"
            )
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "xi", xi)

    @property
    def rates(self) -> Rates:
        return Rates(0.5 * (self.xi + self.omega), 0.5 * (self.xi - self.omega))


@dataclass(frozen=True)
class QgFit:
    """Profile-fit result. params is None when the maximum sits outside
    the open wedge (boundary=True: one rate clamped to 0, growth rate
    preserved) or when the panel is deterministic (degenerate=True, the
    residuals vanish and xi_hat collapses to 0); the covariance is only
    reported for interior fits."""

    params: QgParams | None
    rates: Rates
    cov_lambda_mu: np.ndarray | None
    loglik: float
    profile_iterations: int
    boundary: bool
    degenerate: bool


def _nu(tau: float, omega: float) -> float:
    # tau * zeta / c(omega*tau); always positive. expm1(u)/u is accurate
    # for every u != 0, and its limit 1 serves u == 0. Where
    # tau*expm1(u) is not a normal float, the product would lose digits,
    # so expm1(u)/u is formed first there; every other u keeps the
    # product's bits.
    u = omega * tau
    if u == 0.0:
        return tau
    em1 = math.expm1(u)
    if abs(tau * em1) < _TINY:
        return tau * math.exp(u) * (em1 / u)
    return tau * math.exp(u) * em1 / u


def _fixed_sums(groups) -> tuple[int, float]:
    # number of transitions and the sum of their log source counts: the
    # parts of the working likelihood that do not depend on the parameters
    n = sum(len(grp.src) for grp in groups)
    return n, sum(float(np.log(grp.src).sum()) for grp in groups)


def _residual_sums(groups, omega: float) -> tuple[float, float]:
    # sum over transitions of r^2 / (src * nu), the squared residual
    # standardized at xi = 1, and of log(nu)
    rss = 0.0
    log_nu = 0.0
    for grp in groups:
        nu = _nu(grp.tau, omega)
        r = grp.dst - grp.src * math.exp(omega * grp.tau)
        rss += float((r * r / grp.src).sum()) / nu
        log_nu += len(grp.src) * math.log(nu)
    return rss, log_nu


def qg_loglik(panel: Panel, params: QgParams) -> float:
    """Gaussian working log likelihood (2*pi constant included)."""
    if not isinstance(params, QgParams):
        params = QgParams(*params)
    omega, xi = params.omega, params.xi
    groups = panel.transitions.groups
    n, log_src = _fixed_sums(groups)
    rss, log_nu = _residual_sums(groups, omega)
    return -0.5 * (n * (_LOG_2PI + math.log(xi)) + log_src + log_nu + rss / xi)


def qg_profile_xi(panel: Panel, omega: float) -> float:
    """Closed-form maximizer of the working likelihood in xi at fixed
    omega: the average squared standardized residual."""
    groups = panel.transitions.groups
    n = sum(len(grp.src) for grp in groups)
    return _residual_sums(groups, omega)[0] / n


def _profile_loglik_terms(groups, n: int, log_src: float, omega: float) -> float:
    # l(xi_hat(omega), omega) with the parameter-free sums precomputed and
    # the additive constants kept, so the value matches qg_loglik there
    rss, log_nu = _residual_sums(groups, omega)
    xi = rss / n
    if xi <= 0.0:
        return math.inf  # deterministic fit: unbounded profile
    return -0.5 * (n * _LOG_2PI + n * math.log(xi) + log_src + log_nu) - 0.5 * n


def _least_residual_positive(grp) -> bool:
    # whether R(zeta) = sum (dst - src*zeta)^2 / src stays positive at its
    # minimizer, the pooled ratio sum dst / sum src. By Cauchy-Schwarz it
    # does unless every dst/src is equal (all extinct, or deterministic),
    # which is tested in integers: in floats a lone transition's R reads
    # about 1e-27 at the rounded ratio, not 0
    src, dst = grp.src.tolist(), grp.dst.tolist()
    return any(d * src[0] != s * dst[0] for s, d in zip(src, dst))


def _scan_profile(profile, groups, omega_init: float, tau_bar: float) -> tuple[float, int]:
    # (omega_hat, profile evaluations) of the bracketed scan in qg_fit
    half = 10.0 / tau_bar
    tau_max = max(grp.tau for grp in groups)
    w_lo, w_hi = (u / tau_max for u in SCAN_U_RANGE)
    omega_init = min(max(omega_init, w_lo), w_hi)
    lo, hi = omega_init - half, omega_init + half
    iterations = 0
    omega_hat = omega_init
    for _ in range(6):
        # coarse scan first: golden section alone can get trapped on the
        # spurious far-negative mode of crash panels (see module docstring)
        grid = np.linspace(max(lo, w_lo), min(hi, w_hi), 65)
        vals = np.array([profile(w) for w in grid])
        iterations += len(grid)
        best = int(np.argmax(vals))
        if best == 0 or best == len(grid) - 1:
            omega_hat = float(grid[best])
            if omega_hat in (w_lo, w_hi):
                break
            width = hi - lo
            lo, hi = lo - width / 2.0, hi + width / 2.0
            continue
        from scipy.optimize import minimize_scalar  # here, so that import bdrates loads no scipy

        res = minimize_scalar(
            lambda w: -profile(w),
            bounds=(float(grid[best - 1]), float(grid[best + 1])),
            method="bounded",
            options={"xatol": 1e-10, "maxiter": 500},
        )
        iterations += int(res.nfev)
        omega_hat = float(res.x)
        break
    return omega_hat, iterations


def qg_fit(panel: Panel) -> QgFit:
    """Profile fit over omega with the closed-form xi plugged in.

    On one gap group with a positive least residual the maximizer is
    the pooled ratio's growth rate, taken in closed form and reported as
    one profile evaluation. Every other panel goes to the profile scan:
    the bracket is centered at the pooled-ratio growth guess and scanned
    on a 65-point grid, widened (doubled) whenever the maximizer lands on
    an edge, for at most 6 scans, then refined by bounded Brent. The
    scan never leaves omega * tau_max in SCAN_U_RANGE, where the terms
    stay finite. A maximum still on an edge of the sixth scan ends there,
    at the guess minus or plus 320 / tau_bar unless SCAN_U_RANGE cuts the
    bracket first: the all-extinct panel with counts 3 -> 0 and 5 -> 0
    over unit gaps ends at mu = 322.77 after 390 evaluations, not at the
    range's edge mu = 600.
    Fits whose maximum leaves the open wedge are clamped to the nearest
    rate boundary, preserving omega_hat, and flagged.
    """
    groups = panel.transitions.groups
    n, log_src = _fixed_sums(groups)

    def profile(omega: float) -> float:
        return _profile_loglik_terms(groups, n, log_src, omega)

    omega_init, tau_bar = panel.transitions.pooled_growth()
    if len(groups) == 1 and _least_residual_positive(groups[0]):
        # log(sum dst / sum src) / tau, bit for bit. With int64 counts
        # omega_hat * tau = log(sum dst / sum src) lies within about
        # +-(44 + log n), far inside SCAN_U_RANGE, so it needs no clamp
        omega_hat, iterations = omega_init, 1
    else:
        omega_hat, iterations = _scan_profile(profile, groups, omega_init, tau_bar)
    xi_hat = qg_profile_xi(panel, omega_hat)
    loglik = profile(omega_hat)

    degenerate = xi_hat < DEGENERATE_XI_FLOOR
    if degenerate or not (xi_hat > abs(omega_hat)):
        return QgFit(
            None,
            _clamped_rates(omega_hat),
            None,
            loglik,
            iterations,
            boundary=True,
            degenerate=degenerate,
        )
    params = QgParams(omega_hat, xi_hat)
    cov = qg_sandwich_cov(panel, params)
    return QgFit(
        params, params.rates, cov, loglik, iterations, boundary=False, degenerate=False
    )


def _clamped_rates(omega_hat: float) -> Rates:
    # boundary of the wedge: the rate pair with one rate 0 and the same
    # growth rate; a zero growth rate has no valid boundary point, so
    # nudge to a symmetric near-critical pair
    if omega_hat > 0.0:
        return Rates(omega_hat, 0.0)
    if omega_hat < 0.0:
        return Rates(0.0, -omega_hat)
    return Rates(DEGENERATE_XI_FLOOR, DEGENERATE_XI_FLOOR)


def _information(panel: Panel, params: QgParams) -> np.ndarray:
    """Expected information of the full panel at params, with observed
    source counts standing in for their expectations."""
    omega, xi = params.omega, params.xi
    i_xx = 0.0
    i_xw = 0.0
    i_ww = 0.0
    for grp in panel.transitions.groups:
        tau = grp.tau
        n = len(grp.src)
        u = omega * tau
        nu = _nu(tau, omega)
        nd = tau * (1.0 + _log_phi_derivs(u)[0])  # nu_dot / nu
        zd = tau * math.exp(u)  # zeta_dot
        i_xx += n / (2.0 * xi * xi)
        i_xw += n * nd / (2.0 * xi)
        i_ww += 0.5 * n * nd * nd + (grp.src_sum * zd * zd) / (xi * nu)
    return np.array([[i_xx, i_xw], [i_xw, i_ww]])


def _true_cumulants(tau: float, rates: Rates) -> tuple[float, float, float]:
    """Per-ancestor second, third and fourth conditional cumulants of the
    count after tau, in closed form.

    The single-ancestor law is modified geometric, with factorial moments
    f^(n)(1) = n! beta^(n-1) (1-alpha)/(1-beta)^n. Turned into cumulants,
    each has the factor (1-alpha) times a low-order polynomial in alpha
    and beta over a power of (1-beta), evaluated as such.
    """
    g = geom_params(tau, rates)
    a, b = g.alpha, g.beta
    om_a, om_b = math.exp(g.log1m_alpha), math.exp(g.log1m_beta)
    s = a + b
    k2 = om_a * s / om_b**2
    k3 = om_a * ((2.0 * a + b) * s + b - a) / om_b**3
    k4 = om_a * s * (6.0 * a * (s - 1.0) + b * b + 4.0 * b + 1.0) / om_b**4
    return k2, k3, k4


def qg_sandwich_cov(
    panel: Panel, params: QgParams, true_cumulants: bool = False
) -> np.ndarray:
    """Covariance estimate for (lam_hat, mu_hat): I^{-1} C I^{-1} in the
    (xi, omega) coordinates, pushed through the linear rate map.

    Under the Gaussian working model the third and fourth standardized
    cumulants vanish and C = I; true_cumulants=True plugs in the process
    cumulants instead, in closed form from the single-ancestor law.
    """
    if not isinstance(params, QgParams):
        params = QgParams(*params)
    info = _information(panel, params)
    if true_cumulants:
        cmat = _score_cov_true(panel, params)
    else:
        cmat = info
    det = info[0, 0] * info[1, 1] - info[0, 1] * info[1, 0]
    if not (det > 0.0 and math.isfinite(det)):
        raise SolverError("information matrix is singular; panel is uninformative")
    inv = np.array([[info[1, 1], -info[0, 1]], [-info[1, 0], info[0, 0]]]) / det
    cov_theta = inv @ cmat @ inv
    d = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]])
    # theta order is (xi, omega): lam = (xi+omega)/2, mu = (xi-omega)/2
    cov = d @ cov_theta @ d.T
    cov[1, 0] = cov[0, 1]  # restore exact symmetry lost to rounding
    return cov


def _score_cov_true(panel: Panel, params: QgParams) -> np.ndarray:
    omega, xi = params.omega, params.xi
    rates = params.rates
    c_xx = 0.0
    c_xw = 0.0
    c_ww = 0.0
    for grp in panel.transitions.groups:
        tau = grp.tau
        n = len(grp.src)
        k2, k3_raw, k4_raw = _true_cumulants(tau, rates)
        # standardized cumulants of (dst - src*zeta)/sqrt(src*k2) are
        # kap3 = skew/sqrt(src) and kap4 = kurt/src, so the group enters
        # through n, sum(src) and sum(1/src) alone
        skew = k3_raw / k2**1.5
        kap4_sum = k4_raw / (k2 * k2) * float((1.0 / grp.src).sum())
        u = omega * tau
        nu = _nu(tau, omega)
        nd = tau * (1.0 + _log_phi_derivs(u)[0])
        zd = tau * math.exp(u)
        c_xx += (2.0 * n + kap4_sum) / (4.0 * xi * xi)
        c_xw += (nd * (2.0 * n + kap4_sum) + 2.0 * n * zd * skew / math.sqrt(xi * nu)) / (
            4.0 * xi
        )
        c_ww += (
            0.25 * nd * nd * (2.0 * n + kap4_sum)
            + (grp.src_sum * zd * zd) / (xi * nu)
            + n * nd * zd * skew / math.sqrt(xi * nu**3)
        )
    return np.array([[c_xx, c_xw], [c_xw, c_ww]])
