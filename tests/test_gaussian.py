import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdrates.errors import DataError, DomainError
from bdrates.exact import _SERIES_X, _log_phi_derivs
from bdrates.gaussian import (
    SCAN_U_RANGE,
    QgFit,
    QgParams,
    _fixed_sums,
    _information,
    _nu,
    _profile_loglik_terms,
    _true_cumulants,
    qg_fit,
    qg_loglik,
    qg_profile_xi,
    qg_sandwich_cov,
)
from bdrates.gw import gw_estimate
from bdrates.types import Panel, Rates, Trajectory
from oracles import mp_cgf_derivative


def _panel(*count_rows, dt=1.0):
    trajs = []
    for row in count_rows:
        times = tuple(dt * i for i in range(len(row)))
        trajs.append(Trajectory(times, tuple(row)))
    return Panel(tuple(trajs))


MIXED = Panel(
    (
        Trajectory((0.0, 0.3, 0.8, 1.0), (10, 12, 9, 14)),
        Trajectory((0.0, 0.45, 0.7), (6, 4, 7)),
        Trajectory((0.0, 0.2, 0.5), (5, 3, 0)),
    )
)


def _naive_loglik(panel, omega, xi):
    # direct transcription of the objective, no stable primitives
    tot = 0.0
    for tr in panel:
        for j in range(1, len(tr.counts)):
            a = tr.counts[j - 1]
            if a == 0:
                continue
            tau = tr.times[j] - tr.times[j - 1]
            zeta = math.exp(omega * tau)
            c = (omega * tau) / (math.exp(omega * tau) - 1.0)
            nu = tau * zeta / c
            v = a * xi * nu
            tot += -0.5 * (math.log(2.0 * math.pi * v) + (tr.counts[j] - a * zeta) ** 2 / v)
    return tot


def test_params_wedge_validation():
    p = QgParams(0.4, 2.0)
    assert p.rates.lam == pytest.approx(1.2)
    assert p.rates.mu == pytest.approx(0.8)
    for omega, xi in [(3.0, 1.0), (-3.0, 1.0), (1.0, 1.0), (0.0, 0.0)]:
        with pytest.raises(DomainError):
            QgParams(omega, xi)


def test_loglik_matches_naive_transcription():
    for omega, xi in [(0.4, 2.0), (-0.7, 1.5), (1.1, 3.0)]:
        got = qg_loglik(MIXED, QgParams(omega, xi))
        want = _naive_loglik(MIXED, omega, xi)
        assert got == pytest.approx(want, rel=1e-12)


def test_loglik_zero_residual_single_transition():
    # dst = src * e^{omega*tau} exactly: only the log-variance term remains
    omega, tau, src = math.log(2.0), 1.0, 2
    panel = Panel((Trajectory((0.0, tau), (src, 4)),))
    xi = 1.7
    want = -0.5 * math.log(2.0 * math.pi * src * xi * _nu(tau, omega))
    assert qg_loglik(panel, QgParams(omega, xi)) == pytest.approx(want, rel=1e-9)


def test_profile_xi_hand_case():
    # two transitions, unequal gaps, evaluated against the displayed formula
    panel = Panel((Trajectory((0.0, 0.5, 1.2), (4, 6, 5)),))
    omega = 0.3
    z1, z2 = math.exp(omega * 0.5), math.exp(omega * 0.7)
    n1, n2 = _nu(0.5, omega), _nu(0.7, omega)
    want = 0.5 * ((6 - 4 * z1) ** 2 / (4 * n1) + (5 - 6 * z2) ** 2 / (6 * n2))
    assert qg_profile_xi(panel, omega) == pytest.approx(want, rel=1e-13)


def test_profile_identity():
    for omega in (-0.5, 0.0, 0.4, 1.3):
        xi_hat = qg_profile_xi(MIXED, omega)
        lp = qg_loglik(MIXED, QgParams(omega, xi_hat)) if xi_hat > abs(omega) else None
        if lp is None:
            continue
        # profile value dominates any other xi at the same omega
        for xi in (xi_hat * 0.5, xi_hat * 2.0, xi_hat * 5.0):
            if xi > abs(omega):
                assert lp >= qg_loglik(MIXED, QgParams(omega, xi))


def test_profile_derivative_single_sign_change():
    groups = MIXED.transitions.groups
    sums = _fixed_sums(groups)
    grid = np.linspace(-3.0, 3.0, 200)
    vals = np.array([_profile_loglik_terms(groups, *sums, w) for w in grid])
    dsign = np.sign(np.diff(vals))
    changes = int(np.sum(np.abs(np.diff(dsign)) > 0))
    assert changes == 1


def test_c_and_kappa_prime_shape():
    # kappa' = (log phi)', the derivative of log{(e^u - 1)/u}
    grid = np.linspace(-50.0, 50.0, 401)
    kp = [_log_phi_derivs(u)[0] for u in grid]
    assert all(0.0 < v < 1.0 for v in kp)
    assert all(b > a for a, b in zip(kp, kp[1:]))  # increasing
    # series and direct branches agree at the switch
    for u in (_SERIES_X * 0.99, _SERIES_X * 1.01, -_SERIES_X * 0.99, -_SERIES_X * 1.01):
        direct = 1.0 / (-math.expm1(-u)) - 1.0 / u if u > 0 else math.exp(u) / math.expm1(u) - 1.0 / u
        assert _log_phi_derivs(u)[0] == pytest.approx(direct, rel=1e-7)


def test_nu_series_matches_direct():
    # near u = omega*tau = 0 expm1(u)/u keeps its digits, as long as
    # tau*expm1(u) is a normal float; u == 0 takes its limit, tau
    tau = 0.8
    for omega in (1e-300, -1e-300, 1e-12, -1e-12, 1e-7, -1e-7, 3e-6, -3e-6, 1e-3, -1e-3):
        u = mp.mpf(omega) * mp.mpf(tau)
        want = float(mp.mpf(tau) * mp.exp(u) * mp.expm1(u) / u)
        assert _nu(tau, omega) == pytest.approx(want, rel=4e-16)
    assert _nu(tau, 0.0) == tau


def test_fit_equal_spacing_matches_embedded_moments():
    panel = _panel([10, 12, 11, 15, 14, 19], dt=0.5)
    fit = qg_fit(panel)
    gw = gw_estimate(panel)
    assert not fit.boundary and not fit.degenerate
    assert fit.rates.lam == pytest.approx(gw.rates.lam, abs=1e-8)
    assert fit.rates.mu == pytest.approx(gw.rates.mu, abs=1e-8)
    # reparametrization exactness
    assert fit.rates.lam == pytest.approx(
        0.5 * (fit.params.xi + fit.params.omega), rel=1e-15
    )
    assert fit.rates.lam - fit.rates.mu == pytest.approx(fit.params.omega, rel=1e-12)


def test_fit_unequal_spacing_runs_interior():
    fit = qg_fit(MIXED)
    assert not fit.degenerate
    if not fit.boundary:
        assert fit.params.xi > abs(fit.params.omega)
        assert fit.cov_lambda_mu is not None
        assert fit.loglik == pytest.approx(
            qg_loglik(MIXED, fit.params), rel=1e-9
        )


def test_fit_deterministic_panel_is_degenerate():
    fit = qg_fit(_panel([2, 4, 8, 16], dt=1.0))
    assert fit.degenerate and fit.boundary
    assert fit.cov_lambda_mu is None and fit.params is None
    # growth preserved by the clamp
    assert fit.rates.mu == 0.0
    assert fit.rates.lam == pytest.approx(math.log(2.0), rel=1e-6)


def test_fit_all_extinct_panel_hits_boundary():
    fit = qg_fit(_panel([3, 0], [5, 0], dt=1.0))
    assert fit.boundary
    assert fit.rates.lam == 0.0
    assert fit.rates.mu > 0.0


def test_all_extinct_scan_stays_in_the_float_range():
    # unequal gaps: the widened bracket reaches omega = 212, so
    # omega * tau = 424 on the growth side, where the squared residual
    # overflows; the scan stops at SCAN_U_RANGE and still finds the
    # decay edge
    panel = Panel((Trajectory((0.0, 1.0), (1, 0)), Trajectory((0.0, 2.0), (1, 0))))
    fit = qg_fit(panel)
    assert fit.boundary and fit.degenerate
    assert math.isfinite(fit.loglik)
    assert fit.rates.lam == 0.0
    assert 100.0 < fit.rates.mu < -SCAN_U_RANGE[0] / 2.0


def test_terminal_extinction_term_pulls_omega_down():
    with_ext = _panel([10, 12, 11, 15, 14, 19], [8, 0], dt=0.5)
    without = _panel([10, 12, 11, 15, 14, 19], dt=0.5)
    assert qg_fit(with_ext).params.omega < qg_fit(without).params.omega


def test_information_xixi_entry():
    params = QgParams(0.3, 2.0)
    info = _information(MIXED, params)
    n_terms = 7  # transitions with positive source in MIXED
    assert info[0, 0] == pytest.approx(n_terms / (2.0 * 2.0**2), rel=1e-13)
    assert info[0, 1] == info[1, 0]


def test_sandwich_gaussian_collapse_and_psd():
    params = QgParams(0.3, 2.0)
    cov = qg_sandwich_cov(MIXED, params)
    info = _information(MIXED, params)
    d = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]])
    want = d @ np.linalg.inv(info) @ d.T
    np.testing.assert_allclose(cov, want, rtol=1e-10)
    assert cov[0, 1] == pytest.approx(cov[1, 0], rel=1e-12)
    eig = np.linalg.eigvalsh(cov)
    assert np.all(eig >= -1e-14)


def test_sandwich_true_cumulant_mode():
    params = QgParams(0.3, 2.0)
    cov_g = qg_sandwich_cov(MIXED, params)
    cov_t = qg_sandwich_cov(MIXED, params, true_cumulants=True)
    assert cov_t.shape == (2, 2)
    assert cov_t[0, 1] == pytest.approx(cov_t[1, 0], rel=1e-10)
    assert np.all(np.isfinite(cov_t))
    # the process is over-dispersed relative to the working model, so the
    # corrected variances should not collapse toward zero
    assert cov_t[0, 0] > 0.2 * cov_g[0, 0]
    assert cov_t[1, 1] > 0.2 * cov_g[1, 1]


@pytest.mark.parametrize(
    "lam, mu",
    [(7.0, 5.0), (1.2, 0.8), (2.0, 2.0), (0.5, 3.0), (5.0, 0.1), (0.1, 5.0), (3.0, 2.9)],
)
@pytest.mark.parametrize("tau", [0.001, 0.1, 1.0, 10.0])
def test_true_cumulants_match_oracle(lam, mu, tau):
    got = _true_cumulants(tau, Rates(lam, mu))
    for order, value in zip((2, 3, 4), got):
        want = float(mp_cgf_derivative(0, tau, 1, lam, mu, order=order))
        assert value == pytest.approx(want, rel=1e-12)


def test_profile_xi_positive_on_noisy_panel():
    assert qg_profile_xi(MIXED, 0.25) > 0.0


@settings(max_examples=30, deadline=None)
@given(
    omega=st.floats(-2.0, 2.0),
    xi=st.floats(0.1, 6.0),
)
def test_property_loglik_matches_naive(omega, xi):
    # the naive transcription itself degrades near omega = 0
    if not (xi > abs(omega)) or abs(omega) < 1e-4:
        return
    got = qg_loglik(MIXED, QgParams(omega, xi))
    want = _naive_loglik(MIXED, omega, xi)
    assert got == pytest.approx(want, rel=1e-10)
