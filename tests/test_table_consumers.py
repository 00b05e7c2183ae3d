"""The moment, quasi-likelihood and starting-point code read the panel's
transitions table; these tests hold them to the trajectory walks they
replaced, kept verbatim in legacy_kernels."""

import legacy_kernels as legacy
import numpy as np
import pytest

import bdrates.gaussian as gaussian
from bdrates.errors import BdError, DataError
from bdrates.estimate import initial_rates
from bdrates.gaussian import (
    QgParams,
    _fixed_sums,
    _information,
    _profile_loglik_terms,
    _score_cov_true,
    qg_fit,
    qg_loglik,
    qg_profile_xi,
)
from bdrates.gw import _invert_flagged, gw_estimate, gw_moments, gw_standard_errors
from bdrates.simulate import SimConfig, simulate_panel
from bdrates.types import Panel, Rates, Trajectory


def _panels():
    """Simulated, absorbing and unequally spaced panels, by name."""
    cells = {
        # pooled growth on the float grid 0.1*(j+1): one merged gap group
        "pooled_float_grid": (Rates(7.0, 5.0), 10, 0.1, 20, 4, False),
        # the paper's single-trajectory setting, small counts
        "single_traj": (Rates(7.0, 6.0), 1, 0.2, 14, 1, True),
        # subcritical, with extinct tails, on an exact dyadic grid
        "absorbing": (Rates(3.0, 4.0), 6, 0.25, 12, 3, False),
    }
    out = {}
    for i, (name, (r, z0, dt, n, m, cond)) in enumerate(cells.items()):
        times = tuple(dt * (j + 1) for j in range(n))
        out[name] = simulate_panel(SimConfig(r, z0, times, cond, seed=200 + i), m)
    out["unequal"] = Panel(
        (
            Trajectory((0.0, 0.188, 0.3, 0.357, 0.595, 0.767, 0.944), (8, 5, 3, 4, 13, 33, 69)),
            Trajectory((0.0, 0.112, 0.3, 0.5, 0.7), (3, 1, 1, 2, 1)),
        )
    )
    # no target survives: the pooled growth guess takes its extinction branch
    out["unequal_extinct"] = Panel(
        (
            Trajectory((0.0, 0.5, 1.0), (4, 0, 0)),
            Trajectory((0.0, 0.5, 1.25), (2, 0, 0)),
        )
    )
    out["equal_extinct"] = Panel((Trajectory((0.0, 0.5, 1.0), (4, 0, 0)),))
    return out


PANELS = _panels()
EQUAL = [name for name, p in PANELS.items() if p.equal_spacing()]


def _params(seed, k=6):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        omega = rng.uniform(-3.0, 3.0)
        out.append(QgParams(omega, abs(omega) + rng.uniform(0.1, 15.0)))
    return out


def _assert_rel(got, ref, rel):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert np.all(np.abs(got - ref) <= rel * np.abs(ref)), (got, ref)


def test_panel_set_covers_the_cases():
    assert len(PANELS["pooled_float_grid"].transitions.groups) == 1
    assert PANELS["single_traj"].n_transitions == 14
    assert {"pooled_float_grid", "single_traj", "absorbing", "equal_extinct"} <= set(EQUAL)
    for name in ("absorbing", "equal_extinct"):
        assert any(0 in tr.counts for tr in PANELS[name])


@pytest.mark.parametrize("name", EQUAL)
def test_gw_is_bit_identical_to_walk(name):
    panel = PANELS[name]
    moments = gw_moments(panel)
    ref = legacy.gw_moments(panel)
    assert moments == ref
    if ref.m_hat == 0.0:
        with pytest.raises(BdError):
            gw_estimate(panel)
        return
    se_ref = legacy.gw_standard_errors(ref, panel)
    assert gw_standard_errors(moments, panel) == se_ref
    est = gw_estimate(panel)
    assert (est.rates, est.clamped) == _invert_flagged(ref)
    assert (est.se_lambda, est.se_mu, est.se_omega) == se_ref


def test_gw_rejects_unequal_spacing_like_walk():
    for name in ("unequal", "unequal_extinct"):
        with pytest.raises(DataError):
            legacy.gw_moments(PANELS[name])
        with pytest.raises(DataError):
            gw_moments(PANELS[name])


@pytest.mark.parametrize("name", sorted(PANELS))
def test_qg_functions_match_walk(name):
    panel = PANELS[name]
    for params in _params(1):
        w = params.omega
        _assert_rel(qg_loglik(panel, params), legacy.qg_loglik(panel, params), 1e-12)
        _assert_rel(qg_profile_xi(panel, w), legacy.qg_profile_xi(panel, w), 1e-12)
        groups = panel.transitions.groups
        profile = _profile_loglik_terms(groups, *_fixed_sums(groups), w)
        _assert_rel(profile, legacy._profile_loglik(panel, w), 1e-12)
        _assert_rel(_information(panel, params), legacy._information(panel, params), 1e-12)


@pytest.mark.parametrize("name", sorted(PANELS))
def test_score_cov_true_matches_walk(name):
    # the cumulants are closed-form, so the merged gap's last-bit
    # difference from single float gaps stays in the last bits
    panel = PANELS[name]
    for params in _params(2):
        got = _score_cov_true(panel, params)
        _assert_rel(got, legacy._score_cov_true(panel, params), 1e-12)


def test_score_cov_true_evaluates_cumulants_once_per_group(monkeypatch):
    panel = PANELS["pooled_float_grid"]
    assert len({b - a for tr in panel for a, b in zip(tr.times, tr.times[1:])}) > 1
    calls = []
    real = gaussian._true_cumulants

    def counting(tau, rates):
        calls.append(tau)
        return real(tau, rates)

    monkeypatch.setattr(gaussian, "_true_cumulants", counting)
    _score_cov_true(panel, QgParams(2.0, 12.0))
    assert calls == [panel.transitions.groups[0].tau]


@pytest.mark.parametrize("name", sorted(PANELS))
def test_qg_fit_matches_walk(name):
    panel = PANELS[name]
    got, ref = qg_fit(panel), legacy.qg_fit(panel)
    _assert_rel(got.loglik, ref.loglik, 1e-12)
    # the bounded Brent search stops at about sqrt(eps)*|omega|, so the
    # two paths may part there
    _assert_rel([got.rates.lam, got.rates.mu], [ref.rates.lam, ref.rates.mu], 1e-7)
    assert (got.boundary, got.degenerate) == (ref.boundary, ref.degenerate)


@pytest.mark.parametrize("name", sorted(PANELS))
def test_initial_rates_match_walk(name):
    panel = PANELS[name]
    got, ref = initial_rates(panel), legacy.initial_rates(panel)
    if name in EQUAL:
        assert got == ref
    else:
        _assert_rel([got.lam, got.mu], [ref.lam, ref.mu], 1e-12)
