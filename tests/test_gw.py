import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import variance

from bdrates import gw
from bdrates.errors import DataError, DomainError
from bdrates.estimate import fit
from bdrates.gw import (
    EPS_NEAR_CRITICAL,
    REGIME_NEAR_CRITICAL,
    REGIME_OK,
    GwMoments,
    gw_estimate,
    gw_invert,
    gw_moments,
    gw_standard_errors,
)
from bdrates.types import Panel, Rates, Trajectory, Transitions


def _panel(*count_rows, dt=1.0):
    trajs = []
    for row in count_rows:
        times = tuple(dt * i for i in range(len(row)))
        trajs.append(Trajectory(times, tuple(row)))
    return Panel(tuple(trajs))


def test_moments_deterministic_doubling():
    m = gw_moments(_panel([2, 4, 8]))
    assert m.m_hat == pytest.approx(2.0)
    assert m.sigma2_hat == pytest.approx(0.0, abs=1e-14)
    assert m.n_terms == 2
    assert m.m_traj == 1


def test_moments_constant_path():
    m = gw_moments(_panel([5, 5, 5]))
    assert m.m_hat == pytest.approx(1.0)
    assert m.sigma2_hat == pytest.approx(0.0, abs=1e-14)


def test_moments_two_trajectories_hand_value():
    m = gw_moments(_panel([1, 2], [3, 4]))
    assert m.m_hat == pytest.approx(1.5)
    expected = 0.5 * (1 * (2 / 1 - 1.5) ** 2 + 3 * (4 / 3 - 1.5) ** 2)
    assert m.sigma2_hat == pytest.approx(expected, rel=1e-14)
    assert m.n_terms == 2
    assert m.m_traj == 2


def test_moments_pool_reduces_to_single_trajectory_formula():
    # with one trajectory the pooled ratio is the classic estimator
    row = [4, 7, 6, 11, 9]
    m = gw_moments(_panel(row))
    assert m.m_hat == pytest.approx(sum(row[1:]) / sum(row[:-1]), rel=1e-15)
    assert m.n_terms == len(row) - 1


def test_moments_extinct_tail_is_inert():
    # everything after the first zero carries no information
    base = gw_moments(_panel([3, 5, 0]))
    padded = gw_moments(_panel([3, 5, 0, 0, 0]))
    assert padded.m_hat == base.m_hat
    assert padded.sigma2_hat == base.sigma2_hat
    assert padded.n_terms == base.n_terms


def test_moments_requires_equal_spacing():
    tr = Trajectory((0.0, 1.0, 3.0), (2, 3, 4))
    with pytest.raises(DataError):
        gw_moments(Panel((tr,)))


def test_step_table_and_moments_are_built_once_per_panel(monkeypatch):
    panel = _panel([2, 3, 5, 4], [6, 6, 9], dt=0.1)
    tables, moments = [], []
    real_table, real_moments = Transitions.from_panel.__func__, gw._moments

    def counting_table(cls, p):
        tables.append(p)
        return real_table(cls, p)

    def counting_moments(table):
        moments.append(table)
        return real_moments(table)

    monkeypatch.setattr(Transitions, "from_panel", classmethod(counting_table))
    monkeypatch.setattr(gw, "_moments", counting_moments)
    # the moment fit, then the start of a likelihood fit, then the public calls
    fit(panel, "gw")
    fit(panel, "spmle")
    assert gw_moments(panel) is gw_moments(panel)
    assert gw_estimate(panel) == gw_estimate(panel)
    assert panel.equal_spacing() and panel.common_gap() == gw_moments(panel).delta_t
    assert len(tables) == 1 and len(moments) == 1
    assert gw_moments(panel).delta_t == sum(panel.transitions.gap.tolist()) / 5
    # unequal gaps: the refusal is not kept, and the table is still built once
    uneven = Panel((Trajectory((0.0, 1.0, 3.0), (2, 3, 4)),))
    for _ in range(2):
        with pytest.raises(DataError, match="embedded-process estimator does not apply"):
            gw_moments(uneven)
    assert len(tables) == 2


def test_standard_errors_reject_zero_offspring_mean():
    # every trajectory dies in its first step, so m_hat = 0
    for panel in (
        Panel((Trajectory((0.0, 0.5, 1.0), (4, 0, 0)),)),
        _panel([3, 0], [1, 0], dt=0.5),
    ):
        moments = gw_moments(panel)
        assert moments.m_hat == 0.0
        with pytest.raises(DomainError, match="offspring mean"):
            gw_standard_errors(moments, panel)
        with pytest.raises(DomainError):
            gw_estimate(panel)


def test_moments_scale_equivariance():
    base = gw_moments(_panel([2, 3, 5, 4]))
    scaled = gw_moments(_panel([20, 30, 50, 40]))
    assert scaled.m_hat == pytest.approx(base.m_hat, rel=1e-14)
    assert scaled.sigma2_hat == pytest.approx(10 * base.sigma2_hat, rel=1e-12)


def test_invert_recovers_true_rates_from_true_moments():
    r = Rates(7.0, 5.0)
    dt = 0.1
    m_true = math.exp(r.omega * dt)
    s2_true = variance(dt, 1, r)
    got = gw_invert(GwMoments(m_true, s2_true, dt, 10, 1))
    assert got.lam == pytest.approx(7.0, rel=1e-12)
    assert got.mu == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize(
    "lam,mu,dt",
    [(7.0, 5.0, 0.1), (1.2, 0.8, 0.5), (0.4, 1.9, 0.25), (3.0, 0.0, 0.07), (2.0, 2.0, 0.3)],
)
def test_invert_identity_on_rate_grid(lam, mu, dt):
    r = Rates(lam, mu)
    m_true = math.exp(r.omega * dt)
    s2_true = variance(dt, 1, r)
    got = gw_invert(GwMoments(m_true, s2_true, dt, 10, 1))
    assert got.lam == pytest.approx(lam, rel=1e-10, abs=1e-10)
    assert got.mu == pytest.approx(mu, rel=1e-10, abs=1e-10)


def test_invert_critical_closed_form():
    got = gw_invert(GwMoments(1.0, 0.4, 0.1, 10, 1))
    assert got.lam == pytest.approx(2.0, rel=1e-14)
    assert got.mu == pytest.approx(2.0, rel=1e-14)
    # m_hat near 1 takes the generic formula, which tends to the same limit
    near = gw_invert(GwMoments(1.0 + 0.5 * EPS_NEAR_CRITICAL, 0.4, 0.1, 10, 1))
    assert near.lam == pytest.approx(2.0, rel=1e-5)


def test_invert_clamps_negative_death_rate():
    # vanishing variance estimate drives mu below zero
    got = gw_invert(GwMoments(1.2, 1e-12, 0.1, 10, 1))
    assert got.mu == 0.0
    assert got.lam == pytest.approx(math.log(1.2) / 0.1, rel=1e-9)


def test_invert_clamps_negative_birth_rate():
    # shrinking panel with tiny variance drives lam below zero
    got = gw_invert(GwMoments(0.8, 1e-12, 0.1, 10, 1))
    assert got.lam == 0.0
    assert got.mu == pytest.approx(-math.log(0.8) / 0.1, rel=1e-9)


def test_estimate_clamp_preserves_growth_rate():
    # deterministic doubling has sigma2_hat = 0, so mu_hat < 0 pre-clamp
    est = gw_estimate(_panel([2, 4, 8], dt=math.log(2)))
    assert est.clamped
    assert est.rates.mu == 0.0
    assert est.rates.lam == pytest.approx(1.0, rel=1e-12)
    assert est.omega_hat == pytest.approx(1.0, rel=1e-12)
    assert est.rates.lam - est.rates.mu == pytest.approx(est.omega_hat, rel=1e-12)


def test_invert_rejects_nonpositive_mean():
    with pytest.raises(DomainError):
        gw_invert(GwMoments(0.0, 0.1, 0.1, 5, 1))


def test_estimate_omega_is_log_mean_over_gap():
    est = gw_estimate(_panel([3, 5, 9, 14], dt=0.25))
    m = gw_moments(_panel([3, 5, 9, 14], dt=0.25))
    assert est.omega_hat == pytest.approx(math.log(m.m_hat) / 0.25, rel=1e-15)
    assert est.rates.lam - est.rates.mu == pytest.approx(est.omega_hat, rel=1e-12)


def test_estimate_near_critical_rates_keep_the_growth_rate():
    # m_hat - 1 = -2/2000013, inside the regime flag's band: the rates are
    # the generic inversion, so their difference is omega_hat
    panel = Panel(
        (
            Trajectory((0.0, 1.0, 2.0), (1000000, 1000001, 999999)),
            Trajectory((0.0, 1.0, 2.0), (5, 7, 4)),
        )
    )
    est = gw_estimate(panel)
    assert est.regime == REGIME_NEAR_CRITICAL and not est.clamped
    assert est.omega_hat == pytest.approx(math.log(2000011 / 2000013), rel=1e-12)
    assert est.rates.lam - est.rates.mu == pytest.approx(est.omega_hat, rel=1e-9)


def test_estimate_regime_flags():
    growing = gw_estimate(_panel([3, 5, 9, 14]))
    assert growing.regime == REGIME_OK
    # targets sum 15 over sources sum 15: m_hat is exactly 1 with variation
    flat = gw_estimate(_panel([5, 6, 4, 5]))
    assert flat.regime == REGIME_NEAR_CRITICAL
    assert flat.rates.lam == flat.rates.mu > 0.0


def test_invert_flat_panel_is_degenerate():
    with pytest.raises(DomainError):
        gw_invert(gw_moments(_panel([5, 5, 5])))


def test_standard_errors_structure():
    panel = _panel([3, 5, 9, 14], [2, 3, 2, 5])
    moments = gw_moments(panel)
    se_l, se_m, se_w = gw_standard_errors(moments, panel)
    assert se_l == se_m
    assert se_l > 0.0 and math.isfinite(se_l)
    # growth-rate SE uses the summed source counts
    src = 3 + 5 + 9 + 2 + 3 + 2
    expected = math.sqrt(moments.sigma2_hat) / (moments.m_hat * 1.0 * math.sqrt(src))
    assert se_w == pytest.approx(expected, rel=1e-12)


def test_standard_errors_match_plugin_formula():
    panel = _panel([3, 5, 9, 14])
    mo = gw_moments(panel)
    se_l, _, _ = gw_standard_errors(mo, panel)
    m, s2, dt = mo.m_hat, mo.sigma2_hat, 1.0
    expected = abs(math.log(m)) * s2 / math.sqrt(
        2 * dt * dt * m * m * (m - 1) ** 2 * mo.n_terms
    )
    assert se_l == pytest.approx(expected, rel=1e-12)


def test_standard_errors_degenerate_at_critical_mean():
    panel = _panel([5, 5, 5])
    mo = gw_moments(panel)
    se_l, se_m, se_w = gw_standard_errors(mo, panel)
    assert se_l == math.inf and se_m == math.inf
    assert math.isfinite(se_w) or se_w == 0.0  # sigma2_hat is 0 here


# a common gap of 1e-170: 2 dt^2 m^2 (m-1)^2 n underflows to 0, while the
# inversion is finite
TINY_GAP = Panel((Trajectory((0.0, 1e-170, 2e-170, 3e-170), (5, 7, 9, 12)),))


def test_standard_errors_are_infinite_where_the_rate_denominator_underflows():
    mo = gw_moments(TINY_GAP)
    se_l, se_m, se_w = gw_standard_errors(mo, TINY_GAP)
    assert se_l == se_m == math.inf
    assert se_w == math.sqrt(mo.sigma2_hat) / (mo.m_hat * mo.delta_t * math.sqrt(21))
    # the fit returns the inverted rates, without a covariance
    res = fit(TINY_GAP, "gw")
    assert res.rates == gw.gw_invert(mo) and res.rates.lam > 1e169
    assert res.cov is None and res.se_omega is None


def test_standard_errors_are_infinite_where_the_growth_denominator_underflows():
    # m dt rounds to 0 where dt is the smallest subnormal and m below 1/2
    moments = gw.GwMoments(m_hat=0.4, sigma2_hat=0.5, delta_t=5e-324, n_terms=3, m_traj=1)
    panel = _panel([3, 4, 5, 6])
    assert gw_standard_errors(moments, panel) == (math.inf, math.inf, math.inf)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(0, 40), min_size=2, max_size=6).filter(lambda r: r[0] >= 1),
        min_size=1,
        max_size=4,
    ),
    c=st.integers(2, 9),
)
def test_property_scale_equivariance(rows, c):
    def absorb(row):
        out = []
        dead = False
        for k in row:
            out.append(0 if dead else k)
            if k == 0:
                dead = True
        return out

    rows = [absorb(r) for r in rows]
    try:
        base = gw_moments(_panel(*rows))
    except DataError:
        return
    scaled = gw_moments(_panel(*[[c * k for k in row] for row in rows]))
    assert scaled.m_hat == pytest.approx(base.m_hat, rel=1e-12)
    assert scaled.sigma2_hat == pytest.approx(c * base.sigma2_hat, rel=1e-9, abs=1e-12)
