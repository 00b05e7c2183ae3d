"""Score and observed information of the saddlepoint log likelihoods
(spa_derivatives) against independent references: mpmath derivatives of
the oracle saddlepoint pmf, central differences of spa_loglik, and
central differences of the analytic score. Then the contract the fits
keep with spa_loglik, and the saddlepoints spa_derivatives reads from
the last spa_loglik sweep."""

import math

import mpmath as mp
import numpy as np
import pytest
import test_exact_table
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mp_alpha_beta, mp_log_spa_pmf
from test_newton_search import small_panels

import bdrates.estimate
import bdrates.saddlepoint
from bdrates.errors import BdError, DomainError, SolverError
from bdrates.estimate import fit
from bdrates.exact import geom_params, is_critical
from bdrates.saddlepoint import _log_radius, solve_saddlepoint, spa_derivatives, spa_loglik
from bdrates.types import Panel, Rates, Trajectory

# three gap groups (0.3, 0.5, 0.7); k = 0 lanes (1 -> 0), k = 1 lanes
# (5 -> 1, 1 -> 1), conditional k >= 2 lanes, ancestor counts 1 to 9
EDGE = Panel(
    (
        Trajectory((0.0, 0.3, 0.8, 1.5), (5, 1, 0, 0)),
        Trajectory((0.0, 0.5, 0.8, 1.5), (3, 9, 2, 14)),
        Trajectory((0.0, 0.3, 1.0), (1, 1, 4)),
    )
)
PANELS = {"edge": EDGE, **test_exact_table.PANELS}

RATES = {
    "growth": Rates(1.3, 0.9),
    "decline": Rates(0.7, 1.1),
    # inside the critical band, where geom_params and the saddle
    # quadratic take the lam == mu formulas
    "critical": Rates(2.0, 2.0),
    "in_band": Rates(2.0 * (1 + 2.5e-9), 2.0 * (1 - 2.5e-9)),
    # just outside it, on either side
    "above_band": Rates(2.0 * (1 + 1e-6), 2.0 * (1 - 1e-6)),
    "below_band": Rates(2.0 * (1 - 1e-6), 2.0 * (1 + 1e-6)),
}


def test_band_rates_straddle_the_critical_switch():
    assert is_critical(RATES["critical"]) and is_critical(RATES["in_band"])
    assert not is_critical(RATES["above_band"]) and not is_critical(RATES["below_band"])
    assert RATES["above_band"].omega > 0.0 > RATES["below_band"].omega


def _rates(theta) -> Rates:
    return Rates(math.exp(theta[0]), math.exp(theta[1]))


def _central(fun, theta, h=1e-3):
    """Fourth-order central differences of fun (a scalar or a vector) in
    each coordinate of theta, as columns."""
    cols = []
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        cols.append(
            (-fun(theta + 2 * e) + 8 * fun(theta + e) - 8 * fun(theta - e) + fun(theta - 2 * e))
            / (12 * h)
        )
    return np.array(cols).T


def _mp_score(panel, rates):
    """d/d(log lam, log mu) of the plain saddlepoint log likelihood, by
    mpmath differentiation of the oracle pmf summed over the panel: k = 0
    lanes score a*log(alpha) and k >= 1 lanes mp_log_spa_pmf, each
    bracketed around the float saddlepoint."""
    lanes = []
    for tr in panel:
        for a, k, t in zip(tr.counts, tr.counts[1:], np.diff(tr.times)):
            if a == 0:
                continue
            if k == 0:
                lanes.append((a, k, t, None))
                continue
            x = solve_saddlepoint(k, t, a, rates).x_tilde
            room = _log_radius(geom_params(t, rates)) - x
            lanes.append((a, k, t, (x - 0.5, x + min(0.5, 0.5 * room))))

    def loglik(th0, th1):
        lam, mu = mp.exp(th0), mp.exp(th1)
        total = mp.mpf(0)
        for a, k, t, bracket in lanes:
            if bracket is None:
                total += a * mp.log(mp_alpha_beta(t, lam, mu)[0])
            else:
                total += mp_log_spa_pmf(k, t, a, lam, mu, *bracket)
        return total

    # central differences with an explicit step: mpmath's default step is
    # inaccurate at lam == mu, where mp_alpha_beta switches formulas
    th = (mp.log(rates.lam), mp.log(rates.mu))
    h = mp.mpf("1e-20")
    return np.array([float(mp.diff(loglik, th, order, h=h)) for order in ((1, 0), (0, 1))])


@pytest.mark.parametrize("rname", list(RATES))
@pytest.mark.parametrize("pname", ["edge", "unequal"])
def test_plain_score_matches_mpmath(pname, rname):
    panel, rates = PANELS[pname], RATES[rname]
    score, _ = spa_derivatives(panel, rates, "plain")
    ref = _mp_score(panel, rates)
    assert np.all(np.abs(score - ref) <= 1e-7 * np.max(np.abs(ref)))


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("rname", list(RATES))
@pytest.mark.parametrize("pname", list(PANELS))
def test_score_matches_central_differences(pname, rname, variant):
    panel, rates = PANELS[pname], RATES[rname]
    theta = np.log([rates.lam, rates.mu])
    score, _ = spa_derivatives(panel, rates, variant)
    ref = _central(lambda th: spa_loglik(panel, _rates(th), variant), theta)
    assert np.all(np.abs(score - ref) <= 1e-6 * max(1.0, np.max(np.abs(ref))))


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("rname", list(RATES))
@pytest.mark.parametrize("pname", list(PANELS))
def test_information_matches_central_differences_of_the_score(pname, rname, variant):
    panel, rates = PANELS[pname], RATES[rname]
    theta = np.log([rates.lam, rates.mu])
    _, info = spa_derivatives(panel, rates, variant)
    ref = -_central(lambda th: spa_derivatives(panel, _rates(th), variant)[0], theta)
    assert np.array_equal(info, info.T)
    assert np.all(np.abs(info - ref) <= 1e-6 * max(1.0, np.max(np.abs(ref))))


def test_derivatives_reject_a_degenerate_law_and_an_unknown_variant(monkeypatch):
    # a degenerate law returns None before anything is solved, and leaves
    # the sweep of another point in the slot
    panel = _fresh(EDGE)
    spa_loglik(panel, RATES["growth"], "plain")
    ((key, sweep),) = panel.transitions._saddlepoints.items()
    solves = _count_solves(monkeypatch)
    assert spa_derivatives(panel, Rates(0.0, 1.0), "plain") is None
    assert spa_derivatives(panel, Rates(1.0, 0.0), "conditional") is None
    assert not solves
    assert list(panel.transitions._saddlepoints) == [key]
    assert panel.transitions._saddlepoints[key] is sweep
    with pytest.raises(DomainError):
        spa_derivatives(EDGE, Rates(1.0, 1.0), "renormalized")


def test_derivatives_near_the_radius_stay_accurate():
    # the collapse panel at a point its search once stalled on: the 1 -> 1
    # saddlepoint lies 1e-12 below the radius, where derivatives taken in
    # x and log(beta) apart cancel to nothing, and where spa_loglik is too
    # rough for central differences
    panel = Panel((Trajectory((0.0, 0.2, 3.4), (25, 1, 1)),))
    rates = _rates([1.74745801, 3.01638623])
    score, _ = spa_derivatives(panel, rates, "plain")
    ref = _mp_score(panel, rates)
    assert np.all(np.abs(score - ref) <= 1e-7 * np.max(np.abs(ref)))


# pytest's filter turns a RuntimeWarning into a failure
@settings(max_examples=60, deadline=None)
@given(
    panel=small_panels(),
    theta=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
    variant=st.sampled_from(["plain", "conditional"]),
)
def test_derivatives_are_finite_none_or_a_typed_error(panel, theta, variant):
    try:
        out = spa_derivatives(panel, _rates(theta), variant)
    except BdError:
        return
    if out is not None:
        assert all(np.all(np.isfinite(part)) for part in out)


# ---------------------------------------------------------------------------
# the fits


@pytest.mark.parametrize("method", ["spmle", "spmle_adjusted"])
def test_fits_call_spa_loglik_once_per_counted_evaluation(monkeypatch, method):
    # perfbench's traced run wraps bdrates.estimate.spa_loglik with the
    # signature (panel, rates, variant); its evaluation counts hold only if
    # the objective calls it exactly so, once per evaluation, and nothing
    # else does
    real = bdrates.saddlepoint.spa_loglik
    calls = []

    def counting(panel, rates, variant):
        calls.append((panel, variant))
        return real(panel, rates, variant)

    def refuse(*args, **kwargs):
        raise AssertionError("spa_derivatives must not score the panel through spa_loglik")

    monkeypatch.setattr(bdrates.estimate, "spa_loglik", counting)
    monkeypatch.setattr(bdrates.saddlepoint, "spa_loglik", refuse)
    panel = test_exact_table.PANELS["pooled_float_grid"]
    res = fit(panel, method)
    variant = "conditional" if method == "spmle_adjusted" else "plain"
    assert len(calls) == res.n_obj_evals
    assert all(p is panel and v == variant for p, v in calls)
    assert res.newton_iterations >= 1 and not res.continued



# ---------------------------------------------------------------------------
# the saddlepoints spa_loglik leaves for spa_derivatives


def _fresh(panel):
    """The same panel with its own, empty transitions table."""
    return Panel(panel.trajectories)


def _count_solves(monkeypatch):
    real = bdrates.saddlepoint._solve_x
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bdrates.saddlepoint, "_solve_x", counting)
    return calls


def _same_bits(got, ref):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, ref))


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("rname", ["growth", "decline", "critical"])
@pytest.mark.parametrize("pname", sorted(test_exact_table.PANELS))
def test_derivatives_after_the_loglik_equal_a_cold_call_bit_for_bit(
    monkeypatch, pname, rname, variant
):
    panel, rates = _fresh(test_exact_table.PANELS[pname]), RATES[rname]
    cold = spa_derivatives(_fresh(panel), rates, variant)
    spa_loglik(panel, rates, variant)
    solves = _count_solves(monkeypatch)
    # equal rates, not the same object, find the sweep
    warm = spa_derivatives(panel, Rates(rates.lam, rates.mu), variant)
    assert not solves
    assert _same_bits(warm, cold)


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("rname", ["growth", "decline", "critical"])
@pytest.mark.parametrize("pname", sorted(PANELS))
def test_a_cold_call_leaves_the_sweep_of_the_loglik(pname, rname, variant):
    rates = RATES[rname]
    cold, ref = _fresh(PANELS[pname]), _fresh(PANELS[pname])
    spa_derivatives(cold, rates, variant)
    spa_loglik(ref, rates, variant)
    got, want = cold.transitions._saddlepoints, ref.transitions._saddlepoints
    assert list(got) == list(want) == [(rates, variant == "conditional")]
    ((sweep,), (ref_sweep,)) = got.values(), want.values()
    assert len(sweep) == len(ref_sweep) == len(cold.transitions.groups)
    for (g, coefs, k, a, x), (rg, rcoefs, rk, ra, rx) in zip(sweep, ref_sweep):
        assert g == rg and coefs == rcoefs
        assert _same_bits((k, a), (rk, ra))
        assert (x is None and rx is None) or _same_bits((x,), (rx,))


@pytest.mark.parametrize("variant", ["plain", "conditional"])
def test_a_sweep_at_other_rates_or_of_the_other_variant_is_not_read(monkeypatch, variant):
    panel = _fresh(test_exact_table.PANELS["unequal"])
    other = "plain" if variant == "conditional" else "conditional"
    rates = RATES["growth"]
    spa_loglik(panel, rates, variant)
    solves = _count_solves(monkeypatch)
    for r, v in [(RATES["decline"], variant), (rates, other)]:
        del solves[:]
        got = spa_derivatives(panel, r, v)
        assert solves, (r, v)
        assert _same_bits(got, spa_derivatives(_fresh(panel), r, v))


@pytest.mark.parametrize("variant", ["plain", "conditional"])
def test_a_loglik_that_raises_leaves_no_sweep(variant):
    # the 0.5 gap group solves; the later 4.05 gap group's root lies inside
    # the guard band (EDGE_INPUTS[0] of test_saddlepoint, where the
    # conditional root of 3 -> 2 is not in the band, but that of 3 -> 1e12 is)
    t = 4.045870995154412
    panel = Panel((Trajectory((0.0, 0.5), (3, 2)), Trajectory((0.0, t), (3, 10**12))))
    bad = Rates(0.015039993583716273, 30.75876642857539)
    spa_loglik(panel, RATES["growth"], variant)
    assert panel.transitions._saddlepoints
    with pytest.raises(SolverError, match="guard band") as raised:
        spa_loglik(panel, bad, variant)
    assert panel.transitions._saddlepoints == {}
    # a cold derivatives call raises the same error and leaves no sweep,
    # also where the slot held one at other rates
    spa_loglik(panel, RATES["growth"], variant)
    with pytest.raises(SolverError) as cold:
        spa_derivatives(panel, bad, variant)
    assert str(cold.value) == str(raised.value)
    assert panel.transitions._saddlepoints == {}


@pytest.mark.parametrize("pname", ["unequal", "single_traj"])
@pytest.mark.parametrize("method", ["spmle", "spmle_adjusted"])
def test_fits_solve_each_group_once_per_counted_evaluation(monkeypatch, method, pname):
    panel = _fresh(test_exact_table.PANELS[pname])
    conditional = method == "spmle_adjusted"
    live = sum(
        bool(bdrates.saddlepoint._lanes(grp.dst, grp.src, conditional)[1].size)
        for grp in panel.transitions.groups
    )
    solves = _count_solves(monkeypatch)
    res = fit(panel, method)
    assert live >= 1 and res.newton_iterations >= 1 and not res.continued
    assert len(solves) == live * res.n_obj_evals


# the most CGF passes one conditional spa_loglik call made during the fit
# of each panel (the plain call makes one per gap group with saddlepoint
# lanes: the residual check at the quadratic root, whose terms it scores)
COND_PASSES = {
    "pooled_float_grid": 3,
    "single_traj": 6,
    "absorbing": 5,
    "unequal": 21,
    "large_counts": 1,
}


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("pname", sorted(test_exact_table.PANELS))
def test_cgf_passes_per_evaluation(monkeypatch, pname, variant):
    panel = _fresh(test_exact_table.PANELS[pname])
    conditional = variant == "conditional"
    live = sum(
        bool(bdrates.saddlepoint._lanes(grp.dst, grp.src, conditional)[1].size)
        for grp in panel.transitions.groups
    )
    real_terms, real_loglik = bdrates.saddlepoint._cgf_terms, bdrates.estimate.spa_loglik
    passes, per_call = [0], []

    def counting_terms(*args):
        passes[0] += 1
        return real_terms(*args)

    def counting_loglik(panel, rates, variant):
        before = passes[0]
        try:
            return real_loglik(panel, rates, variant)
        finally:
            per_call.append(passes[0] - before)

    monkeypatch.setattr(bdrates.saddlepoint, "_cgf_terms", counting_terms)
    monkeypatch.setattr(bdrates.estimate, "spa_loglik", counting_loglik)
    res = fit(panel, "spmle_adjusted" if conditional else "spmle")
    assert len(per_call) == res.n_obj_evals
    if conditional:
        assert max(per_call) <= COND_PASSES[pname]
    else:
        assert set(per_call) == {live}


def test_conditional_derivatives_where_m_minus_p0_is_tiny():
    # a probe of a census fit: M - p0 of the 2 -> 5 and 56 -> 63 lanes is
    # 1e-82 M and 1e-88 M, where the fourth derivative of log(e^t - 1) in
    # t = log(M/p0) overflowed and the derivatives read None
    panel = Panel(
        (
            Trajectory((0.0, 1.806873714817237), (2, 5)),
            Trajectory((0.0, 2.0, 2.03125), (56, 63, 1182)),
        )
    )
    rates = Rates(135.75641630487578, 29.802541097850991)
    theta = np.log([rates.lam, rates.mu])
    score, info = spa_derivatives(panel, rates, "conditional")
    ref = _central(lambda th: spa_loglik(panel, _rates(th), "conditional"), theta)
    assert np.all(np.abs(score - ref) <= 1e-6 * max(1.0, np.max(np.abs(ref))))
    ref = -_central(lambda th: spa_derivatives(panel, _rates(th), "conditional")[0], theta)
    assert np.all(np.abs(info - ref) <= 1e-6 * max(1.0, np.max(np.abs(ref))))
