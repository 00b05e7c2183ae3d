"""The exact likelihood reads a rate-free term table per gap group; these
tests hold it to the per-transition loop it replaced (kept verbatim in
legacy_kernels), to the mpmath oracle, and to the scalar pmf on the
degenerate laws that keep the scalar path."""

import math
import random

import legacy_kernels as legacy
import mpmath as mp
import numpy as np
import pytest
from oracles import mp_transition_prob

import bdrates.exact as exact
from bdrates.estimate import fit
from bdrates.exact import EPS_CRITICAL, exact_loglik, geom_params, term_table
from bdrates.simulate import SimConfig, simulate_panel
from bdrates.types import Panel, Rates, Trajectory


def _panels():
    """Simulated, absorbing, unequally spaced and large-count panels."""
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
        out[name] = simulate_panel(SimConfig(r, z0, times, cond, seed=300 + i), m)
    out["unequal"] = Panel(
        (
            Trajectory((0.0, 0.188, 0.3, 0.357, 0.595, 0.767, 0.944), (8, 5, 3, 4, 13, 33, 69)),
            Trajectory((0.0, 0.112, 0.3, 0.5, 0.7), (3, 1, 1, 2, 1)),
            Trajectory((0.0, 0.5, 1.25), (2, 0, 0)),
        )
    )
    # counts near 10^4: segments of thousands of terms
    out["large_counts"] = Panel(
        (
            Trajectory((0.0, 0.05, 0.1, 0.15, 0.2), (9000, 9630, 10212, 9874, 10411)),
            Trajectory((0.0, 0.05, 0.1), (8700, 8650, 9122)),
        )
    )
    return out


PANELS = _panels()


def _rel_err(got, ref):
    return abs(got - ref) / abs(ref)


def test_panel_set_covers_the_cases():
    assert len(PANELS["pooled_float_grid"].transitions.groups) == 1
    assert any(0 in tr.counts for tr in PANELS["absorbing"])
    assert len(PANELS["unequal"].transitions.groups) > 3
    assert max(PANELS["large_counts"][0].counts) > 10**4


@pytest.mark.parametrize("name", sorted(PANELS))
def test_matches_transition_walk_at_random_rates(name):
    panel = PANELS[name]
    rng = random.Random(17)
    for _ in range(8):
        r = Rates(rng.uniform(0.3, 12.0), rng.uniform(0.3, 12.0))
        ref = legacy.exact_loglik_transition_walk(panel, r)
        assert _rel_err(exact_loglik(panel, r), ref) <= 1e-12


@pytest.mark.parametrize("name", sorted(PANELS))
def test_matches_transition_walk_near_critical(name):
    # |omega| inside the band where geom_params takes the lam == mu limit
    panel = PANELS[name]
    for lam, frac in [(2.0, 0.0), (6.5, 0.4), (11.0, -0.9)]:
        mu = lam * (1.0 + frac * EPS_CRITICAL)
        r = Rates(lam, mu)
        assert exact.is_critical(r)
        ref = legacy.exact_loglik_transition_walk(panel, r)
        assert _rel_err(exact_loglik(panel, r), ref) <= 1e-12


# (a, k, t, lam, mu): k = 0, k = 1 and a = 1 included
SINGLE = [
    (3, 5, 0.5, 1.8, 1.2),
    (5, 0, 0.5, 1.8, 1.2),
    (1, 1, 0.3, 1.2, 0.8),
    (1, 9, 0.7, 3.0, 0.5),
    (20, 1, 1.0, 7.0, 5.0),
    (1, 0, 2.0, 0.5, 3.0),
    (10, 40, 1.0, 7.0, 5.0),
    (4, 3, 0.5, 2.0, 2.0),
    (37, 12, 0.8, 1.0, 2.5),
]


@pytest.mark.parametrize("a, k, t, lam, mu", SINGLE)
def test_single_transition_matches_oracle(a, k, t, lam, mu):
    panel = Panel((Trajectory((0.0, t), (a, k)),))
    ref = float(mp.log(mp_transition_prob(k, t, a, lam, mu)))
    assert _rel_err(exact_loglik(panel, Rates(lam, mu)), ref) <= 1e-12


def test_k0_k1_and_single_ancestor_in_one_group():
    # one group holding k = 0, k = 1 and a = 1 transitions together
    panel = Panel(
        (
            Trajectory((0.0, 0.4, 0.8, 1.2), (6, 1, 3, 0)),
            Trajectory((0.0, 0.4, 0.8), (1, 1, 7)),
            Trajectory((0.0, 0.4), (9, 0)),
        )
    )
    r = Rates(2.5, 1.5)
    assert len(panel.transitions.groups) == 1
    want = sum(
        float(mp.log(mp_transition_prob(k, 0.4, a, r.lam, r.mu)))
        for a, k in [(6, 1), (1, 3), (3, 0), (1, 1), (1, 7), (9, 0)]
    )
    assert _rel_err(exact_loglik(panel, r), want) <= 1e-13


@pytest.mark.parametrize(
    "rates", [Rates(0.0, 3.0), Rates(2.5, 0.0)], ids=["pure_death", "pure_birth"]
)
@pytest.mark.parametrize("name", ["absorbing", "unequal", "single_traj"])
def test_degenerate_law_uses_scalar_pmf(rates, name):
    panel = PANELS[name]
    assert exact_loglik(panel, rates) == legacy.exact_loglik_transition_walk(panel, rates)


def test_degenerate_law_impossible_steps():
    growth = Panel((Trajectory((0.0, 1.0, 2.0), (2, 5, 4)),))
    decline = Panel((Trajectory((0.0, 1.0, 2.0), (5, 3, 3)),))
    # pure death cannot grow, pure birth cannot shrink or go extinct
    assert exact_loglik(growth, Rates(0.0, 3.0)) == -math.inf
    assert exact_loglik(decline, Rates(2.0, 0.0)) == -math.inf
    assert exact_loglik(Panel((Trajectory((0.0, 1.0), (4, 0)),)), Rates(2.0, 0.0)) == -math.inf
    # possible under the other law, and finite
    death = Rates(0.0, 3.0)
    assert exact_loglik(decline, death) == legacy.exact_loglik_transition_walk(decline, death)
    assert math.isfinite(exact_loglik(decline, death))


def test_table_layout():
    # two gap groups: (3->5, 5->0, 2->2) over 0.5 and (1->4, 7->1, 4->0) over 1.0
    panel = Panel(
        (
            Trajectory((0.0, 0.5), (3, 5)),
            Trajectory((0.0, 0.5), (5, 0)),
            Trajectory((0.0, 0.5, 1.5, 2.5), (2, 2, 4, 0)),
            Trajectory((0.0, 1.0), (1, 4)),
            Trajectory((0.0, 1.0), (7, 1)),
        )
    )
    groups = panel.transitions.groups
    assert [grp.tau for grp in groups] == [0.5, 1.0]
    assert [grp.src.tolist() for grp in groups] == [[3, 5, 2], [2, 4, 1, 7]]
    tab = term_table(groups)
    # one segment of min(a, k) terms per k >= 1 transition, j from max(0, a-k)
    assert tab.lengths.tolist() == [3, 2, 2, 1, 1]
    assert tab.starts.tolist() == [0, 3, 5, 7, 8]
    assert tab.group_terms.tolist() == [5, 4]
    assert tab.segment_group.tolist() == [0, 0, 1, 1, 1]
    assert tab.j.tolist() == [0, 1, 2, 0, 1, 0, 1, 0, 6]
    assert tab.src_live == (5, 10)
    assert tab.excess == (2, -1)
    assert tab.src_dead == (5, 4)
    lg = math.lgamma
    terms = [(3, 5, 0), (3, 5, 1), (3, 5, 2), (2, 2, 0), (2, 2, 1)]
    terms += [(2, 4, 0), (2, 4, 1), (1, 4, 0), (7, 1, 6)]
    for pos, (a, k, j) in enumerate(terms):
        want = (
            lg(a + 1) + lg(k) - lg(j + 1) - lg(a - j + 1) - lg(a - j) - lg(k - a + j + 1)
        )
        assert tab.coef[pos] == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_table_without_live_targets():
    panel = Panel((Trajectory((0.0, 1.0), (4, 0)), Trajectory((0.0, 1.0), (2, 0))))
    tab = panel.transitions.term_table
    assert tab.coef.size == 0 and tab.src_dead == (6,)
    r = Rates(1.0, 2.0)
    assert exact_loglik(panel, r) == pytest.approx(6 * geom_params(1.0, r).log_alpha, rel=1e-15)


def test_table_is_read_only():
    tab = PANELS["unequal"].transitions.term_table
    for arr in (tab.coef, tab.j, tab.starts, tab.lengths, tab.group_terms, tab.segment_group):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_table_built_once_per_panel(monkeypatch):
    calls = []
    real = exact.term_table

    def counting(groups):
        calls.append(len(groups))
        return real(groups)

    monkeypatch.setattr(exact, "term_table", counting)
    fresh = Panel(tuple(PANELS["unequal"]))
    for lam in (1.0, 2.0, 3.0):
        exact_loglik(fresh, Rates(lam, 1.5))
    assert calls == [len(fresh.transitions.groups)]
    assert fresh.transitions.term_table is fresh.transitions.term_table


def test_table_not_built_by_other_methods():
    panel = Panel(tuple(PANELS["pooled_float_grid"]))
    for method in ("gw", "qg", "spmle", "spmle_adjusted"):
        fit(panel, method)
    assert "term_table" not in vars(panel.transitions)
    fit(panel, "mle")
    assert "term_table" in vars(panel.transitions)


# ---------------------------------------------------------------------------
# score and observed information in (log lambda, log mu)


def _loglik_at(panel, theta):
    return exact_loglik(panel, Rates(math.exp(theta[0]), math.exp(theta[1])))


def _derivs_at(panel, theta):
    return exact_loglik(panel, Rates(math.exp(theta[0]), math.exp(theta[1])), derivatives=True)


def _theta_points():
    """(log lambda, log mu) at random rates, with |omega| inside the
    near-critical band, and at mu/lambda and lambda/mu = 1e-6."""
    rng = random.Random(23)
    out = [(math.log(rng.uniform(0.3, 12.0)), math.log(rng.uniform(0.3, 12.0))) for _ in range(3)]
    for lam, frac in [(2.0, 0.4), (6.5, -0.9)]:
        out.append((math.log(lam), math.log(lam * (1.0 + frac * EPS_CRITICAL))))
    out += [(math.log(5.0), math.log(5e-6)), (math.log(5e-6), math.log(5.0))]
    return out


THETAS = _theta_points()
_E = np.eye(2)


@pytest.mark.parametrize("name", sorted(PANELS))
def test_score_matches_central_differences_of_the_loglik(name):
    panel = PANELS[name]
    h = 1e-5
    for theta in THETAS:
        theta = np.array(theta)
        value, score, _ = _derivs_at(panel, theta)
        assert value == exact_loglik(panel, Rates(*np.exp(theta)))
        fd = [(_loglik_at(panel, theta + h * e) - _loglik_at(panel, theta - h * e)) / (2 * h) for e in _E]
        assert np.max(np.abs(score - fd)) <= 1e-6 * max(1.0, np.max(np.abs(score))), theta


@pytest.mark.parametrize("name", sorted(PANELS))
def test_information_matches_central_differences_of_the_score(name):
    panel = PANELS[name]
    h = 1e-5
    for theta in THETAS:
        theta = np.array(theta)
        _, _, info = _derivs_at(panel, theta)
        assert info[0, 1] == info[1, 0]
        fd = np.array(
            [(_derivs_at(panel, theta + h * e)[1] - _derivs_at(panel, theta - h * e)[1]) / (2 * h) for e in _E]
        )
        assert np.max(np.abs(-info - fd)) <= 1e-6 * np.max(np.abs(info)), theta


@pytest.mark.parametrize("x", [1e-9, 1e-4, 0.0999, 0.1001, 1.0, 30.0, 700.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_log_phi_derivatives_match_oracle(x, sign):
    # the series inside |x| < 0.1 and the closed form outside it
    x = sign * x
    f = lambda y: mp.log(mp.expm1(y) / y)
    got = exact._log_phi_derivs(x)
    want = [float(mp.diff(f, mp.mpf(x), n)) for n in (1, 2)]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def _mp_derivs(a, k, t, lam, mu):
    """Score and Hessian of the oracle log pmf in (log lambda, log mu)."""
    mp.mp.dps = 60

    def f(x, y):
        return mp.log(mp_transition_prob(k, t, a, mp.exp(x), mp.exp(y)))

    x, y = mp.log(mp.mpf(lam)), mp.log(mp.mpf(mu))
    grad = [float(mp.diff(f, (x, y), order)) for order in [(1, 0), (0, 1)]]
    hess = [float(mp.diff(f, (x, y), order)) for order in [(2, 0), (1, 1), (0, 2)]]
    return np.array(grad), np.array([[hess[0], hess[1]], [hess[1], hess[2]]])


# (a, k, t, lam, mu): random rates, |omega| inside the near-critical band,
# and mu/lambda, lambda/mu = 1e-6, with k = 0, k = 1 and a = 1 among them
ORACLE_DERIVS = [
    (3, 5, 0.5, 1.8, 1.2),
    (5, 0, 0.5, 1.8, 1.2),
    (1, 9, 0.7, 3.0, 0.5),
    (20, 1, 1.0, 7.0, 5.0),
    (10, 40, 1.0, 7.0, 5.0),
    (4, 3, 0.5, 2.0, 2.0 * (1.0 + 0.4 * EPS_CRITICAL)),
    (37, 12, 0.8, 2.5, 2.5 * (1.0 - 0.9 * EPS_CRITICAL)),
    (6, 9, 0.6, 3.0, 3e-6),
    (9, 4, 0.6, 3e-6, 3.0),
]


@pytest.mark.parametrize("a, k, t, lam, mu", ORACLE_DERIVS)
def test_score_and_information_match_oracle(a, k, t, lam, mu):
    panel = Panel((Trajectory((0.0, t), (a, k)),))
    rates = Rates(lam, mu)
    _, score, info = exact_loglik(panel, rates, derivatives=True)
    grad, hess = _mp_derivs(a, k, t, lam, mu)
    # inside the band the law is the lam == mu limit, itself off by about
    # EPS_CRITICAL relative, and the derivatives are taken at that law
    rel = 10 * EPS_CRITICAL if exact.is_critical(rates) else 1e-9
    assert np.max(np.abs(score - grad)) <= rel * max(1.0, np.max(np.abs(grad)))
    assert np.max(np.abs(-info - hess)) <= rel * max(1.0, np.max(np.abs(hess)))


def test_degenerate_law_has_no_derivatives():
    panel = PANELS["absorbing"]
    value, score, info = exact_loglik(panel, Rates(0.0, 3.0), derivatives=True)
    assert value == exact_loglik(panel, Rates(0.0, 3.0))
    assert score is None and info is None
