"""The benchmark's reference likelihood and correctness gate."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

import bdrates
import reference
from inputs import stratified_panels
from spec import WORKLOADS


ROOT = Path(__file__).resolve().parents[2]


def _oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "k, t, a, lam, mu",
    [
        (5, 0.3, 3, 7.0, 5.0),
        (1, 0.1, 1, 7.0, 6.0),
        (0, 0.2, 4, 7.0, 5.0),
        (40, 0.5, 10, 7.0, 5.0),
        (3, 0.4, 6, 2.0, 5.0),  # subcritical
        (7, 0.25, 2, 3.0, 3.0),  # critical
        (250, 0.1, 200, 7.0, 5.0),
        (13, 0.2, 13, 4.719207138707279, 4.71920727431337),  # next to critical
    ],
)
def test_log_pmf_matches_mpmath_oracle(k, t, a, lam, mu):
    oracles = _oracles()
    want = float(oracles.mp.log(oracles.mp_transition_prob(k, t, a, lam, mu)))
    got = reference.log_pmf(k, a, reference._log_law(t, lam, mu))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.fixture(scope="module")
def panels():
    w = WORKLOADS["single_traj"]
    return stratified_panels(w.fit_cell, 5, 3, 64)


def test_reference_loglik_matches_package(panels):
    for panel in panels:
        for lam, mu in ((7.0, 6.0), (3.3, 1.2), (2.0, 4.0)):
            want = bdrates.exact_loglik(panel, bdrates.Rates(lam, mu))
            got = reference.exact_loglik(panel, lam, mu)
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("method", ["mle", "spmle", "spmle_adjusted"])
def test_gate_passes_real_fit_and_rejects_perturbed_loglik(panels, method):
    import phases

    panel = panels[0]
    res = bdrates.fit(panel, method)
    own = phases._own_loglik(method)
    reference.check_fit(panel, res, own)
    bad = dataclasses.replace(res, loglik=res.loglik * (1 + 1e-7))
    with pytest.raises(reference.GateError, match="loglik"):
        reference.check_fit(panel, bad, own)


def test_gate_rejects_mle_off_the_maximum(panels):
    panel = panels[0]
    res = bdrates.fit(panel, "mle")
    lam, mu = res.rates.lam * 1.05, res.rates.mu
    moved = dataclasses.replace(
        res,
        rates=bdrates.Rates(lam, mu),
        omega_hat=lam - mu,
        loglik=reference.exact_loglik(panel, lam, mu),
    )
    with pytest.raises(reference.GateError, match="local maximum"):
        reference.check_fit(panel, moved, None)


def test_gate_rejects_non_finite_estimate(panels):
    res = bdrates.fit(panels[0], "qg")
    bad = dataclasses.replace(res, loglik=math.nan)
    with pytest.raises(reference.GateError, match="not finite"):
        reference.check_fit(panels[0], bad, None)


def test_monte_carlo_checks():
    reference.check_mc(3, 1, 4, "gw")
    with pytest.raises(reference.GateError):
        reference.check_mc(3, 0, 4, "gw")
    draws = [2.0 + 0.1 * math.sin(i) for i in range(50)]
    reference.check_mean_omega(draws, 2.0, "spmle")
    with pytest.raises(reference.GateError, match="standard errors"):
        reference.check_mean_omega(draws, 2.5, "spmle")
