"""Seeded Monte Carlo calibration checks for the estimators.

Each test simulates from known rates with seeds split from one master,
so every number here is reproducible bit for bit; the tolerances are
the asymptotic-theory bands the estimators are supposed to satisfy.
All marked slow: the file costs a few minutes of pure simulation.
"""

import math
import random

import numpy as np
import pytest
from oracles import simulate_trajectory, variance

from bdrates import (
    Panel,
    Rates,
    SimConfig,
    fit,
    gw_estimate,
    qg_fit,
    qg_profile_xi,
    run_benchmark,
    simulate_panel,
)
from bdrates.cli import main
from bdrates.simulate import BenchmarkCell, child_seed

pytestmark = pytest.mark.slow

MASTER = 20260817


def _theorem1_se(rates: Rates, dt: float, n_obs: int, m_traj: int) -> float:
    """Plug-in asymptotic SE of the moment estimator's rate components,
    evaluated at the true parameters."""
    m = math.exp((rates.lam - rates.mu) * dt)
    s2 = variance(dt, 1, rates)
    return abs(math.log(m)) * s2 / math.sqrt(
        2.0 * dt * dt * m * m * (m - 1.0) ** 2 * n_obs * m_traj
    )


def _gw_replicates(z0: int, n_reps: int, n_obs: int = 60):
    rates = Rates(7.0, 6.0)
    dt = 0.07
    obs = tuple(dt * (j + 1) for j in range(n_obs))
    lam_hats, om_hats = [], []
    for r in range(n_reps):
        cfg = SimConfig(
            rates, z0=z0, obs_times=obs, condition_nonextinct=True,
            seed=child_seed(MASTER, 1, z0, r),
        )
        est = gw_estimate(Panel((simulate_trajectory(cfg),)))
        lam_hats.append(est.rates.lam)
        om_hats.append(est.rates.lam - est.rates.mu)
    return np.asarray(lam_hats), np.asarray(om_hats)


class TestGwAsymptotics:
    def test_rate_sd_matches_limit_theorem(self):
        # single conditioned trajectory, 60 equal steps of 0.07
        lam_hats, _ = _gw_replicates(z0=10, n_reps=2000)
        predicted = _theorem1_se(Rates(7.0, 6.0), 0.07, 60, 1)
        ratio = lam_hats.std(ddof=1) / predicted
        assert 0.8 <= ratio <= 1.2

    def test_growth_rate_variance_scales_with_population(self):
        # quadrupling z0 quadruples the visited population, so the
        # growth-rate error variance drops ~4x while the rate components,
        # whose limit variance is population-free, stay put
        lam10, om10 = _gw_replicates(z0=10, n_reps=500)
        lam40, om40 = _gw_replicates(z0=40, n_reps=500)
        assert om40.var(ddof=1) / om10.var(ddof=1) < 0.5
        assert 0.5 < lam40.var(ddof=1) / lam10.var(ddof=1) < 2.0


class TestQgCalibration:
    def test_profile_variance_consistent_at_true_growth(self):
        # xi_hat at the true omega over 100 panels of 200 trajectories
        rates = Rates(7.0, 5.0)
        xis = []
        for r in range(100):
            cfg = SimConfig(
                rates, z0=5, obs_times=(0.1, 0.2, 0.3, 0.4),
                seed=child_seed(MASTER, 2, r),
            )
            xis.append(qg_profile_xi(simulate_panel(cfg, 200), 2.0))
        rel = abs(float(np.mean(xis)) - rates.xi) / rates.xi
        assert rel < 0.05

    def test_small_bias_on_unequal_grids(self):
        # gaps drawn uniform [0.05, 0.2], fresh grid per panel
        rates = Rates(7.0, 5.0)
        lam_hats = []
        for r in range(200):
            ur = random.Random(child_seed(MASTER, 3, r))
            gaps = [ur.uniform(0.05, 0.2) for _ in range(6)]
            times = tuple(np.cumsum(gaps))
            cfg = SimConfig(
                rates, z0=5, obs_times=times, seed=child_seed(MASTER, 3, r, 1)
            )
            lam_hats.append(qg_fit(simulate_panel(cfg, 100)).rates.lam)
        assert abs(float(np.mean(lam_hats)) - 7.0) < 0.2

    def test_wald_interval_coverage(self):
        # nominal 95% intervals from the sandwich covariance, 500 panels.
        # The band is fragile: over 4,000 further panels (r = 500..4499)
        # the interval covers 3,659 times, 0.915 +- 0.004.  A 500-panel
        # share has an SE of 0.0125, so the floor of 0.90 sits 1.2 SE
        # below the true coverage, and a new unconditioned stream reads
        # under 450/500 about 1 time in 9 (binomial tail 0.106).  These
        # seeds read 454.
        rates = Rates(7.0, 5.0)
        z = 1.959963984540054
        hits = 0
        for r in range(500):
            cfg = SimConfig(
                rates, z0=5, obs_times=(0.1, 0.25, 0.4, 0.6),
                seed=child_seed(MASTER, 4, r),
            )
            f = qg_fit(simulate_panel(cfg, 50))
            assert f.cov_lambda_mu is not None
            se = math.sqrt(f.cov_lambda_mu[0, 0])
            hits += abs(f.rates.lam - 7.0) <= z * se
        assert 0.90 <= hits / 500 <= 0.98


class TestMleCalibration:
    def test_observed_information_se_matches_empirical_sd(self):
        rates = Rates(7.0, 5.0)
        obs = tuple(0.1 * (j + 1) for j in range(6))
        lam_hats, ses = [], []
        for r in range(100):
            cfg = SimConfig(
                rates, z0=5, obs_times=obs, condition_nonextinct=True,
                seed=child_seed(MASTER, 5, r),
            )
            res = fit(simulate_panel(cfg, 10), "mle")
            assert res.cov is not None
            lam_hats.append(res.rates.lam)
            ses.append(res.se_lambda)
        ratio = float(np.mean(ses)) / float(np.std(lam_hats, ddof=1))
        assert 0.75 <= ratio <= 1.25


class TestBenchmarkShapes:
    def test_rate_rmse_decreases_with_panel_length(self):
        rates = Rates(7.0, 6.0)
        rmses = []
        for n_obs in (10, 20, 40, 60):
            cell = BenchmarkCell(rates, z0=10, n_obs=n_obs, m=1, dt=0.07)
            report = run_benchmark(
                cell, ["gw"], n_replicates=400, seed=child_seed(MASTER, 6, n_obs)
            )[0]
            rmses.append(report.rows[0].rmse_lambda)
        assert all(a > b for a, b in zip(rmses, rmses[1:]))

    def test_moment_vs_saddlepoint_gap_shrinks_with_z0(self):
        # the moment estimator suffers most on sparse single-ancestor
        # panels; by z0=20 the two are nearly tied
        rates = Rates(7.0, 6.0)
        gaps = {}
        for z0 in (1, 20):
            cell = BenchmarkCell(rates, z0=z0, n_obs=10, m=1, dt=0.1)
            report = run_benchmark(
                cell,
                ["gw", "spmle"],
                n_replicates=150,
                seed=child_seed(MASTER, 7, z0),
            )[0]
            by = {row.method: row.rmse_lambda for row in report.rows}
            gaps[z0] = by["gw"] - by["spmle"]
        assert gaps[1] > 0
        assert gaps[1] > gaps[20]


class TestCliRoundTrip:
    def test_estimates_within_three_reported_ses(self, tmp_path):
        # simulate 200 trajectories at known rates, fit through the CLI,
        # and require the truth inside the 3-SE ball of every SE-bearing
        # method
        import json

        panel_path = str(tmp_path / "panel.csv")
        out_path = str(tmp_path / "res.json")
        assert main(
            [
                "simulate", "--lambda", "7", "--mu", "5", "--z0", "5",
                "--dt", "0.1", "--n-obs", "5", "--replicates", "200",
                "--seed", str(child_seed(MASTER, 8)), "--out", panel_path,
            ]
        ) == 0
        assert main(
            [
                "estimate", "--input", panel_path, "--method", "all",
                "--out", out_path,
            ]
        ) == 0
        rows = json.load(open(out_path))
        checked = 0
        for row in rows:
            if row["se_lambda"] is None:
                continue
            assert abs(row["lambda"] - 7.0) <= 3.0 * row["se_lambda"], row["method"]
            assert abs(row["mu"] - 5.0) <= 3.0 * row["se_mu"], row["method"]
            checked += 1
        assert checked >= 4
