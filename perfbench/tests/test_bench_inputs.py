"""The benchmark's own sampler and panel stratification."""

import math

import numpy as np

import bdrates
from inputs import law_params, quantile_order, sample_counts, stratified_panels
from spec import WORKLOADS, Cell


def test_law_params_match_package():
    for lam, mu, dt in ((7.0, 5.0, 0.1), (7.0, 6.0, 0.2), (2.0, 5.0, 0.3), (3.0, 3.0, 0.5)):
        assert np.allclose(
            law_params(dt, lam, mu), bdrates.alpha_beta(dt, bdrates.Rates(lam, mu)), rtol=1e-12
        )


def test_sampler_mean_follows_growth_law():
    # one step from a, conditioned on a positive count: a e^{omega dt} / (1 - alpha^a)
    cell = Cell(7.0, 5.0, z0=10, n_obs=1, m=1, dt=0.5)
    rng = np.random.default_rng(0)
    z = sample_counts(rng, cell, 200_000)[:, 1]
    alpha, _ = law_params(cell.dt, cell.lam, cell.mu)
    p0 = alpha**cell.z0
    want = cell.z0 * math.exp(2.0 * cell.dt) / (1.0 - p0)
    assert abs(z.mean() - want) < 5 * z.std() / math.sqrt(len(z))


def test_quantile_order():
    q = quantile_order(15)
    assert q[:3] == [0.5, 0.25, 0.75]
    assert sorted(q) == [k / 16 for k in range(1, 16)]
    assert len(set(quantile_order(64))) == 64


def test_stratified_panels_are_seeded_conditioned_and_on_the_grid():
    w = WORKLOADS["pooled_growth"]
    cell = w.fit_cell
    a = stratified_panels(cell, 3, 5, 128)
    b = stratified_panels(cell, 3, 5, 128)
    c = stratified_panels(cell, 4, 5, 128)
    assert [p.trajectories for p in a] == [p.trajectories for p in b]
    assert [p.trajectories for p in a] != [p.trajectories for p in c]
    grid = bdrates.BenchmarkCell(
        bdrates.Rates(cell.lam, cell.mu), cell.z0, cell.n_obs, cell.m, cell.dt
    ).obs_times()
    for panel in a:
        assert len(panel) == cell.m
        for tr in panel:
            assert tr.times == (0.0,) + grid
            assert tr.counts[0] == cell.z0 and tr.counts[-1] > 0
    work = [sum(sum(tr.counts[:-1]) for tr in p) for p in a]
    # positions 1/2, 1/4, 3/4, 1/8, 7/8 of the pool sorted by work
    assert work[3] <= work[1] <= work[0] <= work[2] <= work[4]
