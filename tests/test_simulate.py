"""Simulators and benchmark harness.

The event loop (simulate_trajectory) is the reference: tests that check
a law take the panel sampler (simulate_panel) as a second input.
"""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from bdrates.errors import CapError, DomainError
from bdrates.estimate import FitOptions, fit
from bdrates.exact import alpha_beta, geom_params, log_transition_prob, mean, variance
from bdrates.simulate import (
    BenchmarkCell,
    SimConfig,
    child_seed,
    run_benchmark,
    simulate_panel,
    simulate_panel_stats,
    simulate_trajectory,
    simulate_trajectory_stats,
    summarize,
)
from bdrates.types import Panel, Rates

GROW = Rates(2.0, 1.0)
SAMPLERS = ("events", "law")
# one trajectory from the event loop, a three-trajectory panel from the law
DRAWS = (simulate_trajectory, lambda config: simulate_panel(config, 3))


def _draws(sampler, config, n, seed):
    """n independent trajectories: from the event loop on one
    random.Random(seed) stream, or one panel of the law sampler."""
    if sampler == "events":
        rng = random.Random(seed)
        return [simulate_trajectory(config, rng) for _ in range(n)]
    return list(simulate_panel(dataclasses.replace(config, seed=seed), n))


def _per_seed_or_panel(sampler, config, n):
    """n trajectories: one event-loop run per seed 0..n-1, or one panel."""
    if sampler == "events":
        return [
            simulate_trajectory(dataclasses.replace(config, seed=seed))
            for seed in range(n)
        ]
    return list(simulate_panel(config, n))


def test_config_validation():
    with pytest.raises(DomainError):
        SimConfig(GROW, 0, (1.0,))
    with pytest.raises(DomainError):
        SimConfig(GROW, 3, ())
    with pytest.raises(DomainError):
        SimConfig(GROW, 3, (0.5, 0.5))
    with pytest.raises(DomainError):
        SimConfig(GROW, 3, (-0.5, 0.5))
    with pytest.raises(DomainError):
        SimConfig(GROW, 3, (1.0,), max_events=0)


def test_negative_seed_rejected():
    with pytest.raises(DomainError, match="seed .* -1"):
        SimConfig(GROW, 3, (1.0,), seed=-1)
    with pytest.raises(DomainError, match="seed .* -1"):
        run_benchmark(BenchmarkCell(GROW, 3, 2, 1, 0.1), ["gw"], 1, seed=-1)


def test_trajectory_shape_and_prefix():
    config = SimConfig(GROW, 4, (0.3, 0.7, 1.1), seed=11)
    traj = simulate_trajectory(config)
    assert traj.times == (0.0, 0.3, 0.7, 1.1)
    assert traj.counts[0] == 4
    assert len(traj.counts) == 4


def test_seed_determinism():
    config = SimConfig(Rates(7.0, 5.0), 10, tuple(0.1 * i for i in range(1, 11)), seed=42)
    assert simulate_trajectory(config) == simulate_trajectory(config)
    other = SimConfig(Rates(7.0, 5.0), 10, tuple(0.1 * i for i in range(1, 11)), seed=43)
    assert simulate_trajectory(config) != simulate_trajectory(other)


def test_pure_birth_nondecreasing():
    config = SimConfig(Rates(3.0, 0.0), 2, (0.2, 0.5, 1.0))
    for sampler in SAMPLERS:
        for traj in _per_seed_or_panel(sampler, config, 25):
            counts = traj.counts
            assert all(b >= a for a, b in zip(counts, counts[1:])), sampler


def test_pure_birth_survival_probability_rounding_above_one():
    # log(1 - alpha) rounds to 8.9e-16 here, and numpy's binomial refused
    # the survival probability exp of it with a bare ValueError
    config = SimConfig(Rates(3.625, 0.0), 1, (1.0, 2.0), seed=4)
    assert geom_params(1.0, config.rates).log1m_alpha > 0.0
    panel = simulate_panel(config, 5)
    assert all(0 < a <= b for tr in panel for a, b in zip(tr.counts, tr.counts[1:]))


def test_pure_death_nonincreasing():
    config = SimConfig(Rates(0.0, 2.0), 9, (0.2, 0.5, 1.0))
    for sampler in SAMPLERS:
        for traj in _per_seed_or_panel(sampler, config, 25):
            counts = traj.counts
            assert all(b <= a for a, b in zip(counts, counts[1:])), sampler


def test_absorption_is_permanent():
    # heavy death rate: most paths die; zeros must trail
    for seed in range(40):
        config = SimConfig(Rates(0.5, 6.0), 2, (0.3, 0.6, 1.0, 1.5), seed=seed)
        counts = simulate_trajectory(config).counts
        if 0 in counts:
            first = counts.index(0)
            assert all(c == 0 for c in counts[first:])


def test_event_cap_raises():
    config = SimConfig(Rates(50.0, 0.0), 100, (5.0,), max_events=50)
    with pytest.raises(CapError, match="event cap"):
        simulate_trajectory(config)


def test_population_cap_raises():
    # the law sampler refuses the step before drawing: its mean is 4e110
    config = SimConfig(Rates(50.0, 0.0), 100, (5.0,), max_pop=500)
    for draw in DRAWS:
        with pytest.raises(CapError, match="population cap"):
            draw(config)


def test_panel_population_cap_checked_at_observations():
    # mean 739 after one step, so some path passes the cap of 500
    config = SimConfig(Rates(2.0, 0.0), 100, (0.5, 1.0), max_pop=500)
    with pytest.raises(CapError, match="population cap 500 exceeded at t=1"):
        simulate_panel(config, 20)


def test_conditioning_forces_survival():
    config = SimConfig(Rates(1.0, 2.0), 2, (0.5, 1.0), condition_nonextinct=True)
    events = [
        simulate_trajectory_stats(dataclasses.replace(config, seed=seed))
        for seed in range(60)
    ]
    law = list(zip(*simulate_panel_stats(config, 60)))
    for draws in (events, law):
        assert len(draws) == 60
        for traj, rejections in draws:
            assert traj.counts[-1] > 0
            assert rejections >= 0


@pytest.mark.parametrize("batch_paths", [None, 2])
def test_panel_rejections_count_paths_per_trajectory(monkeypatch, batch_paths):
    # each trajectory's rejected paths are geometric with the survival
    # probability p = 1 - alpha(1)^2 as success probability; two-path
    # batches make most runs of rejections span several batches
    import bdrates.simulate as simulate

    if batch_paths is not None:
        monkeypatch.setattr(simulate, "_MAX_BATCH_STEPS", batch_paths * 3)
    config = SimConfig(
        Rates(1.0, 2.0), 2, (0.5, 1.0), condition_nonextinct=True, seed=5
    )
    n = 4000
    _, rejections = simulate_panel_stats(config, n)
    assert len(rejections) == n and min(rejections) >= 0
    p = 1.0 - alpha_beta(1.0, config.rates)[0] ** 2
    se = math.sqrt((1.0 - p) / p**2 / n)
    assert abs(np.mean(rejections) - (1.0 - p) / p) <= 4.0 * se


def test_conditioning_cap_on_hopeless_configs():
    # survival to t=25 from one individual with death dominating is so
    # rare the rejection loop must hit the event budget
    config = SimConfig(
        Rates(0.1, 8.0), 1, (25.0,), condition_nonextinct=True, max_events=2000
    )
    for draw in DRAWS:
        with pytest.raises(CapError, match="rejected paths"):
            draw(config)
    # the law sampler spends one unit of max_events per gap of each path
    two_gaps = dataclasses.replace(config, obs_times=(12.5, 25.0))
    with pytest.raises(CapError, match="after 1000 rejected paths"):
        simulate_panel(two_gaps, 3)


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param(BenchmarkCell(Rates(50.0, 0.0), 100, 1, 1, 5.0), id="explosive"),
        pytest.param(BenchmarkCell(Rates(0.1, 8.0), 1, 1, 1, 25.0), id="hopeless"),
    ],
)
def test_benchmark_cap_raises_cap_error(cell):
    # the default caps: 10^7 rejected one-step paths, population 10^6
    with pytest.raises(CapError):
        run_benchmark(cell, ["gw"], 1, seed=3)


def test_marginal_law_total_variation():
    rates = GROW
    n = 30000
    config = SimConfig(rates, 1, (0.5,), seed=0)
    for sampler in SAMPLERS:
        hits = Counter(traj.counts[-1] for traj in _draws(sampler, config, n, 123))
        tv = 0.5 * sum(
            abs(hits.get(k, 0) / n - math.exp(log_transition_prob(k, 0.5, 1, rates)))
            for k in range(0, max(hits) + 60)
        )
        assert tv <= 0.02, sampler  # MC noise at this n is ~0.005


def test_extinction_frequency_matches_alpha():
    rates = Rates(7.0, 5.0)
    n = 20000
    config = SimConfig(rates, 3, (1.0,), seed=0)
    p = math.exp(log_transition_prob(0, 1.0, 3, rates))  # alpha(1)^3
    se = math.sqrt(p * (1.0 - p) / n)
    for sampler in SAMPLERS:
        extinct = sum(traj.counts[-1] == 0 for traj in _draws(sampler, config, n, 9))
        assert abs(extinct / n - p) <= 3.5 * se, sampler


def test_moments_match_closed_forms():
    # the law sampler also on the pure-birth, pure-death and critical laws
    n = 20000
    cases = [("events", Rates(3.0, 1.5))] + [
        ("law", rates)
        for rates in (Rates(3.0, 1.5), Rates(3.0, 0.0), Rates(0.0, 2.0), Rates(2.0, 2.0))
    ]
    for sampler, rates in cases:
        config = SimConfig(rates, 4, (0.6,), seed=0)
        draws = np.array(
            [traj.counts[-1] for traj in _draws(sampler, config, n, 21)], dtype=float
        )
        m = mean(0.6, 4, rates)
        v = variance(0.6, 4, rates)
        se_mean = math.sqrt(v / n)
        assert abs(draws.mean() - m) <= 3.5 * se_mean, (sampler, rates)
        # variance of the sample variance ~ (kappa4 + 2 v^2) / n; bound loosely
        assert abs(draws.var(ddof=1) - v) / v <= 0.1, (sampler, rates)


def test_panel_sampler_matches_event_loop():
    # two-sample chi-square at a middle and at the last observation of a
    # six-step path, counts above the pooled 95th percentile in one bin
    config = SimConfig(Rates(2.0, 1.5), 3, tuple(0.2 * (j + 1) for j in range(6)))
    n = 6000
    law = _draws("law", config, n, 31)
    events = _draws("events", config, n, 32)
    for obs in (3, 6):
        a = np.array([traj.counts[obs] for traj in law])
        b = np.array([traj.counts[obs] for traj in events])
        cap = int(np.quantile(np.concatenate([a, b]), 0.95))
        table = np.array(
            [[np.sum(np.minimum(x, cap) == v) for x in (a, b)] for v in range(cap + 1)]
        )
        assert cap >= 5 and table.sum(axis=1).min() >= 10
        assert chi2_contingency(table).pvalue > 1e-3, obs


def test_panel_simulation():
    config = SimConfig(GROW, 5, (0.2, 0.4, 0.6), condition_nonextinct=True, seed=77)
    panel = simulate_panel(config, 6)
    assert isinstance(panel, Panel) and len(panel) == 6
    assert all(tr.counts[0] == 5 for tr in panel)
    assert all(tr.counts[-1] > 0 for tr in panel)
    assert panel.equal_spacing()
    # trajectories differ (independent streams)
    assert len({tr.counts for tr in panel}) > 1
    assert panel == simulate_panel(config, 6)


def test_child_seed_stability():
    assert child_seed(5, 1, 2) == child_seed(5, 1, 2)
    assert child_seed(5, 1, 2) != child_seed(5, 2, 1)
    assert 0 <= child_seed(5, 3) < 2**64


# ---------------------------------------------------------------------------
# benchmark harness


def test_summarize_identity():
    vals = [2.0, 2.5, 1.7, 3.1, 2.2]
    bias, sd, rmse = summarize(vals, 2.0)
    n = len(vals)
    assert rmse**2 == pytest.approx(bias**2 + sd**2 * (n - 1) / n, rel=1e-12)
    assert summarize([], 2.0)[0] != summarize([], 2.0)[0]  # nan


def test_benchmark_report_structure():
    cell = BenchmarkCell(Rates(7.0, 5.0), 5, 6, 2, 0.1)
    reports = run_benchmark(cell, ["gw", "qg"], 8, seed=99)
    assert len(reports) == 1
    report = reports[0]
    assert report.n_replicates == 8 and report.seed == 99
    assert [row.method for row in report.rows] == ["gw", "qg"]
    for row in report.rows:
        assert row.n_used + row.n_failed == 8
        if row.n_used > 1:
            assert row.rmse_lambda**2 == pytest.approx(
                row.bias_lambda**2 + row.sd_lambda**2 * (row.n_used - 1) / row.n_used,
                rel=1e-10,
            )
    # equal spacing: the moment and quasi-likelihood fits coincide
    gw_row, qg_row = report.rows
    assert gw_row.rmse_lambda == pytest.approx(qg_row.rmse_lambda, abs=1e-6)


def test_benchmark_reports_fit_cost(monkeypatch):
    import bdrates.simulate as simulate

    results = []

    def record(panel, method, options):
        results.append(fit(panel, method, options))
        return results[-1]

    monkeypatch.setattr(simulate, "fit", record)
    cell = BenchmarkCell(Rates(7.0, 5.0), 5, 4, 2, 0.1)
    row = run_benchmark(cell, ["spmle"], 3, seed=8)[0].rows[0]
    assert row.n_used == len(results) == 3
    assert row.mean_obj_evals == np.mean([r.n_obj_evals for r in results])
    assert row.mean_wall_time == np.mean([r.wall_time for r in results])
    assert row.mean_obj_evals > 0 and row.mean_wall_time > 0


def test_benchmark_determinism_and_failure_accounting():
    cell = BenchmarkCell(Rates(1.0, 2.0), 1, 4, 1, 0.25)  # doomed panels: z0=1, subcritical
    a = run_benchmark(cell, ["gw"], 12, seed=5)
    b = run_benchmark(cell, ["gw"], 12, seed=5)
    assert a == b
    row = a[0].rows[0]
    # conditioned panels can still be flat (all counts 1); those fail gw
    assert row.n_used + row.n_failed == 12


def test_benchmark_keeps_fit_options(monkeypatch):
    import bdrates.simulate as simulate

    seen = []

    def record(panel, method, options):
        seen.append(options)
        raise CapError("recorded")

    monkeypatch.setattr(simulate, "fit", record)
    base = FitOptions(start=(3.0, 1.5), max_count_cap=500)
    cell = BenchmarkCell(GROW, 2, 3, 1, 0.2)
    run_benchmark(cell, ["spmle"], 2, seed=4, options=base)
    # the fits are deterministic: every replicate gets the options as given
    assert len(seen) == 2 and all(o is base for o in seen)


def test_benchmark_input_validation():
    cell = BenchmarkCell(GROW, 2, 3, 1, 0.2)
    with pytest.raises(DomainError):
        run_benchmark(cell, ["gw"], 0, seed=1)
    with pytest.raises(DomainError):
        BenchmarkCell(GROW, 2, 0, 1, 0.2)
    with pytest.raises(DomainError):
        BenchmarkCell(GROW, 2, 3, 1, -0.2)
