"""Event-driven simulator and benchmark harness."""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest

from bdrates.errors import CapError, DomainError
from bdrates.estimate import FitOptions
from bdrates.exact import log_transition_prob, mean, variance
from bdrates.simulate import (
    BenchmarkCell,
    SimConfig,
    child_seed,
    run_benchmark,
    simulate_panel,
    simulate_trajectory,
    simulate_trajectory_stats,
    summarize,
)
from bdrates.types import Panel, Rates

GROW = Rates(2.0, 1.0)


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
    for seed in range(25):
        config = SimConfig(Rates(3.0, 0.0), 2, (0.2, 0.5, 1.0), seed=seed)
        counts = simulate_trajectory(config).counts
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_pure_death_nonincreasing():
    for seed in range(25):
        config = SimConfig(Rates(0.0, 2.0), 9, (0.2, 0.5, 1.0), seed=seed)
        counts = simulate_trajectory(config).counts
        assert all(b <= a for a, b in zip(counts, counts[1:]))


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
    config = SimConfig(Rates(50.0, 0.0), 100, (5.0,), max_pop=500)
    with pytest.raises(CapError, match="population cap"):
        simulate_trajectory(config)


def test_conditioning_forces_survival():
    for seed in range(60):
        config = SimConfig(
            Rates(1.0, 2.0), 2, (0.5, 1.0), condition_nonextinct=True, seed=seed
        )
        traj, rejections = simulate_trajectory_stats(config)
        assert traj.counts[-1] > 0
        assert rejections >= 0


def test_conditioning_cap_on_hopeless_configs():
    # survival to t=25 from one individual with death dominating is so
    # rare the rejection loop must hit the event budget
    config = SimConfig(
        Rates(0.1, 8.0), 1, (25.0,), condition_nonextinct=True, max_events=2000
    )
    with pytest.raises(CapError, match="rejected paths"):
        simulate_trajectory(config)


def test_marginal_law_total_variation():
    rates = GROW
    n = 30000
    rng = random.Random(123)
    config = SimConfig(rates, 1, (0.5,), seed=0)
    hits = Counter()
    for _ in range(n):
        hits[simulate_trajectory(config, rng).counts[-1]] += 1
    tv = 0.5 * sum(
        abs(hits.get(k, 0) / n - math.exp(log_transition_prob(k, 0.5, 1, rates)))
        for k in range(0, max(hits) + 60)
    )
    assert tv <= 0.02  # MC noise at this n is ~0.005


def test_extinction_frequency_matches_alpha():
    rates = Rates(7.0, 5.0)
    n = 20000
    rng = random.Random(9)
    config = SimConfig(rates, 3, (1.0,), seed=0)
    extinct = sum(
        1 for _ in range(n) if simulate_trajectory(config, rng).counts[-1] == 0
    )
    p = math.exp(log_transition_prob(0, 1.0, 3, rates))  # alpha(1)^3
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(extinct / n - p) <= 3.5 * se


def test_moments_match_closed_forms():
    rates = Rates(3.0, 1.5)
    n = 20000
    rng = random.Random(21)
    config = SimConfig(rates, 4, (0.6,), seed=0)
    draws = np.array(
        [simulate_trajectory(config, rng).counts[-1] for _ in range(n)], dtype=float
    )
    m = mean(0.6, 4, rates)
    v = variance(0.6, 4, rates)
    se_mean = math.sqrt(v / n)
    assert abs(draws.mean() - m) <= 3.5 * se_mean
    # variance of the sample variance ~ (kappa4 + 2 v^2) / n; bound loosely
    assert abs(draws.var(ddof=1) - v) / v <= 0.1


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
    base = FitOptions(start=(3.0, 1.5), restarts=1, max_count_cap=500)
    cell = BenchmarkCell(GROW, 2, 3, 1, 0.2)
    run_benchmark(cell, ["spmle"], 2, seed=4, options=base)
    assert [o.seed for o in seen] == [child_seed(4, 0, r, 1) for r in range(2)]
    for o in seen:
        assert o == dataclasses.replace(base, seed=o.seed)


def test_benchmark_input_validation():
    cell = BenchmarkCell(GROW, 2, 3, 1, 0.2)
    with pytest.raises(DomainError):
        run_benchmark(cell, ["gw"], 0, seed=1)
    with pytest.raises(DomainError):
        BenchmarkCell(GROW, 2, 0, 1, 0.2)
    with pytest.raises(DomainError):
        BenchmarkCell(GROW, 2, 3, 1, -0.2)
