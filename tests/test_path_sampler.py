"""The panel sampler's lane-by-lane births against the masked-array
draw they replaced (legacy_kernels.draw_paths_array), bit for bit.

Both draw each gap's survivors by one binomial call over the batch; the
array form then drew the births by one negative_binomial call over the
live lanes, which runs numpy's C draw once per lane in lane order, the
same draws the scalar calls make. So every path, rejection count, cap
error and seeded benchmark report must be equal.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_kernels as legacy
from bdrates import simulate
from bdrates.errors import CapError
from bdrates.simulate import (
    BenchmarkCell,
    SimConfig,
    child_seed,
    run_benchmark,
    simulate_panel_stats,
)
from bdrates.types import Rates


def _grid():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark_grid.py"
    spec = importlib.util.spec_from_file_location("run_benchmark_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GRID


# perfbench's Monte Carlo cells (single_traj, pooled_growth), the grid
# script's four cells, and a Table 3 row of many ancestors
CELLS = {
    "mc_single": BenchmarkCell(Rates(7.0, 6.0), z0=1, n_obs=14, m=1, dt=0.2),
    "mc_pooled": BenchmarkCell(Rates(7.0, 5.0), z0=10, n_obs=30, m=20, dt=0.1),
    **{f"grid_z0={c.z0},m={c.m}": c for c in _grid()},
    "z0=50,m=1": BenchmarkCell(Rates(7.0, 6.0), z0=50, n_obs=14, m=1, dt=0.2),
}
SEEDS = range(60)


def _config(cell: BenchmarkCell, seed: int) -> SimConfig:
    return SimConfig(
        cell.rates, cell.z0, cell.obs_times(), cell.condition_nonextinct, seed=seed
    )


def _outcome(call):
    """call()'s result, or the type and message of the CapError it raised."""
    try:
        return call()
    except CapError as exc:
        return type(exc), str(exc)


def _both(call):
    """call() with the lane-by-lane sampler, then with the array one."""
    new = _outcome(call)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulate, "_draw_paths", legacy.draw_paths_array)
        old = _outcome(call)
    return new, old


def _same_paths(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", list(CELLS))
def test_seeded_panels_and_rejections_are_the_array_samplers(name):
    cell = CELLS[name]
    for rep in SEEDS:
        config = _config(cell, child_seed(20261020, 0, rep))
        new, old = _both(lambda: simulate_panel_stats(config, cell.m))
        assert new == old, (name, rep)


@pytest.mark.parametrize("name", list(CELLS))
@pytest.mark.parametrize("n", [1, 2, 17, 33])
def test_unconditioned_batches_are_the_array_samplers(name, n):
    # every batch size _draw_conditioned asks for on these cells, each row
    # a path from z0, dead lanes among them
    config = _config(CELLS[name], 0)
    laws = simulate._gap_laws(config)
    for seed in range(40):
        new = simulate._draw_paths(np.random.default_rng(seed), config, laws, n)
        old = legacy.draw_paths_array(np.random.default_rng(seed), config, laws, n)
        assert new.dtype == old.dtype == np.int64
        assert _same_paths(new, old), (name, n, seed)


def test_unconditioned_panel_is_the_array_samplers():
    config = SimConfig(Rates(1.0, 1.5), 4, tuple(0.3 * (j + 1) for j in range(9)), seed=8)
    new, old = _both(lambda: simulate_panel_stats(config, 40))
    assert new == old
    # extinct paths are kept when unconditioned
    assert any(tr.counts[-1] == 0 for tr in new[0])


@pytest.mark.parametrize("name", ["mc_single", "mc_pooled"])
@pytest.mark.parametrize("batch_paths", [1, 2, 5])
def test_multi_batch_runs_are_the_array_samplers(monkeypatch, name, batch_paths):
    # batches of a few paths: runs of rejections span batches, and the
    # accepted paths are gathered from many
    cell = CELLS[name]
    monkeypatch.setattr(simulate, "_MAX_BATCH_STEPS", batch_paths * (cell.n_obs + 1))
    for rep in range(15):
        config = _config(cell, child_seed(7, 0, rep))
        new, old = _both(lambda: simulate_panel_stats(config, cell.m))
        assert new == old, rep


def test_the_step_mean_cap_raises_the_array_samplers_error():
    # the second step's mean from 100 ancestors is about 4e110 births
    config = SimConfig(Rates(50.0, 0.0), 100, (0.01, 5.0), max_pop=10**9)
    new, old = _both(lambda: simulate_panel_stats(config, 3))
    assert new == old
    assert new[0] is CapError and "out of reach at t=5:" in new[1]
    assert new[1].endswith("1/2 observations recorded")


def test_the_population_cap_raises_the_array_samplers_error():
    # mean 739 after the second step, so some path passes the cap of 500
    # there, after every lane of that step is drawn
    config = SimConfig(Rates(2.0, 0.0), 100, (0.5, 1.0), max_pop=500)
    new, old = _both(lambda: simulate_panel_stats(config, 20))
    assert new == old
    assert new == (CapError, "population cap 500 exceeded at t=1, 1/2 observations recorded")


class _CountingRng:
    """A Generator that records the survivors of each binomial draw and
    the n of each negative_binomial draw."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.survivors: list[list[int]] = []
        self.births_of: list[int] = []

    def binomial(self, n, p):
        out = self.rng.binomial(n, p)
        self.survivors.append(out.tolist())
        return out

    def negative_binomial(self, n, p):
        self.births_of.append(n)
        return self.rng.negative_binomial(n, p)


def test_one_binomial_call_per_gap_and_one_birth_draw_per_live_lane():
    config = _config(CELLS["mc_single"], 5)
    laws = simulate._gap_laws(config)
    rng = _CountingRng(3)
    paths = simulate._draw_paths(rng, config, laws, 17)
    assert [len(s) for s in rng.survivors] == [17] * len(laws)
    # births are drawn for the live lanes of each gap, in lane order
    assert rng.births_of == [s for gap in rng.survivors for s in gap if s > 0]
    assert any(s == 0 for gap in rng.survivors for s in gap)
    old = legacy.draw_paths_array(np.random.default_rng(3), config, laws, 17)
    assert _same_paths(paths, old)


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(0.0, 12.0),
    mu=st.floats(0.0, 12.0),
    z0=st.integers(1, 60),
    gaps=st.lists(st.floats(0.01, 1.5), min_size=1, max_size=8),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    max_pop=st.sampled_from([10**3, 10**6]),
)
def test_property_lane_draws_are_the_array_draws(lam, mu, z0, gaps, n, seed, max_pop):
    if lam + mu == 0.0:
        lam = 1.0  # Rates refuses the degenerate process
    times = tuple(float(t) for t in np.cumsum(gaps))
    config = SimConfig(Rates(lam, mu), z0, times, seed=seed, max_pop=max_pop)
    laws = simulate._gap_laws(config)
    new = _outcome(lambda: simulate._draw_paths(np.random.default_rng(seed), config, laws, n))
    old = _outcome(lambda: legacy.draw_paths_array(np.random.default_rng(seed), config, laws, n))
    assert _same_paths(new, old)
    conditioned = dataclasses.replace(config, condition_nonextinct=True, max_events=20_000)
    new, old = _both(lambda: simulate_panel_stats(conditioned, 3))
    assert new == old


@pytest.mark.parametrize("name", ["mc_single", "mc_pooled", "z0=50,m=1"])
def test_seeded_benchmark_reports_are_the_array_samplers(name):
    new, old = _both(lambda: run_benchmark(CELLS[name], ("gw", "spmle"), 12, seed=20261020))
    assert new == old
    assert all(row.n_used > 0 for row in new[0].rows)
