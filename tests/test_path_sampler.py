"""The panel samplers against the masked-array draw they replaced
(legacy_kernels.draw_paths_array), bit for bit.

Unconditioned panels: both draw each gap's survivors by one binomial
call over the batch; the array form then drew the births by one
negative_binomial call over the live lanes, which runs numpy's C draw
once per lane in lane order, the same draws the scalar calls make.

Conditioned panels are drawn one path at a time, stopping each path at
its first zero. Their reference is the array sampler run on one path at
a time until m paths survive (legacy_kernels.draw_conditioned_array): a
dead lane's binomial draws nothing and it draws no births, so its
stream is the same. So every path, rejection count, cap error and
seeded benchmark report must be equal.
"""

import dataclasses
import importlib.util
import time
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
    """call() with the package's samplers, then with the array references
    (the conditioned one calls no package sampler)."""
    new = _outcome(call)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulate, "_draw_paths", legacy.draw_paths_array)
        m.setattr(simulate, "_draw_conditioned", legacy.draw_conditioned_array)
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
    # batches of one path to many from these cells' z0 and gaps, each row
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


@pytest.mark.parametrize("m", [1, 7, 60])
def test_rejection_runs_are_the_one_path_references(m):
    # about one path in four survives, so runs of rejections of many
    # lengths lie between the kept paths
    config = SimConfig(Rates(1.0, 2.0), 1, (0.5, 1.0), condition_nonextinct=True)
    runs = set()
    for seed in range(15):
        seeded = dataclasses.replace(config, seed=seed)
        new, old = _both(lambda: simulate_panel_stats(seeded, m))
        assert new == old, seed
        runs.update(new[1])
    assert {0, 1, 2, 3} <= runs


def test_the_rejection_cap_raises_the_one_path_references_error():
    config = SimConfig(
        Rates(0.1, 8.0), 1, (12.5, 25.0), condition_nonextinct=True, max_events=2001
    )
    new, old = _both(lambda: simulate_panel_stats(config, 3))
    assert new == old
    assert new == (
        CapError,
        "event cap exhausted after 1001 rejected paths; the non-extinction event "
        "may be too rare for these rates",
    )
    # every path dies in its first gap, so each draws once, the 65th on
    # by array calls: the 1001st rejected path raises, and none is drawn
    # after it
    rng = _LoggingRng(0)
    with pytest.raises(CapError):
        simulate._draw_conditioned(rng, config, simulate._gap_laws(config), 3)
    assert rng.log == [("survivors", 1, 0)] * 1001


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(Rates(0.1, 8.0), 1, (0.6,), True, max_events=4000),
        SimConfig(Rates(0.1, 8.0), 1, (0.5, 1.0), True, max_events=4000),
        SimConfig(Rates(1.0, 6.0), 1, (0.9, 1.2, 1.5), True, max_events=6000),
        SimConfig(Rates(0.1, 8.0), 1, (1.0,), True, max_events=3000),
    ],
    ids=["one_gap", "two_gaps", "three_gaps", "rare"],
)
def test_runs_of_first_gap_deaths_are_the_one_path_references(config, monkeypatch):
    # about one path in 50 to 120 survives its first gap (one in 2,700
    # in the rare cell, which mostly reaches the cap), so runs of
    # _FIRST_GAP_RUN first-gap deaths are drawn by array calls, and
    # chunks that hold a survivor rewind the generator
    real, chunks = simulate._first_gap_deaths, []

    def logged(rng, z0, p_survive, n):
        chunks.append((n, real(rng, z0, p_survive, n)))
        return chunks[-1][1]

    monkeypatch.setattr(simulate, "_first_gap_deaths", logged)
    laws = simulate._gap_laws(config)
    for seed in range(6):
        for m in (1, 6):
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            new = _outcome(lambda: simulate._draw_conditioned(new_rng, config, laws, m))
            old = _outcome(lambda: legacy.draw_conditioned_array(old_rng, config, laws, m))
            assert new == old, (seed, m)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state, (seed, m)
    # chunks ran out with no survivor and doubled, and found one and rewound
    assert any(deaths == n > simulate._FIRST_GAP_RUN for n, deaths in chunks)
    assert any(deaths < n for n, deaths in chunks)


def test_a_hopeless_config_refuses_at_the_default_cap_within_a_second():
    # one ancestor survives 25 time units at lam 0.1, mu 8 with
    # probability 1.7e-86, so the 10^7-th one-gap path in a row is refused
    config = SimConfig(Rates(0.1, 8.0), 1, (25.0,), condition_nonextinct=True, seed=3)
    laws = simulate._gap_laws(config)
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    with pytest.raises(CapError, match="after 10000000 rejected paths"):
        simulate._draw_conditioned(rng, config, laws, 1)
    assert time.perf_counter() - start < 1.0
    # the stream stands after 10^7 first-gap draws, where the one-path
    # loop leaves it
    reference = np.random.default_rng(3)
    assert not reference.binomial(1, laws[0][1], 10**7).any()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_the_step_mean_cap_raises_the_array_samplers_error():
    # the second step's mean from 100 ancestors is about 4e110 births
    config = SimConfig(Rates(50.0, 0.0), 100, (0.01, 5.0), max_pop=10**9)
    new, old = _both(lambda: simulate_panel_stats(config, 3))
    assert new == old
    assert new[0] is CapError and "out of reach at t=5:" in new[1]
    assert new[1].endswith("1/2 observations recorded")
    # a conditioned panel raises at its first path's step, expecting the
    # births of that path's survivors, not of the largest of three lanes
    conditioned = dataclasses.replace(config, condition_nonextinct=True)
    new, old = _both(lambda: simulate_panel_stats(conditioned, 3))
    assert new == old
    assert new[0] is CapError and "out of reach at t=5:" in new[1]


def test_the_population_cap_raises_the_array_samplers_error():
    # mean 739 after the second step, so some path passes the cap of 500
    # there, after every lane of that step is drawn
    config = SimConfig(Rates(2.0, 0.0), 100, (0.5, 1.0), max_pop=500)
    new, old = _both(lambda: simulate_panel_stats(config, 20))
    assert new == old
    assert new == (CapError, "population cap 500 exceeded at t=1, 1/2 observations recorded")
    # a conditioned panel raises at the first path past the cap
    conditioned = dataclasses.replace(config, condition_nonextinct=True)
    assert _both(lambda: simulate_panel_stats(conditioned, 20)) == (new, new)


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


class _LoggingRng:
    """A Generator that logs every draw as (kind, n, result), those of an
    array call one by one (a rewind of its bit_generator is not logged)."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.log: list[tuple[str, int, int]] = []

    def binomial(self, n, p, size=None):
        out = self.rng.binomial(n, p, size)
        if size is None:
            self.log.append(("survivors", n, out))
        else:
            self.log += [("survivors", n, s) for s in out.tolist()]
        return out

    def negative_binomial(self, n, p):
        out = self.rng.negative_binomial(n, p)
        self.log.append(("births", n, out))
        return out


@pytest.mark.parametrize("name", ["mc_single", "mc_pooled", "grid_z0=1,m=20"])
def test_a_conditioned_path_draws_nothing_after_its_first_zero(name):
    # replay the log path by path: survivors drawn from the last count,
    # births for a positive survivor count only, a path ending at its
    # first zero or its last gap, and no draw after the m-th kept path
    cell = CELLS[name]
    config = _config(cell, 0)
    laws = simulate._gap_laws(config)
    lived = []  # the counts of each rejected path, z0 first
    for seed in range(10):
        rng = _LoggingRng(seed)
        kept, rejections = simulate._draw_conditioned(rng, config, laws, cell.m)
        log = list(reversed(rng.log))
        replayed: list[list[int]] = []
        runs, run = [], 0
        while len(replayed) < cell.m:
            path = [config.z0]
            for _ in laws:
                kind, n, survivors = log.pop()
                assert (kind, n) == ("survivors", path[-1])
                if survivors == 0:
                    break
                kind, n, births = log.pop()
                assert (kind, n) == ("births", survivors)
                path.append(survivors + births)
            if len(path) == len(laws) + 1:
                replayed.append(path)
                runs.append(run)
                run = 0
            else:
                run += 1
                lived.append(path)
        assert log == []
        assert (replayed, runs) == (kept, rejections)
    # paths died, some of them after their first gap
    assert any(len(path) > 1 for path in lived)


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
