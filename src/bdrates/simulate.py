"""Exact simulation of the process and the Monte-Carlo benchmark harness.

Panels (simulate_panel, simulate_panel_stats, and through them
run_benchmark and ``bdrates simulate``) are drawn gap by gap from the
exact transition law: over a gap tau, each of z individuals leaves
descendants with probability 1 - alpha(tau), and the S survivors grow
to Z = S + NegBin(S, 1 - beta(tau)), with (alpha, beta) from
exact.geom_params.  An unconditioned panel draws all its paths
together, about 6 us per gap plus 0.7 us per live path (_draw_paths).
A panel conditioned on survival draws one path at a time and stops a
path at its first zero, about 2 us per live path-step
(_draw_conditioned): it rejects and redraws whole paths until the final
observation is positive (the weakest, and documented, reading of
conditioning on survival).  The tests hold this sampler against an
event-by-event simulator (tests/oracles.py) that shares no code with
the transition law.

run_benchmark() wraps the simulator and the estimation front-end into a
bias / standard deviation / RMSE table per estimator, with per-replicate
seeds split from the master seed so results do not depend on execution
order.  Each method's kept fits form one 5 x n array, a row each for
lambda-hat, mu-hat, omega-hat, the objective evaluations and the wall
time, reduced row by row in one pass (_summarize_rows).  numpy sums a
contiguous row pairwise, in the order in which it sums the same values
as a 1-D array, so every figure has the bits of summarize() on its row
alone, at any n; tests/test_simulate.py holds the rows to the
per-quantity summaries kept in tests/legacy_kernels.py.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BdError, CapError, DomainError
from .estimate import FitOptions, fit
from .exact import geom_params
from .types import Panel, Rates, Trajectory

__all__ = [
    "SimConfig",
    "BenchmarkCell",
    "MethodStats",
    "BenchmarkReport",
    "simulate_panel",
    "simulate_panel_stats",
    "run_benchmark",
    "summarize",
    "child_seed",
]


@dataclass(frozen=True)
class SimConfig:
    """One trajectory's worth of simulation settings.

    obs_times are the recording instants after time zero; the returned
    trajectory always prepends (0, z0).  The caps raise CapError:

    - max_events bounds the work spent on one conditioned trajectory
      across its rejected paths, so a run on rates that rarely survive
      cannot spin forever: the ceil(max_events / n_obs)-th rejected path
      in a row is refused.  Each rejected path counts as n_obs path
      steps, though it stops at its first zero.  An unconditioned
      trajectory is one path and is not bounded further.
    - max_pop bounds the population: it is checked at every observation
      of every path drawn, and a gap whose expected growth is beyond
      what the sampler can draw is refused before its births are drawn.
    """

    rates: Rates
    z0: int
    obs_times: tuple[float, ...]
    condition_nonextinct: bool = False
    seed: int = 0
    max_events: int = 10**7
    max_pop: int = 10**6

    def __post_init__(self) -> None:
        if self.z0 != int(self.z0) or self.z0 < 1:
            raise DomainError(f"z0 must be a positive integer, got {self.z0}")
        if len(self.obs_times) == 0:
            raise DomainError("obs_times must be nonempty")
        prev = 0.0
        for t in self.obs_times:
            if not (math.isfinite(t) and t > prev):
                raise DomainError(
                    "obs_times must be finite, positive, strictly increasing"
                )
            prev = t
        if self.max_events <= 0 or self.max_pop <= 0:
            raise DomainError("caps must be positive")
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed}")


def child_seed(master: int, *path: int) -> int:
    """64-bit seed derived from a master seed and an index path.

    Counter-based split: the same (master, path) always yields the same
    child, and distinct paths decorrelate, so replicates can run in any
    order without sharing streams.
    """
    ss = np.random.SeedSequence(entropy=[master, *path])
    lo, hi = (int(w) for w in ss.generate_state(2))
    return (hi << 32) | lo


# Largest expected growth of one lane over one gap that the panel sampler
# draws.  numpy refuses negative-binomial draws whose mean nears 9.2e18 and
# the counts are int64; any larger step is far above every population cap
# the estimators can handle, so it is reported as a cap instead.
_MAX_STEP_MEAN = 1e15
_LOG_MAX_STEP_MEAN = math.log(_MAX_STEP_MEAN)


def _gap_laws(config: SimConfig) -> list[tuple[float, float, float, float]]:
    """Per gap: (obs time, survival prob 1 - alpha, geometric success prob
    1 - beta, log(beta / (1 - beta))), the last the mean growth per survivor.

    The probabilities are exp(log1m_*), not 1.0 - alpha or 1.0 - beta,
    which cancel at long gaps. log1m_alpha can round above 0 where alpha
    is 0 or nearly (mu == 0: 8.9e-16 at lam 3.625 over a gap of 1), so
    the survival probability is capped at 1, which numpy's binomial
    requires. The law of each distinct gap (the exact float) is formed
    once: a grid such as 0.1*(j+1) has only a few.
    """
    by_gap: dict[float, tuple[float, float, float]] = {}
    laws = []
    prev = 0.0
    for t in config.obs_times:
        gap = t - prev
        if gap not in by_gap:
            g = geom_params(gap, config.rates)
            by_gap[gap] = (
                min(math.exp(g.log1m_alpha), 1.0),
                math.exp(g.log1m_beta),
                g.log_beta - g.log1m_beta,
            )
        laws.append((t, *by_gap[gap]))
        prev = t
    return laws


def _check_step(
    config: SimConfig, laws: list[tuple[float, float, float, float]], i: int, s_max: int
) -> None:
    """Refuse gap i's births from s_max > 0 survivors (the most of any
    lane) where they expect more than the sampler can draw."""
    t, _, _, log_growth = laws[i]
    log_mean = math.log(s_max) + log_growth
    if log_mean > _LOG_MAX_STEP_MEAN:
        raise CapError(
            f"population cap {config.max_pop} out of reach at t={t:.6g}: "
            f"the step expects {math.exp(min(log_mean, 700.0)):.3g} births, "
            f"more than can be drawn; {i}/{len(laws)} observations recorded"
        )


def _check_population(
    config: SimConfig, laws: list[tuple[float, float, float, float]], i: int, z_max: int
) -> None:
    """Refuse a count z_max (the most of any lane) above max_pop at gap i's
    observation."""
    if z_max > config.max_pop:
        raise CapError(
            f"population cap {config.max_pop} exceeded at t={laws[i][0]:.6g}, "
            f"{i}/{len(laws)} observations recorded"
        )


def _draw_paths(
    rng: np.random.Generator,
    config: SimConfig,
    laws: list[tuple[float, float, float, float]],
    n: int,
) -> np.ndarray:
    """n unconditioned paths from z0, shape (n, n_obs + 1).

    Per gap, one binomial call over the batch draws the survivors, and
    one scalar negative_binomial call per live lane, in lane order, its
    births. That is the stream of one array call over the live lanes:
    numpy's array form runs the same C draw per lane in the same order,
    after argument checks that cost it 21-25 us per call however few
    lanes it draws, against about 0.7 us per scalar call. Each gap's
    counts fill a row of a gap-major array, returned transposed. The caps
    are checked per gap on the largest lane, the step's before any births
    are drawn and the population's after all of them.

    Unconditioned panels keep this batch: _draw_conditioned's one-path
    loop would reorder their draws and so change every seeded panel (the
    seeded Wald coverage check in tests/test_mc_properties.py would read
    449/500, under its floor of 450).  Nothing else draws them at m >= 20,
    where the batch is cheaper: no benchmark cell, and ``bdrates
    simulate`` defaults to m = 1.
    """
    n_obs = len(laws)
    out = np.empty((n_obs + 1, n), dtype=np.int64)
    out[0] = config.z0
    negative_binomial = rng.negative_binomial
    for i, (_, p_survive, p_geom, _) in enumerate(laws):
        z = rng.binomial(out[i], p_survive).tolist()
        s_max = max(z)
        if s_max > 0:
            _check_step(config, laws, i, s_max)
            z = [s + negative_binomial(s, p_geom) if s else 0 for s in z]
            _check_population(config, laws, i, max(z))
        out[i + 1] = z
    return out.T


# After this many first-gap deaths in a row, _draw_conditioned draws first
# gaps by array calls, in chunks that double from this size.
_FIRST_GAP_RUN = 64
_MAX_FIRST_GAP_CHUNK = 2**20  # 8 MB of int64 draws


def _first_gap_deaths(rng: np.random.Generator, z0: int, p_survive: float, n: int) -> int:
    """The number of first-gap deaths from z0 before the first survivor
    among n draws (n if none survives), drawn by one array call, which
    makes the n scalar calls' draws in order.  If a survivor turns up,
    the generator is rewound and only the deaths are drawn again."""
    state = rng.bit_generator.state
    survivors = np.flatnonzero(rng.binomial(z0, p_survive, n))
    if survivors.size == 0:
        return n
    deaths = int(survivors[0])
    rng.bit_generator.state = state
    rng.binomial(z0, p_survive, deaths)
    return deaths


def _draw_conditioned(
    rng: np.random.Generator,
    config: SimConfig,
    laws: list[tuple[float, float, float, float]],
    m: int,
) -> tuple[list[list[int]], list[int]]:
    """m paths from z0 with a positive last count, as lists of counts,
    and the paths rejected before each since the previous kept one.

    Paths are drawn one at a time, each gap by one scalar binomial call
    for the survivors and, where any survive, one scalar
    negative_binomial call for their births, under _draw_paths's caps.
    A path stops at its first zero, so a rejected path costs only the
    gaps it lived, and no path is drawn once m are kept: a panel costs
    about 2 us per live path-step.  Rejected paths count against
    max_events one step per gap, as if drawn to the end: the
    ceil(max_events / n_obs)-th rejected path in a row raises CapError.

    After _FIRST_GAP_RUN first-gap deaths in a row, _first_gap_deaths
    draws the first gaps, leaving the paths, rejections, refusal and
    generator state as above: rates that almost never survive refuse at
    the default max_events in 0.1 s, not 10 s.
    """
    max_run = -(-config.max_events // len(laws))
    binomial = rng.binomial
    negative_binomial = rng.negative_binomial
    kept: list[list[int]] = []
    rejections: list[int] = []
    run = first_gap_run = 0
    chunk = _FIRST_GAP_RUN
    while len(kept) < m:
        if run >= max_run:
            raise CapError(
                f"event cap exhausted after {max_run} rejected paths; the "
                "non-extinction event may be too rare for these rates"
            )
        if first_gap_run >= _FIRST_GAP_RUN:
            n = min(chunk, max_run - run)
            deaths = _first_gap_deaths(rng, config.z0, laws[0][1], n)
            run += deaths
            if deaths == n:
                chunk = min(2 * chunk, _MAX_FIRST_GAP_CHUNK)
                continue
            # the next path survives its first gap, which ends the run
            chunk = _FIRST_GAP_RUN
        z = config.z0
        path = [z]
        for i, (_, p_survive, p_geom, _) in enumerate(laws):
            z = binomial(z, p_survive)
            if not z:
                break
            _check_step(config, laws, i, z)
            z += negative_binomial(z, p_geom)
            _check_population(config, laws, i, z)
            path.append(z)
        if z:
            kept.append(path)
            rejections.append(run)
            run = first_gap_run = 0
            continue
        run += 1
        first_gap_run = first_gap_run + 1 if len(path) == 1 else 0
    return kept, rejections


def _check_size(name: str, value) -> None:
    """Refuse a size that is a bool, not an integer or below 1, naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")


def simulate_panel_stats(config: SimConfig, m: int) -> tuple[Panel, list[int]]:
    """m independent trajectories plus per-trajectory rejection counts.

    Drawn from the exact transition law with one numpy Generator seeded
    from config.seed for the whole panel (not per-trajectory child
    seeds), so a panel reproduces from its seed.  rejections[j] counts
    the paths conditioning threw away between trajectory j - 1 and j.
    """
    _check_size("panel size m", m)
    rng = np.random.default_rng(config.seed)
    laws = _gap_laws(config)
    if config.condition_nonextinct:
        counts, rejections = _draw_conditioned(rng, config, laws, m)
    else:
        counts, rejections = _draw_paths(rng, config, laws, m).tolist(), [0] * m
    times = (0.0,) + tuple(config.obs_times)
    panel = Panel(tuple(Trajectory(times, tuple(row)) for row in counts))
    return panel, rejections


def simulate_panel(config: SimConfig, m: int) -> Panel:
    """m independent trajectories drawn from the exact transition law with
    one generator seeded from config.seed (see simulate_panel_stats)."""
    return simulate_panel_stats(config, m)[0]


# ---------------------------------------------------------------------------
# benchmark harness


@dataclass(frozen=True)
class BenchmarkCell:
    """One experiment configuration: panel shape and true rates.

    n_obs is the number of observations after time zero, i.e. the number
    of transitions each trajectory contributes; m is the number of
    trajectories per panel.  z0, n_obs and m are positive integers, not
    bools; DomainError names the one that is not.
    """

    rates: Rates
    z0: int
    n_obs: int
    m: int
    dt: float
    condition_nonextinct: bool = True

    def __post_init__(self) -> None:
        for name in ("z0", "n_obs", "m"):
            _check_size(name, getattr(self, name))
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise DomainError(f"dt must be positive and finite, got {self.dt}")

    def obs_times(self) -> tuple[float, ...]:
        return tuple(self.dt * (j + 1) for j in range(self.n_obs))


@dataclass(frozen=True)
class MethodStats:
    """Aggregated error measures of one estimator over the replicates.

    rmse uses sqrt(mean((theta_hat - theta_0)^2)), so with n used
    replicates rmse^2 = bias^2 + sd^2 * (n-1)/n exactly (sd has ddof=1).
    n_failed counts replicates the method raised on; n_nonconverged
    counts kept replicates whose optimizer hit its budget.  The cost of
    a fit sits next to its accuracy: mean_obj_evals and mean_wall_time
    average the used replicates' n_obj_evals and wall_time (NaN when
    none was used).  Wall time is left out of equality, so two runs of
    one seeded benchmark compare equal.
    """

    method: str
    n_used: int
    n_failed: int
    n_nonconverged: int
    bias_lambda: float
    sd_lambda: float
    rmse_lambda: float
    bias_mu: float
    sd_mu: float
    rmse_mu: float
    bias_omega: float
    sd_omega: float
    rmse_omega: float
    mean_obj_evals: float
    mean_wall_time: float = dataclasses.field(compare=False)


@dataclass(frozen=True)
class BenchmarkReport:
    cell: BenchmarkCell
    n_replicates: int
    seed: int
    rows: tuple[MethodStats, ...]


def _summarize_rows(samples: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """(bias, sd, rmse) of each row of a k x n sample array against its
    truth, as a k x 3 array: NaN where n = 0, sd 0 where n = 1.

    numpy sums each row along its contiguous axis pairwise, as it sums a
    1-D array, so each row's figures have the bits of that row summarized
    alone.
    """
    k, n = samples.shape
    if n == 0:
        return np.full((k, 3), math.nan)
    bias = samples.mean(axis=1) - truths
    sd = samples.std(axis=1, ddof=1) if n > 1 else np.zeros(k)
    rmse = np.sqrt(((samples - truths[:, None]) ** 2).mean(axis=1))
    return np.column_stack((bias, sd, rmse))


def summarize(values: Sequence[float], truth: float) -> tuple[float, float, float]:
    """(bias, sd, rmse) of a sample of estimates against the truth."""
    samples = np.asarray(values, dtype=float).reshape(1, -1)
    bias, sd, rmse = _summarize_rows(samples, np.array([truth], dtype=float))[0].tolist()
    return bias, sd, rmse


def run_benchmark(
    cells: Sequence[BenchmarkCell] | BenchmarkCell,
    methods: Sequence[str],
    n_replicates: int,
    seed: int,
    options: Optional[FitOptions] = None,
) -> list[BenchmarkReport]:
    """Simulate panels per cell, fit every method, aggregate the errors.

    Replicate r of cell c simulates from child_seed(seed, c, r), and the
    fits are deterministic, so any subset of the grid reproduces exactly.
    A method failure (refused panel, cap hit, search leaving the domain)
    drops that replicate for that method only.
    """
    if isinstance(cells, BenchmarkCell):
        cells = [cells]
    if n_replicates < 1:
        raise DomainError("n_replicates must be positive")
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    reports = []
    for ci, cell in enumerate(cells):
        # per method, one (lam, mu, omega, evaluations, wall time) per kept fit
        kept: dict[str, list[tuple[float, ...]]] = {m: [] for m in methods}
        failures = {m: 0 for m in methods}
        nonconverged = {m: 0 for m in methods}
        for rep in range(n_replicates):
            config = SimConfig(
                rates=cell.rates,
                z0=cell.z0,
                obs_times=cell.obs_times(),
                condition_nonextinct=cell.condition_nonextinct,
                seed=child_seed(seed, ci, rep),
            )
            panel = simulate_panel(config, cell.m)
            for method in methods:
                try:
                    res = fit(panel, method, options)
                except BdError:
                    failures[method] += 1
                    continue
                if not res.converged:
                    nonconverged[method] += 1
                lam, mu = res.rates.lam, res.rates.mu
                kept[method].append((lam, mu, lam - mu, res.n_obj_evals, res.wall_time))
        # the cost rows are measured against 0, so their bias is their mean
        truths = np.array([cell.rates.lam, cell.rates.mu, cell.rates.omega, 0.0, 0.0])
        rows = []
        for method in methods:
            # one contiguous row per quantity, which numpy sums pairwise
            samples = np.array(kept[method], dtype=float).reshape(-1, len(truths)).T.copy()
            # MethodStats lists each rate's (bias, sd, rmse) in this row
            # order, then the two cost means
            figures = _summarize_rows(samples, truths)
            rows.append(
                MethodStats(
                    method,
                    len(kept[method]),
                    failures[method],
                    nonconverged[method],
                    *figures[:3].ravel().tolist(),
                    *figures[3:, 0].tolist(),
                )
            )
        reports.append(
            BenchmarkReport(
                cell=cell, n_replicates=n_replicates, seed=seed, rows=tuple(rows)
            )
        )
    return reports
