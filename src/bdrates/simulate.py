"""Exact simulation of the process and the Monte-Carlo benchmark harness.

Two samplers draw from the same law:

- Panels (simulate_panel, simulate_panel_stats, and through them
  run_benchmark and ``bdrates simulate``) are drawn gap by gap from the
  exact transition law.  Over a gap tau, each of z individuals leaves
  descendants with probability 1 - alpha(tau), and the S survivors grow
  to Z = S + NegBin(S, 1 - beta(tau)), with (alpha, beta) from
  exact.geom_params.  Per gap, one numpy call draws the survivors of
  every path and one scalar call per path with survivors its births, so
  a gap costs about 6 us plus 0.7 us per live path.
- Single trajectories (simulate_trajectory, simulate_trajectory_stats)
  are drawn event by event: in state k the holding time is exponential
  with rate k(lambda + mu) and the jump is a birth with probability
  lambda/(lambda + mu); states are read off at the observation times from
  the same event clock.  This loop shares no code with the transition
  law, which is why it stays: it is the independent oracle that the
  tests hold both the pmf and the panel sampler against.

Non-extinction conditioning rejects and redraws whole paths until the
final observation is positive (the weakest, and documented, reading of
conditioning on survival), on both paths.

run_benchmark() wraps the simulator and the estimation front-end into a
bias / standard deviation / RMSE table per estimator, with per-replicate
seeds split from the master seed so results do not depend on execution
order.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BdError, CapError, DomainError
from .estimate import EstimateResult, FitOptions, fit
from .exact import geom_params
from .types import Panel, Rates, Trajectory

__all__ = [
    "SimConfig",
    "BenchmarkCell",
    "MethodStats",
    "BenchmarkReport",
    "simulate_trajectory",
    "simulate_trajectory_stats",
    "simulate_panel",
    "simulate_panel_stats",
    "run_benchmark",
    "child_seed",
]


@dataclass(frozen=True)
class SimConfig:
    """One trajectory's worth of simulation settings.

    obs_times are the recording instants after time zero; the returned
    trajectory always prepends (0, z0).  The caps raise CapError:

    - max_events bounds the work spent on one trajectory across its
      rejected paths, so a conditioned run on rates that rarely survive
      cannot spin forever.  The event loop counts births and deaths; the
      panel sampler counts path steps, one per gap of every path drawn
      (its unconditioned draw is one path per trajectory and is not
      bounded further).
    - max_pop bounds the population: the event loop checks it after
      every event, the panel sampler at every observation of every path
      it draws, and also refuses a gap whose expected growth is beyond
      what the sampler can draw.
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


def _sample_counts(
    rng: random.Random, config: SimConfig, budget: int
) -> tuple[tuple[int, ...], int]:
    """One unconditioned path read at obs_times; returns (counts, events).

    The event clock is global: observation instants falling inside a
    holding interval record the pre-jump state, so no holding-time draw
    is ever discarded or restarted.
    """
    lam = config.rates.lam
    xi = config.rates.xi
    p_birth = lam / xi
    obs = config.obs_times
    n_obs = len(obs)
    out: list[int] = []
    k = config.z0
    t = 0.0
    events = 0
    i = 0
    while i < n_obs:
        if k == 0:
            out.extend([0] * (n_obs - i))
            break
        t_next = t + rng.expovariate(k * xi)
        while i < n_obs and obs[i] <= t_next:
            out.append(k)
            i += 1
        if i >= n_obs:
            break
        events += 1
        if events > budget:
            raise CapError(
                f"event cap exhausted at t={t_next:.6g}, population {k}, "
                f"{i}/{n_obs} observations recorded"
            )
        k += 1 if rng.random() < p_birth else -1
        if k > config.max_pop:
            raise CapError(
                f"population cap {config.max_pop} exceeded at t={t_next:.6g}, "
                f"{i}/{n_obs} observations recorded"
            )
        t = t_next
    return tuple(out), events


def simulate_trajectory_stats(
    config: SimConfig, rng: Optional[random.Random] = None
) -> tuple[Trajectory, int]:
    """Simulate one trajectory; also report how many paths conditioning threw
    away before acceptance."""
    if rng is None:
        rng = random.Random(config.seed)
    budget = config.max_events
    rejections = 0
    while True:
        counts, used = _sample_counts(rng, config, budget)
        budget -= used
        if not config.condition_nonextinct or counts[-1] > 0:
            traj = Trajectory(
                (0.0,) + tuple(config.obs_times), (config.z0,) + counts
            )
            return traj, rejections
        rejections += 1
        if budget <= 0:
            raise CapError(
                f"event cap exhausted after {rejections} rejected paths; "
                "the non-extinction event may be too rare for these rates"
            )


def simulate_trajectory(
    config: SimConfig, rng: Optional[random.Random] = None
) -> Trajectory:
    """Exact simulation of the process, recorded at config.obs_times."""
    traj, _ = simulate_trajectory_stats(config, rng)
    return traj


# Largest expected growth of one lane over one gap that the panel sampler
# draws.  numpy refuses negative-binomial draws whose mean nears 9.2e18 and
# the counts are int64; any larger step is far above every population cap
# the estimators can handle, so it is reported as a cap instead.
_MAX_STEP_MEAN = 1e15

# Path steps (lanes x observations) held in one batch of conditioned draws.
_MAX_BATCH_STEPS = 2**22


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
    counts fill a row of a gap-major array, returned transposed.
    """
    n_obs = len(laws)
    out = np.empty((n_obs + 1, n), dtype=np.int64)
    out[0] = config.z0
    negative_binomial = rng.negative_binomial
    for i, (t, p_survive, p_geom, log_growth) in enumerate(laws):
        z = rng.binomial(out[i], p_survive).tolist()
        s_max = max(z)
        if s_max > 0:
            log_mean = math.log(s_max) + log_growth
            if log_mean > math.log(_MAX_STEP_MEAN):
                raise CapError(
                    f"population cap {config.max_pop} out of reach at t={t:.6g}: "
                    f"the step expects {math.exp(min(log_mean, 700.0)):.3g} births, "
                    f"more than can be drawn; {i}/{n_obs} observations recorded"
                )
            z = [s + negative_binomial(s, p_geom) if s else 0 for s in z]
            if max(z) > config.max_pop:
                raise CapError(
                    f"population cap {config.max_pop} exceeded at t={t:.6g}, "
                    f"{i}/{n_obs} observations recorded"
                )
        out[i + 1] = z
    return out.T


def _draw_conditioned(
    rng: np.random.Generator,
    config: SimConfig,
    laws: list[tuple[float, float, float, float]],
    m: int,
) -> tuple[np.ndarray, list[int]]:
    """m paths with a positive last count, and the rejected paths drawn
    before each since the previous accepted one.

    Paths are drawn in batches and read as one stream in draw order.  A
    trajectory may spend max_events path steps on rejected paths, as the
    event loop may spend max_events events.
    """
    n_obs = len(laws)
    max_run = -(-config.max_events // n_obs)
    # batches are sized from the exact survival probability to the last
    # observation, so one batch nearly always suffices; the floor only
    # keeps the size finite, the budget and memory caps below bind first.
    # The margin costs each gap about 0.7 us per live path it adds: a gap
    # costs one binomial call (about 6 us, whether it draws 1 path or
    # 33) and one scalar negative_binomial call per live path (about
    # 0.7 us). On the benchmark's pooled_growth Monte Carlo cell (lam 7,
    # mu 5, ten ancestors, 30 steps of 0.1) the 33 paths of a batch take
    # 1.01 ms and the 20 kept ones would take 0.73 ms; on its single_traj
    # cell (lam 7, mu 6, one ancestor, 14 steps of 0.2) 17 paths take
    # 0.17 ms and 7 would take 0.14 ms (medians over 40 seeds of best of
    # 30, 2-CPU Xeon host, numpy 2.4). A tighter batch would change the
    # random stream, and with it every seeded Monte Carlo result.
    log_alpha = geom_params(config.obs_times[-1], config.rates).log_alpha
    p_keep = max(-math.expm1(config.z0 * log_alpha), 1e-9)
    kept: list[np.ndarray] = []
    rejections: list[int] = []
    run = 0
    while len(rejections) < m:
        need = m - len(rejections)
        n = min(
            math.ceil(1.2 * need / p_keep) + 8,
            need * max_run,
            max(1, _MAX_BATCH_STEPS // (n_obs + 1)),
        )
        paths = _draw_paths(rng, config, laws, n)
        accepted = np.flatnonzero(paths[:, -1] > 0)[:need]
        runs = np.diff(accepted, prepend=-1) - 1
        if len(accepted):
            runs[0] += run
            run = 0
        after = n - 1 - (int(accepted[-1]) if len(accepted) else -1)
        longest = max(runs.max(initial=0), run + after if len(accepted) < need else 0)
        if longest >= max_run:
            raise CapError(
                f"event cap exhausted after {max_run} rejected paths; the "
                "non-extinction event may be too rare for these rates"
            )
        kept.append(paths[accepted])
        rejections.extend(runs.tolist())
        run += after
    return np.concatenate(kept), rejections


def simulate_panel_stats(config: SimConfig, m: int) -> tuple[Panel, list[int]]:
    """m independent trajectories plus per-trajectory rejection counts.

    Drawn from the exact transition law with one numpy Generator seeded
    from config.seed for the whole panel (not per-trajectory child
    seeds), so a panel reproduces from its seed but its trajectory j is
    not the one simulate_trajectory draws.  rejections[j] counts the
    paths conditioning threw away between trajectory j - 1 and j.
    """
    if m < 1:
        raise DomainError(f"panel size must be positive, got {m}")
    rng = np.random.default_rng(config.seed)
    laws = _gap_laws(config)
    if config.condition_nonextinct:
        counts, rejections = _draw_conditioned(rng, config, laws, m)
    else:
        counts, rejections = _draw_paths(rng, config, laws, m), [0] * m
    times = (0.0,) + tuple(config.obs_times)
    panel = Panel(tuple(Trajectory(times, tuple(row)) for row in counts.tolist()))
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
    trajectories per panel.
    """

    rates: Rates
    z0: int
    n_obs: int
    m: int
    dt: float
    condition_nonextinct: bool = True

    def __post_init__(self) -> None:
        if self.n_obs < 1 or self.m < 1:
            raise DomainError("n_obs and m must be positive")
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


def summarize(values: Sequence[float], truth: float) -> tuple[float, float, float]:
    """(bias, sd, rmse) of a sample of estimates against the truth."""
    v = np.asarray(values, dtype=float)
    if len(v) == 0:
        return math.nan, math.nan, math.nan
    # ndarray methods and math.sqrt: the same reductions as np.mean,
    # np.std and np.sqrt, without their per-call wrappers
    bias = float(v.mean() - truth)
    sd = float(v.std(ddof=1)) if len(v) > 1 else 0.0
    rmse = math.sqrt(((v - truth) ** 2).mean())
    return bias, sd, rmse


def _mean(values: Sequence[float]) -> float:
    return float(np.asarray(values).mean()) if values else math.nan


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
        estimates: dict[str, list[EstimateResult]] = {m: [] for m in methods}
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
                estimates[method].append(res)
        rows = []
        for method in methods:
            kept = estimates[method]
            lams = [r.rates.lam for r in kept]
            mus = [r.rates.mu for r in kept]
            oms = [r.rates.lam - r.rates.mu for r in kept]
            bl, sl, rl = summarize(lams, cell.rates.lam)
            bm, sm, rm = summarize(mus, cell.rates.mu)
            bo, so, ro = summarize(oms, cell.rates.omega)
            rows.append(
                MethodStats(
                    method=method,
                    n_used=len(kept),
                    n_failed=failures[method],
                    n_nonconverged=nonconverged[method],
                    bias_lambda=bl,
                    sd_lambda=sl,
                    rmse_lambda=rl,
                    bias_mu=bm,
                    sd_mu=sm,
                    rmse_mu=rm,
                    bias_omega=bo,
                    sd_omega=so,
                    rmse_omega=ro,
                    mean_obj_evals=_mean([r.n_obj_evals for r in kept]),
                    mean_wall_time=_mean([r.wall_time for r in kept]),
                )
            )
        reports.append(
            BenchmarkReport(
                cell=cell, n_replicates=n_replicates, seed=seed, rows=tuple(rows)
            )
        )
    return reports
