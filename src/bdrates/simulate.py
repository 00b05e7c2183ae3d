"""Exact event-driven simulation and the Monte-Carlo benchmark harness.

The process is simulated event by event: in state k the holding time is
exponential with rate k(lambda + mu) and the jump is a birth with
probability lambda/(lambda + mu).  States are read off at the requested
observation times from the same event clock, so the recorded panel is a
draw from the exact discrete-time law and the simulator doubles as an
oracle for the transition pmf.  Non-extinction conditioning rejects and
redraws whole paths until the final observation is positive (the
weakest, and documented, reading of conditioning on survival).

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
from .estimate import FitOptions, fit
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
    trajectory always prepends (0, z0).  max_events bounds the total
    event count across rejection attempts of a single trajectory, so a
    conditioned subcritical run cannot spin forever.
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


def simulate_panel_stats(config: SimConfig, m: int) -> tuple[Panel, list[int]]:
    """m independent trajectories plus per-trajectory rejection counts;
    per-trajectory seeds split from config.seed."""
    if m < 1:
        raise DomainError(f"panel size must be positive, got {m}")
    trajectories = []
    rejections = []
    for j in range(m):
        rng = random.Random(child_seed(config.seed, j))
        traj, rej = simulate_trajectory_stats(config, rng)
        trajectories.append(traj)
        rejections.append(rej)
    return Panel(tuple(trajectories)), rejections


def simulate_panel(config: SimConfig, m: int) -> Panel:
    """m independent trajectories; per-trajectory seeds split from config.seed."""
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
    counts kept replicates whose optimizer hit its budget.
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
    bias = float(np.mean(v) - truth)
    sd = float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
    rmse = float(np.sqrt(np.mean((v - truth) ** 2)))
    return bias, sd, rmse


def run_benchmark(
    cells: Sequence[BenchmarkCell] | BenchmarkCell,
    methods: Sequence[str],
    n_replicates: int,
    seed: int,
    options: Optional[FitOptions] = None,
) -> list[BenchmarkReport]:
    """Simulate panels per cell, fit every method, aggregate the errors.

    Replicate r of cell c simulates from child_seed(seed, c, r) and fits
    with optimizer seed child_seed(seed, c, r, 1), so any subset of the
    grid reproduces exactly.  A method failure (refused panel, cap hit,
    search leaving the domain) drops that replicate for that method only.
    """
    if isinstance(cells, BenchmarkCell):
        cells = [cells]
    if n_replicates < 1:
        raise DomainError("n_replicates must be positive")
    reports = []
    for ci, cell in enumerate(cells):
        estimates: dict[str, list[tuple[float, float]]] = {m: [] for m in methods}
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
            fit_seed = child_seed(seed, ci, rep, 1)
            base = options if options is not None else FitOptions()
            rep_options = dataclasses.replace(base, seed=fit_seed)
            for method in methods:
                try:
                    res = fit(panel, method, rep_options)
                except BdError:
                    failures[method] += 1
                    continue
                if not res.converged:
                    nonconverged[method] += 1
                estimates[method].append((res.rates.lam, res.rates.mu))
        rows = []
        for method in methods:
            kept = estimates[method]
            lams = [e[0] for e in kept]
            mus = [e[1] for e in kept]
            oms = [l - m for l, m in kept]
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
                )
            )
        reports.append(
            BenchmarkReport(
                cell=cell, n_replicates=n_replicates, seed=seed, rows=tuple(rows)
            )
        )
    return reports
