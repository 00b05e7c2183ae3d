"""Seeded panels for the fit workloads, drawn without ``bdrates.simulate``.

The sampler uses the exact transition law of the linear birth-death
process over one gap: of ``a`` individuals, ``S ~ Binomial(a, 1 - alpha)``
leave descendants, and the count after the gap is
``Z = S + NegBin(S, 1 - beta)``. ``alpha`` and ``beta`` are computed here,
so a change to the program's simulator cannot move the fit workloads'
inputs.

A run fits only a few panels, and the cost of a fit grows with the
counts it scores. Plain random draws would make the measured medians
depend on the luck of the seed, so the panel set is stratified: a large
seeded pool is sorted by total source count (the exact likelihood's
work) and one panel is cut at each of a fixed list of quantiles. The list
starts at the median and refines in symmetric pairs (1/2; 1/4, 3/4; 1/8,
7/8, 3/8, 5/8; ...), so its first n entries span the pool for any n.
"""

from __future__ import annotations

import math

import numpy as np

from bdrates import Panel, Trajectory

from spec import Cell


def law_params(dt: float, lam: float, mu: float) -> tuple[float, float]:
    """(alpha, beta) of the single-ancestor law over a gap dt."""
    if lam == mu:
        u = lam * dt
        return u / (1.0 + u), u / (1.0 + u)
    e = math.exp((lam - mu) * dt)
    den = lam * e - mu
    return mu * (e - 1.0) / den, lam * (e - 1.0) / den


def sample_counts(rng: np.random.Generator, cell: Cell, n_paths: int) -> np.ndarray:
    """Count paths (n_paths, n_obs + 1) from z0, each conditioned on a
    positive last count by redrawing whole paths."""
    alpha, beta = law_params(cell.dt, cell.lam, cell.mu)
    kept: list[np.ndarray] = []
    need = n_paths
    while need > 0:
        batch = max(2 * need, 64)
        z = np.full(batch, cell.z0, dtype=np.int64)
        path = [z]
        for _ in range(cell.n_obs):
            s = rng.binomial(z, 1.0 - alpha)
            extra = rng.negative_binomial(np.maximum(s, 1), 1.0 - beta)
            z = s + np.where(s > 0, extra, 0)
            path.append(z)
        rows = np.stack(path, axis=1)
        rows = rows[rows[:, -1] > 0][:need]
        kept.append(rows)
        need -= len(rows)
    return np.concatenate(kept)


def quantile_order(n: int) -> list[float]:
    """The first n quantile positions: 1/2, then symmetric pairs at each
    finer level of the dyadic grid."""
    out = [0.5]
    level = 2
    while len(out) < n:
        den = 2**level
        for k in range(1, den // 2, 2):
            out.extend((k / den, 1.0 - k / den))
        level += 1
    return out[:n]


def stratified_panels(cell: Cell, seed: int, n_panels: int, pool: int) -> list[Panel]:
    """n_panels panels of m conditioned trajectories, cut from a seeded
    pool of candidates at the positions of quantile_order()."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, cell.z0, cell.m]))
    paths = sample_counts(rng, cell, pool * cell.m).reshape(pool, cell.m, cell.n_obs + 1)
    work = paths[:, :, :-1].sum(axis=(1, 2))
    ranked = np.argsort(work, kind="stable")
    times = (0.0,) + cell.obs_times()
    panels = []
    for q in quantile_order(n_panels):
        rows = paths[ranked[min(int(q * pool), pool - 1)]]
        panels.append(Panel(tuple(Trajectory(times, tuple(r)) for r in rows.tolist())))
    return panels
