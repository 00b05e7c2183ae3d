"""Per-call cost of the likelihood kernels at each method's optimum.

Simulates seeded panels of one of the benchmark's two fit cells (--cell):

- single (the default): one trajectory, lambda 7, mu 6, one ancestor,
  14 observations 0.2 apart, conditioned on survival (single_traj);
- pooled: four trajectories, lambda 7, mu 5, ten ancestors, 20
  observations 0.1 apart, conditioned on survival (pooled_growth);

fits each panel with spmle, spmle_adjusted and mle, and times at each
fit's optimum:

- spa_loglik, the saddlepoint objective (spmle plain, spmle_adjusted
  conditional);
- spa_derivatives cold, with the panel's saddlepoint slot emptied
  inside each timed call, so it costs one spa_loglik sweep (which it
  runs itself) plus the derivatives;
- spa_derivatives after spa_loglik at the same rates, as a Newton fit
  calls it, reading the saddlepoints that sweep left;
- exact_loglik(..., derivatives=True), the exact objective with its
  score and information (mle).

Each figure is the best of 20 calls on one panel; the table gives the
median, smallest and largest over the panels, in microseconds. It is the
per-evaluation layer cost, to read beside the evaluations per fit. Beside
it, passes is the median over the panels of the solve passes one call
makes (calls of saddlepoint._cgf_terms for the plain solve and of
saddlepoint._cond_pass for the conditional one, each over one gap
group's lanes; 0 for a call that reads the saddlepoints of the sweep
before it, and for the exact kernel), and per_group their mean over the
panels per gap group with saddlepoint lanes, which a median of whole
passes rounds away.

A second table splits each likelihood fit (spmle, spmle_adjusted, mle)
into its evaluations and its search, so that a cheaper kernel is not
confused with a cheaper search: "fit" is the fit's wall time, "fit
evaluations" the summed time of its objective and derivatives calls
(the spa_loglik, spa_derivatives and exact_loglik that bdrates.estimate
calls, each timed by a wrapper), and "fit search" the difference: the
start, the Newton steps, the covariance, and the wrappers' own cost of
about 0.2 us per call. Each is the best of 20 fits of one panel; the
table gives the median, smallest and largest over the panels.

    PYTHONPATH=src python scripts/run_kernel_costs.py --seed 1 --panels 12
    PYTHONPATH=src python scripts/run_kernel_costs.py --seed 1 --panels 12 --cell pooled

A pass name that the saddlepoint module lacks (a tree from before that
pass existed) counts 0, so one copy of this script times any tree.

With --replicates N it also splits one Monte Carlo replicate of the
benchmark's Monte Carlo cell of the same workload (--cell) into its
stages, as simulate.run_benchmark runs them: the replicate that
perfbench's MC phase runs, fitting gw and spmle to trajectories
conditioned on survival:

- single: one trajectory, lambda 7, mu 6, one ancestor, 14 observations
  0.2 apart (single_traj);
- pooled: 20 trajectories, lambda 7, mu 5, ten ancestors, 30
  observations 0.1 apart (pooled_growth).

The stages:

- draws: the gap laws and the conditioned paths (simulate._gap_laws,
  simulate._draw_conditioned);
- panel build: the Trajectory and Panel objects of those paths;
- table build: the panel's transitions table;
- gw: the moment fit;
- search: the spmle fit, from its start to its covariance.

Each stage's figure is the best of 20 runs of the replicate, each on a
fresh panel; the table gives the median, smallest and largest over the
replicates (seeds child_seed(seed, 0, r), as run_benchmark's), in
microseconds, and each stage's share of the summed medians.

    PYTHONPATH=src python scripts/run_kernel_costs.py --seed 1 --panels 0 --replicates 12
    PYTHONPATH=src python scripts/run_kernel_costs.py --seed 1 --panels 0 --replicates 12 --cell pooled
"""

import argparse
import statistics
import sys
import time

import numpy as np

from bdrates import BdError, Panel, Rates, Trajectory, estimate, fit, saddlepoint, simulate
from bdrates.exact import exact_loglik
from bdrates.saddlepoint import spa_derivatives, spa_loglik
from bdrates.simulate import BenchmarkCell, SimConfig, child_seed, simulate_panel

RATES = Rates(7.0, 6.0)
TIMES = tuple(0.2 * (j + 1) for j in range(14))
# the fit cells of perfbench's workloads: (rates, ancestors, observation
# times, trajectories), each conditioned on survival
CELLS = {
    "single": (RATES, 1, TIMES, 1),
    "pooled": (Rates(7.0, 5.0), 10, tuple(0.1 * (j + 1) for j in range(20)), 4),
}
REPEATS = 20
VARIANTS = {"spmle": "plain", "spmle_adjusted": "conditional"}
# the pass of the plain solve (a CGF evaluation) and of the conditional one
PASSES = ("_cgf_terms", "_cond_pass")
# the likelihood fits, and the kernels their objectives and derivatives
# call, by the names bdrates.estimate calls them under
SEARCH_METHODS = ("spmle", "spmle_adjusted", "mle")
EVAL_KERNELS = ("spa_loglik", "spa_derivatives", "exact_loglik")
SEARCH_FIGURES = ("fit", "fit evaluations", "fit search")
# perfbench's Monte Carlo cells, by the fit cell of the same workload, and
# the methods it fits there
MC_CELLS = {
    "single": BenchmarkCell(RATES, z0=1, n_obs=14, m=1, dt=0.2),
    "pooled": BenchmarkCell(Rates(7.0, 5.0), z0=10, n_obs=30, m=20, dt=0.1),
}
MC_METHODS = ("gw", "spmle")
STAGES = ("draws", "panel build", "table build", "gw", "search")


def draw_panels(seed: int, n_panels: int, cell: str = "single") -> list[Panel]:
    """n_panels panels of the fit cell (CELLS), each simulated from its
    own seed derived from seed and its index."""
    rates, z0, times, m = CELLS[cell]
    panels = []
    for i in range(n_panels):
        sub = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        config = SimConfig(rates, z0, times, condition_nonextinct=True, seed=sub)
        panels.append(simulate_panel(config, m))
    return panels


def best_of(call) -> float:
    """Smallest wall time of REPEATS calls, in microseconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def solve_passes(call) -> dict[str, int]:
    """{name: calls} of the saddlepoint passes (PASSES) that one call()
    makes; 0 for a pass the module lacks."""
    reals = {name: getattr(saddlepoint, name) for name in PASSES if hasattr(saddlepoint, name)}
    counts = dict.fromkeys(PASSES, 0)

    def counting(name):
        def wrapped(*args):
            counts[name] += 1
            return reals[name](*args)

        return wrapped

    for name in reals:
        setattr(saddlepoint, name, counting(name))
    try:
        call()
    finally:
        for name, real in reals.items():
            setattr(saddlepoint, name, real)
    return counts


def cost(call, groups: int) -> tuple[float, int, int]:
    """(microseconds, solve passes, groups) of call, whose panel has groups
    gap groups with saddlepoint lanes."""
    return best_of(call), sum(solve_passes(call).values()), groups


def panel_costs(panel: Panel) -> dict[tuple[str, str], tuple[float, int, int]]:
    """{(kernel, method): (microseconds, CGF passes, gap groups with
    saddlepoint lanes)} at each method's optimum on one panel; a method
    whose fit or kernel raises a BdError is left out."""
    out = {}
    for method, variant in VARIANTS.items():
        conditional = variant == "conditional"
        groups = sum(
            bool(saddlepoint._lanes(grp.dst, grp.src, conditional)[1].size)
            for grp in panel.transitions.groups
        )
        try:
            rates = fit(panel, method).rates
            slot = panel.transitions._saddlepoints
            out["spa_loglik", method] = cost(lambda: spa_loglik(panel, rates, variant), groups)
            out["spa_derivatives cold", method] = cost(
                lambda: (slot.clear(), spa_derivatives(panel, rates, variant)), groups
            )
            spa_loglik(panel, rates, variant)
            out["spa_derivatives after loglik", method] = cost(
                lambda: spa_derivatives(panel, rates, variant), groups
            )
        except BdError:
            continue
    try:
        rates = fit(panel, "mle").rates
        out["exact_loglik+derivatives", "mle"] = cost(
            lambda: exact_loglik(panel, rates, derivatives=True), 0
        )
    except BdError:
        pass
    return out


def fit_split(panel: Panel, method: str) -> list[float] | None:
    """The SEARCH_FIGURES of one fit of panel by method, in
    microseconds, each the smallest over REPEATS fits (the module
    docstring); None where the fit raises a BdError."""
    spent = [0.0]
    reals = {name: getattr(estimate, name) for name in EVAL_KERNELS}

    def timed(real):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - t0

        return wrapped

    best = [float("inf")] * len(SEARCH_FIGURES)
    for name, real in reals.items():
        setattr(estimate, name, timed(real))
    try:
        for _ in range(REPEATS):
            spent[0] = 0.0
            t0 = time.perf_counter()
            fit(panel, method)
            wall = time.perf_counter() - t0
            best = [min(b, v) for b, v in zip(best, (wall, spent[0], wall - spent[0]))]
    except BdError:
        return None
    finally:
        for name, real in reals.items():
            setattr(estimate, name, real)
    return [1e6 * b for b in best]


def replicate_stages(seed: int, cell: str) -> list[float]:
    """Seconds of each of STAGES in one run of the MC_CELLS[cell]
    replicate simulated from seed."""
    mc = MC_CELLS[cell]
    config = SimConfig(mc.rates, mc.z0, mc.obs_times(), mc.condition_nonextinct, seed=seed)
    marks = [time.perf_counter()]
    rng = np.random.default_rng(config.seed)
    counts, _ = simulate._draw_conditioned(rng, config, simulate._gap_laws(config), mc.m)
    marks.append(time.perf_counter())
    times = (0.0,) + tuple(config.obs_times)
    panel = Panel(tuple(Trajectory(times, tuple(row)) for row in counts.tolist()))
    marks.append(time.perf_counter())
    panel.transitions
    marks.append(time.perf_counter())
    for method in MC_METHODS:
        try:
            fit(panel, method)
        except BdError:
            pass  # run_benchmark counts it as a failed replicate
        marks.append(time.perf_counter())
    if panel != simulate_panel(config, mc.m):
        raise SystemExit("the split replicate's panel differs from simulate_panel's")
    return [b - a for a, b in zip(marks, marks[1:])]


def replicate_split(seed: int, n_replicates: int, cell: str) -> list[list[float]]:
    """Per replicate of MC_CELLS[cell], the best of REPEATS runs of each
    of STAGES in microseconds."""
    out = []
    for rep in range(n_replicates):
        sub = child_seed(seed, 0, rep)
        runs = [replicate_stages(sub, cell) for _ in range(REPEATS)]
        out.append([1e6 * min(stage) for stage in zip(*runs)])
    return out


def print_split(split: list[list[float]]) -> None:
    medians = [statistics.median(stage) for stage in zip(*split)]
    print(f"{'stage':<30} {'median_us':>10} {'min_us':>10} {'max_us':>10} {'share':>7}")
    for name, stage, median in zip(STAGES, zip(*split), medians):
        print(
            f"{name:<30} {median:>10.1f} {min(stage):>10.1f} {max(stage):>10.1f} "
            f"{median / sum(medians):>7.3f}"
        )
    print(f"{'replicate':<30} {sum(medians):>10.1f} {'':>10} {'':>10} {1.0:>7.3f}")


def print_kernels(seed: int, n_panels: int, cell: str = "single") -> None:
    rows: dict[tuple[str, str], list[tuple[float, int, int]]] = {}
    splits: dict[str, list[list[float]]] = {}
    for panel in draw_panels(seed, n_panels, cell):
        for key, row in panel_costs(panel).items():
            rows.setdefault(key, []).append(row)
        for method in SEARCH_METHODS:
            split = fit_split(panel, method)
            if split is not None:
                splits.setdefault(method, []).append(split)
    print(
        f"{'kernel':<30} {'method':<15} {'median_us':>10} {'min_us':>10} {'max_us':>10} "
        f"{'passes':>7} {'per_group':>9} {'panels':>7}"
    )
    for (kernel, method), row in rows.items():
        costs = [us for us, _, _ in row]
        passes = statistics.median([p for _, p, _ in row])
        per_group = statistics.mean([p / n if n else 0.0 for _, p, n in row])
        print(
            f"{kernel:<30} {method:<15} {statistics.median(costs):>10.1f} "
            f"{min(costs):>10.1f} {max(costs):>10.1f} {passes:>7.1f} {per_group:>9.2f} "
            f"{len(costs):>7d}"
        )
    print()
    print(f"{'fit figure':<30} {'method':<15} {'median_us':>10} {'min_us':>10} {'max_us':>10} "
          f"{'panels':>7}")
    for method, split in splits.items():
        for name, figure in zip(SEARCH_FIGURES, zip(*split)):
            print(
                f"{name:<30} {method:<15} {statistics.median(figure):>10.1f} "
                f"{min(figure):>10.1f} {max(figure):>10.1f} {len(figure):>7d}"
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--panels", type=int, default=12)
    ap.add_argument(
        "--cell", choices=sorted(CELLS), default="single",
        help="the workload whose fit cell the panels and whose Monte Carlo cell "
        "the replicates are drawn from",
    )
    ap.add_argument(
        "--replicates", type=int, default=0,
        help="Monte Carlo replicates to split into stages",
    )
    args = ap.parse_args(argv)

    if args.panels:
        print_kernels(args.seed, args.panels, args.cell)
    if args.replicates:
        print_split(replicate_split(args.seed, args.replicates, args.cell))
    return 0


if __name__ == "__main__":
    sys.exit(main())
