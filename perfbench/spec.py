"""What the benchmark runs and reports: workloads, cells and metric lists.

This module is the single source of ``BENCHMARK.json``; it imports
nothing from ``bdrates`` so the spec can be written and checked without
the package. Run it to rewrite the file:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

RUN_SECONDS = 45

# The battery every fit workload puts each panel through: compare()'s
# default battery. The joint-path route (mv_spmle) is opt-in there and
# fails at its start point on most single-trajectory panels, so it runs
# only in the traced run, on a fixed capped subset.
BATTERY = ("gw", "qg", "spmle", "spmle_adjusted", "mle")
LIKELIHOOD_METHODS = ("spmle", "spmle_adjusted", "mle", "mv_spmle")
MC_METHODS = ("gw", "spmle")

SETUP_REPEATS = 5


@dataclass(frozen=True)
class Cell:
    """Panel shape and true rates, as in ``bdrates.BenchmarkCell``."""

    lam: float
    mu: float
    z0: int
    n_obs: int
    m: int
    dt: float

    def obs_times(self) -> tuple[float, ...]:
        # the same float grid as BenchmarkCell.obs_times(), after t=0
        return tuple(self.dt * (j + 1) for j in range(self.n_obs))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fit_cell: Cell  # panels drawn by the benchmark's own sampler
    mc_cell: Cell  # run_benchmark cell, simulated by the program
    n_panels: int  # stratified panels every round fits
    pool_panels: int  # candidate panels the strata are cut from
    mv_subset: int  # panels the traced run fits with mv_spmle
    mc_replicates: int  # replicate seeds each round runs run_benchmark on


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="single_traj",
            why=(
                "paper's single-trajectory panels: small counts, so per-evaluation "
                "overhead and evaluation counts dominate; MC phase on the grid's "
                "z0=1 cell hardly simulates"
            ),
            fit_cell=Cell(7.0, 6.0, z0=1, n_obs=14, m=1, dt=0.2),
            mc_cell=Cell(7.0, 6.0, z0=1, n_obs=14, m=1, dt=0.2),
            # a round: ~6 s of fits, ~2 s of replicates; about five per run
            n_panels=3,
            pool_panels=4096,
            mv_subset=2,
            mc_replicates=10,
        ),
        Workload(
            name="pooled_growth",
            why=(
                "pooled 80-transition panels, counts to ~1.6k: the exact and "
                "conditional saddlepoint kernels dominate; MC phase on the grid's "
                "pooled cell, 40% simulation"
            ),
            # m=4 rather than 10 trajectories: a 10-trajectory battery takes
            # ~16 s, too long to repeat enough times in a run to steady it
            fit_cell=Cell(7.0, 5.0, z0=10, n_obs=20, m=4, dt=0.1),
            mc_cell=Cell(7.0, 5.0, z0=10, n_obs=30, m=20, dt=0.1),
            # a round: ~9 s of fits, ~4 s of replicates; about three per run
            n_panels=1,
            pool_panels=1024,
            mv_subset=0,
            mc_replicates=6,
        ),
    )
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("fit_s.gw", "s", "lower", 0.25),
    ("fit_s.qg", "s", "lower", 0.25),
    ("fit_s.spmle", "s", "lower", 0.25),
    ("fit_s.spmle_adjusted", "s", "lower", 0.25),
    ("fit_s.mle", "s", "lower", 0.25),
    ("battery_panels_per_s", "1/s", "higher", 0.25),
    ("replicates_per_s", "1/s", "higher", 0.25),
]

# (name, unit); every layer is a module of src/bdrates
PER_LAYER = (
    [
        ("estimate.fit.self_s", "s"),
        ("estimate.fit.fail_ratio", "ratio"),
        ("estimate.fit.mv_spmle.s", "s"),
        ("estimate.fit.mv_spmle.failed", "count"),
        ("estimate.initial_rates.s", "s"),
        ("estimate.numeric_hessian_se.s", "s"),
        ("estimate.numeric_hessian_se.cov_none", "count"),
        ("optimize.maximize_2d.self_s", "s"),
    ]
    + [(f"optimize.maximize_2d.{kind}.{m}", "count")
       for kind in ("evals", "rejected", "runs") for m in LIKELIHOOD_METHODS]
    + [(f"optimize.eval_s.{m}", "s") for m in LIKELIHOOD_METHODS]
    + [
        ("exact.exact_loglik.s_per_call", "s"),
        ("exact.exact_loglik.ns_per_transition", "ns"),
        ("exact.geom_params.calls_per_eval", "count"),
        ("saddlepoint.spa_loglik.plain.s_per_call", "s"),
        ("saddlepoint.spa_loglik.conditional.s_per_call", "s"),
        ("multivariate.mv_loglik.s_per_call", "s"),
        ("multivariate.mv_loglik.errors.DomainError", "count"),
        ("multivariate.mv_loglik.errors.SolverError", "count"),
        ("multivariate.mv_loglik.errors.other", "count"),
        ("gaussian.qg_fit.s", "s"),
        ("gaussian.qg_fit.profile_iterations", "count"),
        ("gw.gw_estimate.s", "s"),
        ("simulate.simulate_panel.s_per_panel", "s"),
        ("simulate.simulate_panel.share", "ratio"),
        ("simulate.rejected_paths_per_panel", "count"),
        ("simulate.fit.share", "ratio"),
        ("panel_io.read_panel.s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unmeasured", "count"),
    ]
)


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        # every per-layer figure is a cost, a failure or a waste count
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


def spec_text() -> str:
    return json.dumps(spec(), indent=2) + "\n"


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(spec_text())
    print(f"wrote {out}", file=sys.stderr)
