"""Monte-Carlo comparison of the moment and saddlepoint estimators.

Runs the headline benchmark grid: single-trajectory and 20-trajectory
panels at two growth regimes, crossed with small and moderate starting
counts. For every cell, each estimator is fit to the same simulated
panels and the bias / sd / rmse of lambda-hat, mu-hat and omega-hat are
aggregated. Results land in <prefix>.csv and <prefix>.json.

Each row also prints the method's mean objective evaluations and fit
time per replicate. Cost grows linearly with --replicates and is set by
the fits, not by simulation (a few ms per panel): on a 2-CPU host
(Python 3.11, numpy 2.4) --replicates 100 --methods gw,spmle,mle took
32 s, 15 s of them in the m=20, z0=10 cell, whose mle fits take 0.098 s
each (about 5 evaluations) and spmle fits 0.044 s (about 143).
"""

import argparse
import sys
import time

from bdrates import BenchmarkCell, Rates, run_benchmark
from bdrates.panel_io import write_benchmark_csv, write_benchmark_json

GRID = [
    # single-trajectory cells: slow growth (omega=1) observed over ~3 time
    # units at dt=0.2; small z0 makes the moment estimator's variance
    # inversion wild, which is the regime the comparison is about
    BenchmarkCell(rates=Rates(7.0, 6.0), z0=1, n_obs=14, m=1, dt=0.2),
    BenchmarkCell(rates=Rates(7.0, 6.0), z0=10, n_obs=14, m=1, dt=0.2),
    # 20-trajectory cells: faster growth (omega=2) on a finer grid, where
    # pooling across trajectories pushes both estimators near their floor
    BenchmarkCell(rates=Rates(7.0, 5.0), z0=1, n_obs=30, m=20, dt=0.1),
    BenchmarkCell(rates=Rates(7.0, 5.0), z0=10, n_obs=30, m=20, dt=0.1),
]

# The paper's Table 3: RMSE of the moment estimator's lambda-hat on one
# trajectory with lambda=7, mu=6, by starting count z0. Printed next to
# the gw rows of the matching single-trajectory cells.
TABLE3_GW_RMSE_LAMBDA = {1: 5.03, 5: 3.38, 10: 2.82, 20: 2.68, 50: 2.56}


def _table3_reference(cell: BenchmarkCell, method: str) -> str:
    if method != "gw" or cell.m != 1 or cell.rates != Rates(7.0, 6.0):
        return ""
    target = TABLE3_GW_RMSE_LAMBDA.get(cell.z0)
    return "" if target is None else f"  (paper Table 3: {target})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--replicates", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=20260817)
    ap.add_argument("--methods", default="gw,spmle")
    ap.add_argument("--prefix", default="benchmark_grid")
    args = ap.parse_args(argv)

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    reports = []
    for i, cell in enumerate(GRID):
        t0 = time.perf_counter()
        rep = run_benchmark(cell, methods, args.replicates, args.seed)[0]
        took = time.perf_counter() - t0
        reports.append(rep)
        print(
            f"cell {i}: m={cell.m} z0={cell.z0} "
            f"lambda={cell.rates.lam} mu={cell.rates.mu}  ({took:.1f}s)",
            file=sys.stderr,
        )
        for row in rep.rows:
            print(
                f"  {row.method:>6}: rmse(lambda)={row.rmse_lambda:.4g} "
                f"rmse(omega)={row.rmse_omega:.4g} "
                f"used={row.n_used} failed={row.n_failed} "
                f"evals={row.mean_obj_evals:.4g} fit={row.mean_wall_time:.3g}s"
                f"{_table3_reference(cell, row.method)}",
                file=sys.stderr,
            )

    write_benchmark_csv(args.prefix + ".csv", reports)
    write_benchmark_json(args.prefix + ".json", reports)
    print(f"wrote {args.prefix}.csv and {args.prefix}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
