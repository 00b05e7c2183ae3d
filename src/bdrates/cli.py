"""Command line front-end.

Subcommands
-----------
simulate    draw trajectories from the exact process, write a panel CSV
estimate    fit rates to a panel CSV, write a JSON result file
pmf         tabulate exact vs saddlepoint transition probabilities as CSV
benchmark   Monte Carlo estimator comparison over a grid of scenarios

Exit codes: 0 success, 2 usage or parse failure or a file that cannot
be read or written, 3 resource cap exceeded, 4 estimator did not
converge.  benchmark opens its two outputs before the Monte Carlo run,
so an unwritable --out fails at once.  simulate and benchmark runs
without --seed draw one from the OS and record it in every output, so
any run can be replayed; estimate is deterministic and takes no seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import secrets
import sys
from typing import Optional

from . import __version__
from .errors import CapError, DataError, DomainError, SolverError
from .estimate import (
    METHODS,
    FitOptions,
    canonical_method,
    compare,
    fit,
    format_compare_table,
)
from .exact import log_transition_prob
from .panel_io import (
    PANEL_SCHEMA,
    cell_from_dict,
    dumps_json,
    read_panel,
    write_benchmark_csv,
    write_benchmark_json,
    write_panel,
    write_results,
)
from .saddlepoint import spa_pmf, spa_pmf_conditional, spa_pmf_normalized
from .simulate import BenchmarkCell, SimConfig, run_benchmark, simulate_panel_stats
from .types import Rates

_METHOD_CHOICES = [m.replace("_", "-") for m in METHODS] + ["all"]

PMF_NA = "NA"  # sentinel for exact-law columns past the cost cap


def _resolve_seed(seed: Optional[int]) -> int:
    """Missing seeds are drawn once and recorded, never left implicit."""
    if seed is not None:
        return seed
    drawn = secrets.randbits(32)
    print(f"note: no --seed given, using {drawn}", file=sys.stderr)
    return drawn


def _rates_from_args(args: argparse.Namespace) -> Rates:
    return Rates(args.lam, args.mu)


# ---------------------------------------------------------------------------
# simulate


def _parse_times(spec: str) -> tuple[float, ...]:
    try:
        times = tuple(float(tok) for tok in spec.split(",") if tok.strip())
    except ValueError:
        raise DataError(f"--times must be comma-separated numbers, got {spec!r}")
    if not times:
        raise DataError("--times is empty")
    return times


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if args.times is not None:
        obs_times = _parse_times(args.times)
    else:
        if args.dt is None or args.n_obs is None:
            raise DataError("either --times or both --dt and --n-obs are required")
        obs_times = tuple(args.dt * (j + 1) for j in range(args.n_obs))
    config = SimConfig(
        rates=_rates_from_args(args),
        z0=args.z0,
        obs_times=obs_times,
        condition_nonextinct=args.condition_nonextinct,
        seed=seed,
        max_events=args.max_events,
        max_pop=args.max_pop,
    )
    panel, rejections = simulate_panel_stats(config, args.replicates)
    write_panel(args.out, panel)
    meta = {
        "schema": PANEL_SCHEMA,
        "artifact_version": __version__,
        "lambda": config.rates.lam,
        "mu": config.rates.mu,
        "z0": config.z0,
        "obs_times": list(config.obs_times),
        "condition_nonextinct": config.condition_nonextinct,
        "replicates": args.replicates,
        "seed": seed,
        "rejected_paths": rejections,
    }
    with open(args.out + ".meta.json", "w") as fh:
        fh.write(dumps_json(meta) + "\n")
    print(
        f"wrote {len(panel)} trajectories x {len(obs_times)} observations "
        f"to {args.out} (seed {seed})"
    )
    return 0


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args: argparse.Namespace) -> int:
    panel = read_panel(args.input)
    options = FitOptions(max_count_cap=args.max_count_cap)
    if args.method == "all":
        rows = compare(panel, options=options)
        print(format_compare_table(rows))
        if args.out:
            write_results(args.out, rows)
        ok = any(r.result is not None and r.result.converged for r in rows)
        return 0 if ok else 4
    result = fit(panel, canonical_method(args.method), options)
    lam, mu = result.rates.lam, result.rates.mu
    se = (
        f"  se(lambda)={result.se_lambda:.4g}  se(mu)={result.se_mu:.4g}"
        if result.cov is not None
        else ""
    )
    print(
        f"{result.method}: lambda={lam:.10g}  mu={mu:.10g}  "
        f"omega={result.omega_hat:.10g}{se}"
    )
    if args.out:
        write_results(args.out, result)
    return 0 if result.converged else 4


# ---------------------------------------------------------------------------
# pmf


def cmd_pmf(args: argparse.Namespace) -> int:
    rates = _rates_from_args(args)
    if args.t <= 0 or not math.isfinite(args.t):
        raise DataError("--t must be positive and finite")
    if args.a < 1:
        raise DataError("--a must be a positive integer")
    if args.k_max < args.k_min or args.k_min < 0:
        raise DataError("need 0 <= --k-min <= --k-max")
    # summing the exact law costs ~min(k,a) terms per entry
    exact_cost = sum(
        min(k, args.a) + 1 for k in range(args.k_min, args.k_max + 1)
    )
    exact_ok = exact_cost <= args.exact_cap
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(
            [
                "k",
                "exact",
                "spa",
                "spa_normalized",
                "spa_conditional",
                "ratio_spa",
                "ratio_normalized",
                "ratio_conditional",
            ]
        )
        for k in range(args.k_min, args.k_max + 1):
            spa = spa_pmf(k, args.t, args.a, rates)
            norm = spa_pmf_normalized(k, args.t, args.a, rates)
            cond = spa_pmf_conditional(k, args.t, args.a, rates)
            if exact_ok:
                exact = math.exp(log_transition_prob(k, args.t, args.a, rates))
                ratios = [
                    format(v / exact, ".17g") if exact > 0 else PMF_NA
                    for v in (spa, norm, cond)
                ]
                exact_col = format(exact, ".17g")
            else:
                exact_col = PMF_NA
                ratios = [PMF_NA, PMF_NA, PMF_NA]
            writer.writerow(
                [
                    k,
                    exact_col,
                    format(spa, ".17g"),
                    format(norm, ".17g"),
                    format(cond, ".17g"),
                ]
                + ratios
            )
    finally:
        if out is not sys.stdout:
            out.close()
    if not exact_ok:
        print(
            f"note: exact column skipped ({exact_cost} terms > cap "
            f"{args.exact_cap}); raise --exact-cap to force it",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# benchmark


def _cells_from_config(path: str) -> list[BenchmarkCell]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read benchmark config {path!r}: {exc}")
    if not isinstance(doc, list) or not doc:
        raise DataError("benchmark config must be a non-empty JSON array of cells")
    cells = []
    for i, entry in enumerate(doc):
        try:
            cells.append(cell_from_dict(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"benchmark config cell {i}: {exc}")
    return cells


def cmd_benchmark(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if args.config:
        cells = _cells_from_config(args.config)
    else:
        required = [args.lam, args.mu, args.z0, args.n_obs, args.m, args.dt]
        if any(v is None for v in required):
            raise DataError(
                "either --config or all of --lambda --mu --z0 --n-obs --m --dt"
            )
        cells = [
            BenchmarkCell(
                rates=_rates_from_args(args),
                z0=args.z0,
                n_obs=args.n_obs,
                m=args.m,
                dt=args.dt,
            )
        ]
    methods = [canonical_method(tok) for tok in args.methods.split(",") if tok]
    if not methods:
        raise DataError("--methods is empty")
    for suffix in (".csv", ".json"):
        # an output that cannot be written fails now, not after the run;
        # appending creates the file but keeps what an earlier run wrote
        open(args.out + suffix, "a").close()
    reports = run_benchmark(
        cells, methods, n_replicates=args.replicates, seed=seed
    )
    write_benchmark_csv(args.out + ".csv", reports)
    write_benchmark_json(args.out + ".json", reports)
    for report in reports:
        cell = report.cell
        print(
            f"cell lambda={cell.rates.lam} mu={cell.rates.mu} z0={cell.z0} "
            f"n_obs={cell.n_obs} m={cell.m} dt={cell.dt}:"
        )
        for row in report.rows:
            print(
                f"  {row.method:<16s} rmse(lambda)={row.rmse_lambda:.4g} "
                f"rmse(mu)={row.rmse_mu:.4g} rmse(omega)={row.rmse_omega:.4g} "
                f"used={row.n_used} failed={row.n_failed}"
            )
    print(f"wrote {args.out}.csv and {args.out}.json (seed {seed})")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdrates",
        description="Birth and death rate estimation from population counts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate trajectories, write panel CSV")
    sim.add_argument("--lambda", dest="lam", type=float, required=True)
    sim.add_argument("--mu", type=float, required=True)
    sim.add_argument("--z0", type=int, default=1, help="initial population")
    sim.add_argument("--dt", type=float, help="equal spacing between observations")
    sim.add_argument("--n-obs", type=int, help="number of observations after time 0")
    sim.add_argument(
        "--times", type=str, help="comma-separated observation times (overrides --dt)"
    )
    sim.add_argument("--replicates", type=int, default=1, help="trajectories to draw")
    sim.add_argument(
        "--condition-nonextinct",
        action="store_true",
        help="redraw any path whose final observation is zero",
    )
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--max-events", type=int, default=10**7)
    sim.add_argument("--max-pop", type=int, default=10**6)
    sim.add_argument("--out", required=True, help="panel CSV path")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser(
        "estimate",
        help="fit rates to a panel CSV",
        description="Fit rates to a panel CSV.  The likelihood methods take "
        "damped Newton steps on their analytic derivatives; a Newton run "
        "that stalls is continued by one Nelder-Mead run.  The fit is "
        "deterministic, so estimate takes no seed.",
    )
    est.add_argument("--input", required=True, help="panel CSV path")
    est.add_argument(
        "--method", choices=_METHOD_CHOICES, default="spmle",
        help="estimator, or 'all' for the comparison battery",
    )
    est.add_argument("--out", help="result JSON path")
    est.add_argument(
        "--max-count-cap", type=int, default=10**5,
        help="largest count the exact likelihood will accept",
    )
    est.set_defaults(func=cmd_estimate)

    pmf = sub.add_parser(
        "pmf", help="tabulate exact and saddlepoint transition probabilities"
    )
    pmf.add_argument("--lambda", dest="lam", type=float, required=True)
    pmf.add_argument("--mu", type=float, required=True)
    pmf.add_argument("--t", type=float, required=True, help="elapsed time")
    pmf.add_argument("--a", type=int, required=True, help="initial population")
    pmf.add_argument("--k-min", type=int, default=0)
    pmf.add_argument("--k-max", type=int, required=True)
    pmf.add_argument(
        "--exact-cap", type=int, default=10**7,
        help="exact-law term budget; beyond it the exact column is NA",
    )
    pmf.add_argument("--out", help="CSV path (default stdout)")
    pmf.set_defaults(func=cmd_pmf)

    ben = sub.add_parser("benchmark", help="Monte Carlo estimator comparison")
    ben.add_argument("--config", help="JSON array of scenario cells")
    ben.add_argument("--lambda", dest="lam", type=float)
    ben.add_argument("--mu", type=float)
    ben.add_argument("--z0", type=int)
    ben.add_argument("--n-obs", type=int)
    ben.add_argument("--m", type=int, help="trajectories per panel")
    ben.add_argument("--dt", type=float)
    ben.add_argument(
        "--methods", default="gw,qg,spmle,spmle-adjusted,mle",
        help="comma-separated estimator names",
    )
    ben.add_argument("--replicates", type=int, default=100)
    ben.add_argument("--seed", type=int, default=None)
    ben.add_argument("--out", required=True, help="output path prefix")
    ben.set_defaults(func=cmd_benchmark)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
