"""Fit equivalence of two trees on one fixed panel set.

A change that should leave the estimates alone is checked by fitting the
same panels with every method in both trees and comparing the fits. The
panel set is

- the census panels of scripts/run_continuation_census.py, seed 1
  (600 panels; --census-seeds adds more seeds);
- the panels of tests/test_exact_table.py and tests/test_table_consumers.py;
- four near-critical panels of fixed counts (NEAR_CRITICAL), whose
  summed targets over summed sources is within 1e-6 of 1 but not 1;
- perfbench's stratified fit panels of both workloads, seeds 1-6.

The fits mode writes the fits of the bdrates on PYTHONPATH as JSON: per
panel and method a sha256 of the panel's times and counts (the test
panels are drawn by the tree's own sampler), the rates, loglik, cov,
evaluation and probe counts,
converged and continued flags, the typed error if fit raised one, every
RuntimeWarning that escaped, and the wall time; and, at the fitted rates,
the exact log-likelihood and the smallest log(1 - beta) over the panel's
gaps. Run it once per tree, with that tree's src first on PYTHONPATH:

    PYTHONPATH=../parent/src python scripts/run_fit_equivalence.py fits --out parent.json \
        --sha PARENT_COMMIT
    PYTHONPATH=src python scripts/run_fit_equivalence.py fits --out change.json

Each file records the commit of the fitted tree: the --sha given, or else
git's HEAD there, which a git archive copy has not ("unknown").

Each file also pins the tree's seeded random stream, so that a sampler
change cannot move seeded results silently. On perfbench's two Monte
Carlo cells and the four cells of scripts/run_benchmark_grid.py, all
conditioned on survival, and on one unconditioned cell (UNCONDITIONED,
the cell of the Wald coverage test in tests/test_mc_properties.py) it
records one sha256 per (cell, seed), seeds 1-20, of the trajectories and
rejection counts that simulate_panel_stats draws (or of the CapError it
raises); and for each of the six benchmark cells the rows of one seeded
run_benchmark report (gw and spmle, BENCH_REPLICATES replicates, seed
BENCH_SEED), less the wall time, plus one report of LONG_REPLICATES
replicates on perfbench's single_traj Monte Carlo cell. Its samples are
longer than numpy's 128-element pairwise-summation block, so a change in
the order in which the harness sums them shows.

The compare mode reads two such files and prints, per method, the fits
that are bit-identical; the fits on panels whose digests differ
(redrawn by a changed sampler, so not moved by a changed fit), which it
lists apart and compares no further; the largest loglik move among well-conditioned
fits (at the parent: not continued, at most 60 evaluations, with a cov),
relative to max(1, |loglik|), and each one past TOL; the largest rate
move among them in units of the fit's own SE (the larger of |d lam| /
SE(lam) and |d mu| / SE(mu), from the parent's cov), and each one past
SE_TOL, since on the lam ~ mu ridge the value tolerance fixes the rates
only to about 1e-4 relative, a small share of their SE; every other fit
whose loglik moved past TOL or is reported on one side only (n/a),
marking those that end lower, and giving for those that end higher the
exact log-likelihood at both rates, marked SUSPECT where the change's
rates put some gap's 1 - beta below the float epsilon (beta rounds to 1,
where the plain saddlepoint can score a lane far above the exact law, so
the rise may be a spurious optimum);
every change of error or warning; the wall time of both sides per
panel source (census seed, test module, nearcrit, perfbench); and every
stream case (cell and seed) and benchmark row (cell and method) that
differs or is recorded on one side only:

    python scripts/run_fit_equivalence.py compare parent.json change.json

compare reads the two files alone, so it needs no bdrates on the path.

With the default set and all six methods, one tree takes about two
minutes on a 2-CPU host, plus about a minute per added census seed.
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("gw", "qg", "spmle", "spmle_adjusted", "mle", "mv_spmle")
CENSUS_PANELS = 600
PERFBENCH_SEEDS = range(1, 7)
# fits the parent ran cleanly and briefly, whose loglik must hold to TOL
# relative to max(1, |loglik|)
MAX_WELL_EVALS = 60
TOL = 1e-8
# and whose rates must hold to SE_TOL of their own standard errors
SE_TOL = 1e-3
# below this log(1 - beta), beta rounds to 1
LOG_EPS = math.log(sys.float_info.epsilon)
FIELDS = ("lam", "mu", "loglik", "cov", "evals", "newton", "rejected", "converged", "continued")
# the seeded stream's cases: simulate_panel_stats seeds per cell, and the
# seeded run_benchmark report per cell
STREAM_SEEDS = range(1, 21)
BENCH_METHODS = ("gw", "spmle")
BENCH_REPLICATES = 20
BENCH_SEED = 20261020
LONG_REPLICATES = 300
# the one unconditioned stream cell: (lam, mu, z0, observation times, m)
UNCONDITIONED = (7.0, 5.0, 5, (0.1, 0.25, 0.4, 0.6), 50)


# Panels near lam == mu, from fixed counts so that both trees fit the same
# ones. Each has |sum dst / sum src - 1| of 9.2e-7 to 1e-6: 1 or 2
# individuals over 1.1 to 2 million sources. The first holds one
# population near 10^6, above the exact likelihood's count cap, and
# little variation, so its fits land at |omega|/xi near 2e-6. The others
# stay below the cap, and their counts swing by thousands, so their fits
# land at |omega|/xi near 1e-8. The third has unequal gaps.
def near_critical() -> dict:
    """{name: Panel} of the near-critical panels."""
    from bdrates.types import Panel, Trajectory

    return {
        "gw_band": Panel(
            (
                Trajectory((0, 1, 2), (1000000, 1000001, 999999)),
                Trajectory((0, 1, 2), (5, 7, 4)),
            )
        ),
        "equal_up": Panel(
            (
                Trajectory((0, 0.5, 1, 1.5), (90000, 91102, 89194, 91270)),
                Trajectory((0, 0.5, 1, 1.5), (86000, 84937, 87451, 89107)),
                Trajectory((0, 0.5, 1, 1.5), (93000, 96720, 95613, 90674)),
                Trajectory((0, 0.5, 1, 1.5), (88000, 89341, 92896, 85950)),
            )
        ),
        "unequal_down": Panel(
            (
                Trajectory((0, 0.5, 1.5, 2, 3), (91000, 87237, 90121, 89935, 92291)),
                Trajectory((0, 1, 1.5, 2.5, 3), (87000, 90727, 88767, 90083, 86507)),
                Trajectory((0, 0.5, 1, 2, 2.5), (89000, 92380, 89664, 86591, 88201)),
            )
        ),
        "single_down": Panel(
            (
                Trajectory(
                    tuple(0.25 * i for i in range(13)),
                    (90000, 90842, 89861, 89980, 91434, 89269, 90970, 90012, 87119, 90108, 88883, 89226, 89999),
                ),
            )
        ),
    }


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def panel_set(census_seeds) -> list[tuple[str, object]]:
    """(label, panel) pairs of the fixed set, in a fixed order."""
    for sub in ("tests", "perfbench"):
        if str(ROOT / sub) not in sys.path:
            sys.path.insert(0, str(ROOT / sub))
    census = _load(ROOT / "scripts" / "run_continuation_census.py", "run_continuation_census")
    out = []
    for seed in census_seeds:
        out += [(f"census{seed}:{i}", p) for i, p in enumerate(census.draw_panels(seed, CENSUS_PANELS))]
    for module in ("test_exact_table", "test_table_consumers"):
        panels = _load(ROOT / "tests" / f"{module}.py", module).PANELS
        out += [(f"{module}:{name}", panels[name]) for name in sorted(panels)]
    out += [(f"nearcrit:{name}", panel) for name, panel in near_critical().items()]
    from inputs import stratified_panels
    from spec import WORKLOADS

    for name, w in WORKLOADS.items():
        for seed in PERFBENCH_SEEDS:
            panels = stratified_panels(w.fit_cell, seed, w.n_panels, w.pool_panels)
            out += [(f"perfbench:{name}:{seed}:{i}", p) for i, p in enumerate(panels)]
    return out


def bench_cells() -> dict:
    """{name: BenchmarkCell}: perfbench's Monte Carlo cells, then the grid
    script's cells."""
    from spec import WORKLOADS

    from bdrates import BenchmarkCell, Rates

    grid = _load(ROOT / "scripts" / "run_benchmark_grid.py", "run_benchmark_grid").GRID
    cells = {}
    for name, workload in WORKLOADS.items():
        c = workload.mc_cell
        cells[f"mc_{name}"] = BenchmarkCell(Rates(c.lam, c.mu), c.z0, c.n_obs, c.m, c.dt)
    cells.update((f"grid_z0={c.z0},m={c.m}", c) for c in grid)
    return cells


def stream_cells() -> dict:
    """{name: (SimConfig, m)}: the benchmark cells, then UNCONDITIONED."""
    from bdrates import Rates
    from bdrates.simulate import SimConfig

    cells = {
        name: (SimConfig(c.rates, c.z0, c.obs_times(), c.condition_nonextinct), c.m)
        for name, c in bench_cells().items()
    }
    lam, mu, z0, times, m = UNCONDITIONED
    cells[f"unconditioned_z0={z0},m={m}"] = (SimConfig(Rates(lam, mu), z0, times), m)
    return cells


def stream_digest(config, m: int, seed: int) -> str:
    """sha256 of the m trajectories and rejections simulate_panel_stats
    draws for config from seed, or of the CapError it raises."""
    from bdrates import CapError
    from bdrates.simulate import simulate_panel_stats

    try:
        panel, rejections = simulate_panel_stats(dataclasses.replace(config, seed=seed), m)
        drawn = [[[tr.times, tr.counts] for tr in panel], rejections]
    except CapError as exc:
        drawn = f"CapError: {exc}"
    return hashlib.sha256(json.dumps(drawn).encode()).hexdigest()


def benchmark_rows(cell, n_replicates: int) -> dict:
    """{method: row} of the seeded run_benchmark report of cell, each row
    without its wall time, as run_benchmark's equality reads them."""
    from bdrates import run_benchmark

    (report,) = run_benchmark(cell, BENCH_METHODS, n_replicates, BENCH_SEED)
    rows = {}
    for row in report.rows:
        rec = dataclasses.asdict(row)
        del rec["mean_wall_time"]
        rows[row.method] = rec
    return rows


def panel_digest(panel) -> str:
    """sha256 of a panel's times and counts."""
    drawn = [[tr.times, tr.counts] for tr in panel]
    return hashlib.sha256(json.dumps(drawn).encode()).hexdigest()


def fit_record(panel, method: str) -> dict:
    from bdrates import BdError, exact_loglik, fit
    from bdrates.exact import geom_params

    rec = {"error": None}
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            res = fit(panel, method)
        except BdError as exc:
            res, rec["error"] = None, f"{type(exc).__name__}: {exc}"
    rec["seconds"] = time.perf_counter() - t0
    rec["warnings"] = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if res is not None:
        rec.update(
            lam=res.rates.lam,
            mu=res.rates.mu,
            loglik=res.loglik,
            cov=None if res.cov is None else res.cov.tolist(),
            evals=res.n_obj_evals,
            newton=res.newton_iterations,
            rejected=res.rejected_probes,
            converged=res.converged,
            continued=res.continued,
            log1m_beta=min(
                (geom_params(grp.tau, res.rates).log1m_beta for grp in panel.transitions.groups),
                default=0.0,
            ),
        )
        try:
            rec["exact"] = exact_loglik(panel, res.rates)
        except BdError:
            rec["exact"] = None
    return rec


def fits(args) -> int:
    seeds = sorted({1} | {int(s) for s in args.census_seeds.split(",") if s.strip()})
    records = []
    for label, panel in panel_set(seeds):
        digest = panel_digest(panel)
        for method in METHODS:
            records.append(
                {"panel": label, "method": method, "digest": digest, **fit_record(panel, method)}
            )
    streams, bench = {}, {}
    for name, (config, m) in stream_cells().items():
        for seed in STREAM_SEEDS:
            streams[f"{name}:{seed}"] = stream_digest(config, m, seed)
    cells = bench_cells()
    for name, cell in cells.items():
        for method, row in benchmark_rows(cell, BENCH_REPLICATES).items():
            bench[f"{name}:{method}"] = row
    for method, row in benchmark_rows(cells["mc_single_traj"], LONG_REPLICATES).items():
        bench[f"mc_single_traj_x{LONG_REPLICATES}:{method}"] = row
    # the commit of the tree whose bdrates was fitted, not of this script's
    import bdrates

    src = Path(bdrates.__file__).resolve().parent
    sha = args.sha
    if not sha:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, capture_output=True, text=True)
        sha = git.stdout.strip() or "unknown"
    out = {
        "git_sha": sha,
        "bdrates": str(src),
        "census_seeds": seeds,
        "fits": records,
        "streams": streams,
        "benchmark": bench,
    }
    Path(args.out).write_text(json.dumps(out, indent=1))
    print(
        f"{len(records)} fits, {len(streams)} stream digests and {len(bench)} "
        f"benchmark rows written to {args.out}"
    )
    return 0


def _num(value) -> str:
    return "n/a" if value is None else f"{value:.10g}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a))


def _se_move(p: dict, c: dict) -> float:
    """The larger rate move from p to c in units of p's standard errors."""
    moves = []
    for i, name in enumerate(("lam", "mu")):
        move, var = abs(c[name] - p[name]), p["cov"][i][i]
        moves.append(move / math.sqrt(var) if var > 0.0 else (math.inf if move else 0.0))
    return max(moves)


def compare(parent: dict, change: dict) -> dict:
    """Per-method summary of the change's fits against the parent's,
    which must cover the same (panel, method) pairs."""
    theirs = {(r["panel"], r["method"]): r for r in change["fits"]}
    ours = {(r["panel"], r["method"]) for r in parent["fits"]}
    if ours != set(theirs):
        missing = sorted(ours ^ set(theirs))
        raise ValueError(
            f"the files fit different (panel, method) pairs, {len(missing)} in one only, "
            f"e.g. {missing[0]}; write both with the same --census-seeds"
        )
    out = {}
    for p in parent["fits"]:
        c = theirs[p["panel"], p["method"]]
        s = out.setdefault(
            p["method"],
            {"fits": 0, "identical": 0, "redrawn": [], "well": 0, "worst_well": 0.0,
             "well_moved": [], "worst_se": 0.0, "se_moved": [], "moved": [], "errors": [],
             "warnings": [], "seconds": {}},
        )
        s["fits"] += 1
        wall = s["seconds"].setdefault(p["panel"].split(":")[0], [0.0, 0.0])
        wall[0] += p["seconds"]
        wall[1] += c["seconds"]
        key = f"{p['method']} on {p['panel']}"
        if p.get("digest") != c.get("digest"):
            s["redrawn"].append(key)
            continue
        if p["warnings"] or c["warnings"]:
            s["warnings"].append(f"{key}: {p['warnings']} -> {c['warnings']}")
        if p["error"] != c["error"]:
            s["errors"].append(f"{key}: {p['error']} -> {c['error']}")
            continue
        if p["error"] is not None:
            s["identical"] += 1
            continue
        if all(p[f] == c[f] for f in FIELDS):
            s["identical"] += 1
        if p["loglik"] is None or c["loglik"] is None:
            if p["loglik"] != c["loglik"]:
                s["moved"].append(f"{key}: {_num(p['loglik'])} -> {_num(c['loglik'])}")
            continue
        move = _rel(p["loglik"], c["loglik"])
        line = (
            f"{key}: {p['loglik']:.10g} ({p['evals']}{', continued' if p['continued'] else ''})"
            f" -> {c['loglik']:.10g} ({c['evals']}{', continued' if c['continued'] else ''})"
        )
        if not p["continued"] and p["evals"] <= MAX_WELL_EVALS and p["cov"] is not None:
            s["well"] += 1
            s["worst_well"] = max(s["worst_well"], move)
            if move > TOL:
                s["well_moved"].append(line)
            se_move = _se_move(p, c)
            s["worst_se"] = max(s["worst_se"], se_move)
            if se_move > SE_TOL:
                s["se_moved"].append(
                    f"{key}: ({_num(p['lam'])}, {_num(p['mu'])}) -> "
                    f"({_num(c['lam'])}, {_num(c['mu'])}), {se_move:.2g} SE"
                )
        elif move > TOL:
            if c["loglik"] < p["loglik"]:
                line += " LOWER"
            else:
                line += f"; exact {_num(p.get('exact'))} -> {_num(c.get('exact'))}"
                if c.get("log1m_beta", 0.0) < LOG_EPS:
                    line += " SUSPECT"
            s["moved"].append(line)
    return out


def differing(parent: dict, change: dict, key: str) -> list[str]:
    """The cases of parent[key] and change[key] (stream digests or
    benchmark rows) that differ, or that one file lacks, in order."""
    ours, theirs = parent.get(key, {}), change.get(key, {})
    # rows are compared as JSON text, so that a NaN equals itself
    return [
        case
        for case in {**ours, **theirs}
        if json.dumps(ours.get(case), sort_keys=True) != json.dumps(theirs.get(case), sort_keys=True)
    ]


def compare_main(args) -> int:
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    try:
        summary = compare(parent, change)
    except ValueError as exc:
        print(f"cannot compare {args.parent} with {args.change}: {exc}", file=sys.stderr)
        return 2
    print(
        f"parent {parent['git_sha']}, change {change['git_sha']}, tol {TOL:g}, "
        f"se tol {SE_TOL:g}"
    )
    for method, s in summary.items():
        print(
            f"{method}: {s['fits']} fits, {s['identical']} bit-identical, "
            f"{len(s['redrawn'])} on redrawn panels, "
            f"{s['well']} well-conditioned (worst move {s['worst_well']:.2g}, "
            f"worst rate move {s['worst_se']:.2g} SE), "
            f"{len(s['errors'])} error changes, {len(s['warnings'])} with warnings"
        )
        walls = ", ".join(f"{src} {p:.1f} -> {c:.1f}" for src, (p, c) in s["seconds"].items())
        print(f"  seconds: {walls}")
        for kind in ("redrawn", "well_moved", "se_moved", "moved", "errors", "warnings"):
            for line in s[kind]:
                print(f"  {kind}: {line}")
    for key, what in (("streams", "stream cases"), ("benchmark", "benchmark rows")):
        cases = differing(parent, change, key)
        n = len({**parent.get(key, {}), **change.get(key, {})})
        print(f"{key}: {n} {what}, {n - len(cases)} identical")
        for case in cases:
            print(f"  differs: {case}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    f = sub.add_parser("fits", help="write this tree's fits as JSON")
    f.add_argument("--out", required=True)
    f.add_argument("--census-seeds", default="", help="census seeds beyond seed 1, e.g. 2,3")
    f.add_argument("--sha", default="", help="the commit of the fitted tree, for one without .git")
    c = sub.add_parser("compare", help="compare two fits files")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args(argv)
    return fits(args) if args.mode == "fits" else compare_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
