"""Fit equivalence of two trees on one fixed panel set.

A change that should leave the estimates alone is checked by fitting the
same panels with every method in both trees and comparing the fits. The
panel set is

- the census panels of scripts/run_continuation_census.py, seed 1
  (600 panels; --census-seeds adds more seeds);
- the panels of tests/test_exact_table.py and tests/test_table_consumers.py;
- perfbench's stratified fit panels of both workloads, seeds 1-6.

The fits mode writes the fits of the bdrates on PYTHONPATH as JSON: per
panel and method the rates, loglik, cov, evaluation and probe counts,
converged and continued flags, the typed error if fit raised one, every
RuntimeWarning that escaped, and the wall time; and, at the fitted rates,
the exact log-likelihood and the smallest log(1 - beta) over the panel's
gaps. Run it once per tree, with that tree's src first on PYTHONPATH:

    PYTHONPATH=../parent/src python scripts/run_fit_equivalence.py fits --out parent.json \
        --sha PARENT_COMMIT
    PYTHONPATH=src python scripts/run_fit_equivalence.py fits --out change.json

Each file records the commit of the fitted tree: the --sha given, or else
git's HEAD there, which a git archive copy has not ("unknown").

The compare mode reads two such files and prints, per method, the fits
that are bit-identical; the largest loglik move among well-conditioned
fits (at the parent: not continued, at most 60 evaluations, with a cov),
relative to max(1, |loglik|), and each one past TOL; every other fit
whose loglik moved past TOL, marking those that end lower, and giving
for those that end higher the exact log-likelihood at both rates, marked
SUSPECT where the change's rates put some gap's 1 - beta below the float
epsilon (beta rounds to 1, where the plain saddlepoint can score a lane
far above the exact law, so the rise may be a spurious optimum);
every change of error or warning; and the wall time of both sides per
panel source (census seed, test module, perfbench):

    python scripts/run_fit_equivalence.py compare parent.json change.json

With the default set and all six methods, one tree takes about two
minutes on a 2-CPU host, plus about a minute per added census seed.
"""

import argparse
import importlib.util
import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import bdrates
from bdrates import BdError, exact_loglik, fit
from bdrates.exact import geom_params

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("gw", "qg", "spmle", "spmle_adjusted", "mle", "mv_spmle")
CENSUS_PANELS = 600
PERFBENCH_SEEDS = range(1, 7)
# fits the parent ran cleanly and briefly, whose loglik must hold to TOL
# relative to max(1, |loglik|)
MAX_WELL_EVALS = 60
TOL = 1e-8
# below this log(1 - beta), beta rounds to 1
LOG_EPS = math.log(sys.float_info.epsilon)
FIELDS = ("lam", "mu", "loglik", "cov", "evals", "newton", "rejected", "converged", "continued")


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
    from inputs import stratified_panels
    from spec import WORKLOADS

    for name, w in WORKLOADS.items():
        for seed in PERFBENCH_SEEDS:
            panels = stratified_panels(w.fit_cell, seed, w.n_panels, w.pool_panels)
            out += [(f"perfbench:{name}:{seed}:{i}", p) for i, p in enumerate(panels)]
    return out


def fit_record(panel, method: str) -> dict:
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
        for method in METHODS:
            records.append({"panel": label, "method": method, **fit_record(panel, method)})
    # the commit of the tree whose bdrates was fitted, not of this script's
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
    }
    Path(args.out).write_text(json.dumps(out, indent=1))
    print(f"{len(records)} fits written to {args.out}")
    return 0


def _num(value) -> str:
    return "n/a" if value is None else f"{value:.10g}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a))


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
            {"fits": 0, "identical": 0, "well": 0, "worst_well": 0.0, "well_moved": [],
             "moved": [], "errors": [], "warnings": [], "seconds": {}},
        )
        s["fits"] += 1
        wall = s["seconds"].setdefault(p["panel"].split(":")[0], [0.0, 0.0])
        wall[0] += p["seconds"]
        wall[1] += c["seconds"]
        key = f"{p['method']} on {p['panel']}"
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
        if p["loglik"] is None:
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
        elif move > TOL:
            if c["loglik"] < p["loglik"]:
                line += " LOWER"
            else:
                line += f"; exact {_num(p.get('exact'))} -> {_num(c.get('exact'))}"
                if c.get("log1m_beta", 0.0) < LOG_EPS:
                    line += " SUSPECT"
            s["moved"].append(line)
    return out


def compare_main(args) -> int:
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    try:
        summary = compare(parent, change)
    except ValueError as exc:
        print(f"cannot compare {args.parent} with {args.change}: {exc}", file=sys.stderr)
        return 2
    print(f"parent {parent['git_sha']}, change {change['git_sha']}, tol {TOL:g}")
    for method, s in summary.items():
        print(
            f"{method}: {s['fits']} fits, {s['identical']} bit-identical, "
            f"{s['well']} well-conditioned (worst move {s['worst_well']:.2g}), "
            f"{len(s['errors'])} error changes, {len(s['warnings'])} with warnings"
        )
        walls = ", ".join(f"{src} {p:.1f} -> {c:.1f}" for src, (p, c) in s["seconds"].items())
        print(f"  seconds: {walls}")
        for kind in ("well_moved", "moved", "errors", "warnings"):
            for line in s[kind]:
                print(f"  {kind}: {line}")
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
