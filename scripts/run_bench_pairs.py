"""Alternating benchmark pairs of a parent and a change checkout.

For each workload and seed, runs

    python3 perfbench/run.py --workload W --seed S

once in each checkout, one run at a time: the parent first on odd seeds,
the change first on even seeds. A run's last stdout line is its JSON
result. The output file holds, for each workload and end-to-end metric of
the change checkout's BENCHMARK.json, each side's median, quartiles
(statistics.quantiles with n=4, as perfbench/diff.py takes them), their
spread q3 - q1, min, max, runs and values; the ratio of the medians; the
pairs (same seed) in which the change reads better; and the change's
spread over the bound times the parent's median. Each workload's "runs"
entry sums correct, attempted and failed operations per side. The host,
the versions and both checkouts' git commits go with them: the
--parent-sha and --change-sha given, or else git's HEAD in each checkout,
which a git archive copy has not ("unknown").

    python3 scripts/run_bench_pairs.py --parent ../parent --change ../change \\
        --parent-sha PARENT_COMMIT --change-sha CHANGE_COMMIT \\
        --seeds 401-410 --out BENCH_14.json --claim "what the change claims"

Each run takes the benchmark's run_seconds (45) plus about ten seconds of
set-up, so ten seeds of both workloads take about 40 minutes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'401-410' or '1,3,5' as a list of seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The JSON result of one perfbench run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"no output from {' '.join(cmd)} in {checkout}:\n{out.stderr}")
    return json.loads(lines[-1])


def git_sha(checkout: Path, given: str = "") -> str:
    """The commit given for checkout, or else git's HEAD there."""
    if given:
        return given
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": q3 - q1,
        "min": min(values),
        "max": max(values),
        "runs": len(values),
        "values": values,
    }


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric's entry from the paired runs (index = seed)."""
    lower = metric["better"] == "lower"
    p, c = summary(parent), summary(change)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "ratio_change_over_parent": c["median"] / p["median"],
        "change_wins": wins,
        "change_spread_over_bound": c["spread"] / (metric["bound"] * p["median"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--claim", default="")
    ap.add_argument("--note", default="")
    ap.add_argument("--parent-sha", default="", help="the parent's commit, for one without .git")
    ap.add_argument("--change-sha", default="", help="the change's commit, for one without .git")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}

    results = {w: {"parent": [], "change": []} for w in workloads}
    for seed in args.seeds:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for w in workloads:
            for side in order:
                res = run_once(sides[side], w, seed)
                if not res["correct"]:
                    raise SystemExit(f"{w} seed {seed} failed its correctness gate in {sides[side]}")
                results[w][side].append(res)
                print(f"{w} seed {seed} {side}: correct {res['correct']}", flush=True)

    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    report = {
        "what": "end-to-end medians of alternating parent/change pairs of perfbench/run.py",
        "claim": args.claim,
        "command": "python3 perfbench/run.py --workload W --seed S",
        "seeds": args.seeds,
        "order": "parent first on odd seeds, change first on even seeds",
        "seconds_per_run": spec["run_seconds"],
        "spread": "q3 - q1 of the runs, in the metric's unit",
        "change_spread_over_bound": "the change's spread over the bound times the parent's median",
        "wins": "pairs (same seed) in which the change reads better",
        "note": args.note,
        "host": f"{nproc}-CPU {platform.machine()} host, one run at a time",
        "parent_git_sha": git_sha(args.parent, args.parent_sha),
        "change_git_sha": git_sha(args.change, args.change_sha),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workloads": {},
    }
    for w in workloads:
        table = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in results[w]["parent"]]
            change = [r["metrics"][name]["value"] for r in results[w]["change"]]
            table[name] = compare(metric, parent, change)
        table["runs"] = {
            side: {
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
            }
            for side, runs in results[w].items()
        }
        report["workloads"][w] = table
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for w, table in report["workloads"].items():
        for name, m in table.items():
            if name != "runs":
                print(
                    f"{w:<14} {name:<22} ratio {m['ratio_change_over_parent']:.3f} "
                    f"wins {m['change_wins']}/{len(args.seeds)}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
