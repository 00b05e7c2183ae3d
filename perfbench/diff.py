"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/diff.py BASE CHANGE

BASE and CHANGE are result files written by run.py
(``.perfbench_out/result_*.json``) or directories holding them. For every
workload and metric present on both sides, prints the base median, the
change median, their ratio change/base, each side's quartile spread as a
share of its median, and the number of runs behind each median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(arg: str) -> dict:
    """{(workload, trace): {metric: ([values], unit)}} from files or a directory."""
    path = Path(arg)
    files = sorted(path.glob("result_*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"diff: no result files in {arg}")
    out: dict = defaultdict(dict)
    for f in files:
        rec = json.loads(f.read_text())
        if not rec["result"]["correct"]:
            raise SystemExit(f"diff: {f} failed its correctness check")
        table = out[(rec["workload"], rec["trace"])]
        for name, m in rec["result"]["metrics"].items():
            table.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return out


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    base, change = load(args.base), load(args.change)
    print(f"{'workload':<14} {'metric':<46} {'base':>12} {'change':>12} "
          f"{'ratio':>7} {'spread b/c':>13} {'runs':>7}")
    for key in sorted(base.keys() & change.keys()):
        workload, trace = key
        label = workload + (" (trace)" if trace else "")
        for name, (bv, unit) in base[key].items():
            if name not in change[key]:
                continue
            cv = change[key][name][0]
            b, c = statistics.median(bv), statistics.median(cv)
            ratio = f"{c / b:7.3f}" if b else "      -"
            print(f"{label:<14} {name:<46} {b:>12.5g} {c:>12.5g} {ratio} "
                  f"{spread(bv):6.3f}/{spread(cv):<6.3f} {len(bv):>3}/{len(cv):<3} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
