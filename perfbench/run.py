"""Run one benchmark workload against the ``bdrates`` sources of this checkout.

    python3 perfbench/run.py --workload single_traj --seed 1 --seconds 45 --trace 0

A run sets up five times (a fresh-process import, seeded inputs, CSV
round-trip and warm-up; median reported), then spends the budget in one process on
rounds that each put the stratified panels through the method battery
and call ``run_benchmark`` once per replicate seed (see phases.py). Every
fit is checked by the correctness gate; a failed check ends the run with
``"correct": false`` and exit code 1.

With ``--trace 1`` the run makes one untraced round, replays the same work
with spans around every layer (see tracing.py) and reports the per-layer
metrics and the tracing overhead instead; it ignores ``--seconds``.

Human-readable figures go to stdout; the last stdout line is the JSON
result. Result files, spans and the round-tripped CSVs are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# one process, one thread: keep BLAS from starting a pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
_clock = time.perf_counter


def import_program() -> float:
    """Import bdrates from this checkout's src/; returns the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = _clock()
    try:
        import bdrates
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import bdrates from {src}: {exc}")
    took = _clock() - t0
    if src not in Path(bdrates.__file__).resolve().parents:
        raise SystemExit(f"perfbench: bdrates was imported from {bdrates.__file__}, not {src}")
    return took


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    import_s = import_program()
    import phases
    from reference import GateError

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    bench = phases.Bench(workload, args.seed, OUT / f"panels_{tag}")
    setup = None
    try:
        setup = bench.set_up()
        if args.trace:
            metrics, report = bench.traced(OUT / f"spans_{tag}.jsonl")
        else:
            metrics, report = bench.untraced(args.seconds, setup)
        correct = True
    except GateError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        metrics, report, correct = {}, {"gate": str(exc)}, False

    units = {n: u for n, u, *_ in (PER_LAYER if args.trace else END_TO_END)}
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "import_s": import_s, "setup_s": setup,
        **metadata(), "report": report, "result": result,
    }
    (OUT / f"result_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for key, val in report.items():
        if key == "samples":
            continue
        print(f"  {key}: {val}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
