"""File formats: panel CSV, result JSON, benchmark reports.

Panels travel as plain CSV with a mandatory `trajectory_id,time,count`
header, rows grouped by trajectory and time-sorted within each group;
parse failures point at the offending row number.  Results and
benchmark reports are JSON with every float written to 17 significant
digits so a read-back reproduces the doubles bit for bit.  Every file
carries a schema tag and the package version.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from typing import Optional, Sequence

from . import __version__
from .errors import DataError
from .estimate import CompareRow, EstimateResult
from .simulate import BenchmarkReport
from .types import Panel, Trajectory

__all__ = [
    "PANEL_SCHEMA",
    "RESULT_SCHEMA",
    "BENCHMARK_SCHEMA",
    "write_panel",
    "read_panel",
    "dumps_17g",
    "result_to_dict",
    "error_to_dict",
    "write_results",
    "read_results",
    "write_benchmark_json",
    "write_benchmark_csv",
]

PANEL_SCHEMA = "bdrates-panel-v1"
RESULT_SCHEMA = "bdrates-result-v1"
BENCHMARK_SCHEMA = "bdrates-benchmark-v2"

_HEADER = ["trajectory_id", "time", "count"]


# ---------------------------------------------------------------------------
# panel CSV


def write_panel(path: str, panel: Panel, ids: Optional[Sequence[str]] = None) -> None:
    """Write a panel as CSV; a `# schema:` comment precedes the header."""
    if ids is None:
        ids = [f"traj{j}" for j in range(len(panel))]
    if len(ids) != len(panel) or len(set(ids)) != len(panel):
        raise DataError("ids must be unique, one per trajectory")
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {PANEL_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for tid, tr in zip(ids, panel):
            for t, c in zip(tr.times, tr.counts):
                writer.writerow([tid, format(float(t), ".17g"), int(c)])


def read_panel(path: str) -> Panel:
    """Parse a panel CSV; failures name the 1-based file row."""
    groups: dict[str, list[tuple[float, int]]] = {}
    order: list[str] = []
    first_row: dict[str, int] = {}
    closed: set[str] = set()
    header_seen = False
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].startswith("#")):
                continue
            if not header_seen:
                if [c.strip() for c in row] != _HEADER:
                    raise DataError(
                        f"row {lineno}: expected header "
                        f"'{','.join(_HEADER)}', got '{','.join(row)}'"
                    )
                header_seen = True
                continue
            if len(row) != 3:
                raise DataError(f"row {lineno}: expected 3 fields, got {len(row)}")
            tid = row[0].strip()
            if not tid:
                raise DataError(f"row {lineno}: empty trajectory_id")
            try:
                t = float(row[1])
            except ValueError:
                raise DataError(f"row {lineno}: time {row[1]!r} is not a number")
            if not math.isfinite(t):
                raise DataError(f"row {lineno}: time must be finite")
            try:
                c = int(row[2])
            except ValueError:
                raise DataError(
                    f"row {lineno}: count {row[2]!r} is not an integer"
                )
            if c < 0:
                raise DataError(f"row {lineno}: count must be nonnegative")
            if tid in closed:
                raise DataError(
                    f"row {lineno}: trajectory {tid!r} reappears after other "
                    f"rows; rows must be grouped by trajectory_id"
                )
            if tid not in groups:
                for other in order:
                    if other != tid:
                        closed.add(other)
                groups[tid] = []
                order.append(tid)
                first_row[tid] = lineno
            prev = groups[tid]
            if prev:
                if t == prev[-1][0]:
                    raise DataError(
                        f"row {lineno}: duplicate time {row[1]} for "
                        f"trajectory {tid!r}"
                    )
                if t < prev[-1][0]:
                    raise DataError(
                        f"row {lineno}: times must increase within "
                        f"trajectory {tid!r}"
                    )
            prev.append((t, c))
    if not header_seen:
        raise DataError("file has no header row")
    if not groups:
        raise DataError("file has a header but no data rows")
    trajectories = []
    for tid in order:
        rows = groups[tid]
        try:
            trajectories.append(
                Trajectory(tuple(t for t, _ in rows), tuple(c for _, c in rows))
            )
        except (DataError, ValueError) as exc:
            raise DataError(
                f"trajectory {tid!r} (starting row {first_row[tid]}): {exc}"
            ) from exc
    return Panel(tuple(trajectories))


# ---------------------------------------------------------------------------
# JSON with 17-significant-digit floats


def dumps_17g(obj, _indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits (lossless read-back).

    Non-finite floats become null; tuples serialize as arrays.
    """
    pad = "  " * _indent
    inner = "  " * (_indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        text = format(obj, ".17g")
        # keep the token a float so a read-back preserves type and the
        # sign of -0.0
        if not any(ch in text for ch in ".eE"):
            text += ".0"
        return text
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{inner}{json.dumps(str(k))}: {dumps_17g(v, _indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{dumps_17g(v, _indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# result files


def result_to_dict(result: EstimateResult, seed: Optional[int] = None) -> dict:
    cov = None
    if result.cov is not None:
        cov = [[float(result.cov[i, j]) for j in range(2)] for i in range(2)]
    return {
        "schema": RESULT_SCHEMA,
        "artifact_version": __version__,
        "method": result.method,
        "lambda": result.rates.lam,
        "mu": result.rates.mu,
        "omega": result.omega_hat,
        "se_lambda": result.se_lambda,
        "se_mu": result.se_mu,
        "se_omega": result.se_omega,
        "cov": cov,
        "loglik": result.loglik,
        "converged": result.converged,
        "diagnostics": {
            "n_obj_evals": result.n_obj_evals,
            "wall_time": result.wall_time,
            "n_runs": result.n_runs,
            "newton_iterations": result.newton_iterations,
            "rejected_probes": result.rejected_probes,
            "continued": result.continued,
        },
        "seed": seed,
    }


def error_to_dict(method: str, message: str, seed: Optional[int] = None) -> dict:
    return {
        "schema": RESULT_SCHEMA,
        "artifact_version": __version__,
        "method": method,
        "lambda": None,
        "mu": None,
        "omega": None,
        "se_lambda": None,
        "se_mu": None,
        "se_omega": None,
        "cov": None,
        "loglik": None,
        "converged": False,
        "diagnostics": {"error": message},
        "seed": seed,
    }


def write_results(
    path: str, rows: Sequence[CompareRow] | EstimateResult, seed: Optional[int] = None
) -> None:
    """Single result -> one JSON object; a compare battery -> an array."""
    if isinstance(rows, EstimateResult):
        doc = result_to_dict(rows, seed)
    else:
        doc = [
            result_to_dict(r.result, seed)
            if r.result is not None
            else error_to_dict(r.method, r.error, seed)
            for r in rows
        ]
    with open(path, "w") as fh:
        fh.write(dumps_17g(doc) + "\n")


def read_results(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# benchmark reports


def _report_to_dict(report: BenchmarkReport) -> dict:
    cell = report.cell
    return {
        "cell": {
            "lambda": cell.rates.lam,
            "mu": cell.rates.mu,
            "z0": cell.z0,
            "n_obs": cell.n_obs,
            "m": cell.m,
            "dt": cell.dt,
            "condition_nonextinct": cell.condition_nonextinct,
        },
        "n_replicates": report.n_replicates,
        "seed": report.seed,
        "rows": [asdict(row) for row in report.rows],
    }


def write_benchmark_json(path: str, reports: Sequence[BenchmarkReport]) -> None:
    doc = {
        "schema": BENCHMARK_SCHEMA,
        "artifact_version": __version__,
        "reports": [_report_to_dict(r) for r in reports],
    }
    with open(path, "w") as fh:
        fh.write(dumps_17g(doc) + "\n")


_BENCH_COLUMNS = [
    "lambda", "mu", "z0", "n_obs", "m", "dt", "method",
    "n_used", "n_failed", "n_nonconverged",
    "bias_lambda", "sd_lambda", "rmse_lambda",
    "bias_mu", "sd_mu", "rmse_mu",
    "bias_omega", "sd_omega", "rmse_omega",
    "mean_obj_evals", "mean_wall_time",
]


def write_benchmark_csv(path: str, reports: Sequence[BenchmarkReport]) -> None:
    """One row per (cell, method); floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {BENCHMARK_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(_BENCH_COLUMNS)
        for report in reports:
            cell = report.cell
            for row in report.rows:
                stats = asdict(row)
                record = [
                    format(cell.rates.lam, ".17g"),
                    format(cell.rates.mu, ".17g"),
                    cell.z0,
                    cell.n_obs,
                    cell.m,
                    format(cell.dt, ".17g"),
                    row.method,
                ]
                for col in _BENCH_COLUMNS[7:]:
                    val = stats[col]
                    record.append(
                        format(val, ".17g") if isinstance(val, float) else val
                    )
                writer.writerow(record)
