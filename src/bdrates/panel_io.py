"""File formats: panel CSV, result JSON, benchmark reports.

Panels travel as plain CSV with a mandatory `trajectory_id,time,count`
header, rows grouped by trajectory and time-sorted within each group;
parse failures point at the offending row number.  Results and
benchmark reports are JSON whose floats take their shortest round-trip
form, so a read-back reproduces the doubles bit for bit.  Every file
carries a schema tag and the package version.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, fields
from typing import Optional, Sequence

from . import __version__
from .errors import DataError
from .estimate import CompareRow, EstimateResult
from .simulate import BenchmarkCell, BenchmarkReport, MethodStats
from .types import Panel, Rates, Trajectory

__all__ = [
    "PANEL_SCHEMA",
    "RESULT_SCHEMA",
    "BENCHMARK_SCHEMA",
    "write_panel",
    "read_panel",
    "dumps_json",
    "result_to_dict",
    "error_to_dict",
    "write_results",
    "read_results",
    "cell_to_dict",
    "cell_from_dict",
    "write_benchmark_json",
    "write_benchmark_csv",
]

PANEL_SCHEMA = "bdrates-panel-v1"
RESULT_SCHEMA = "bdrates-result-v2"
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {PANEL_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for tid, tr in zip(ids, panel):
            for t, c in zip(tr.times, tr.counts):
                writer.writerow([tid, format(float(t), ".17g"), int(c)])


def _csv_rows(fh, path: str):
    """(1-based row number, fields) of each row of the CSV text fh reads
    from path, refusing bytes that are not UTF-8 with a DataError."""
    try:
        yield from enumerate(csv.reader(fh), start=1)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path!r} is not UTF-8 text: {exc.reason}") from exc


def read_panel(path: str) -> Panel:
    """Parse a panel CSV; failures name the 1-based file row."""
    groups: dict[str, list[tuple[float, int]]] = {}
    first_row: dict[str, int] = {}
    current = None
    header_seen = False
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in _csv_rows(fh, path):
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
            if tid != current:
                if tid in groups:
                    raise DataError(
                        f"row {lineno}: trajectory {tid!r} reappears after other "
                        f"rows; rows must be grouped by trajectory_id"
                    )
                groups[tid] = []
                first_row[tid] = lineno
                current = tid
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
    for tid, rows in groups.items():
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
# JSON


def _finite_or_none(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj


def dumps_json(obj) -> str:
    """JSON text indented by 2, with non-finite floats as null and tuples
    as arrays. Floats take Python's shortest repr, which reads back to
    the same double."""
    return json.dumps(_finite_or_none(obj), indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# result files


def result_to_dict(result: EstimateResult) -> dict:
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
            "newton_iterations": result.newton_iterations,
            "rejected_probes": result.rejected_probes,
            "continued": result.continued,
        },
    }


def error_to_dict(method: str, message: str) -> dict:
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
    }


def write_results(path: str, rows: Sequence[CompareRow] | EstimateResult) -> None:
    """Single result -> one JSON object; a compare battery -> an array."""
    if isinstance(rows, EstimateResult):
        doc = result_to_dict(rows)
    else:
        doc = [
            result_to_dict(r.result)
            if r.result is not None
            else error_to_dict(r.method, r.error)
            for r in rows
        ]
    with open(path, "w") as fh:
        fh.write(dumps_json(doc) + "\n")


def read_results(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# benchmark reports


def cell_to_dict(cell: BenchmarkCell) -> dict:
    """A benchmark cell as report files and ``bdrates benchmark --config``
    spell it: its rates as lambda and mu, then its other fields."""
    spelled = asdict(cell)
    rates = spelled.pop("rates")
    return {"lambda": rates["lam"], "mu": rates["mu"], **spelled}


def _integral(value):
    """An integral float, such as 2.0, as its int; any other value as is."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def cell_from_dict(entry: dict) -> BenchmarkCell:
    """The cell that cell_to_dict spells as entry, conditioned on survival
    where entry does not say.  BenchmarkCell refuses a size that is not an
    integer, and condition_nonextinct must be a bool: DataError, naming
    it, otherwise."""
    condition = entry.get("condition_nonextinct", True)
    if not isinstance(condition, bool):
        raise DataError(f"condition_nonextinct must be true or false, got {condition!r}")
    return BenchmarkCell(
        rates=Rates(float(entry["lambda"]), float(entry["mu"])),
        z0=_integral(entry["z0"]),
        n_obs=_integral(entry["n_obs"]),
        m=_integral(entry["m"]),
        dt=float(entry["dt"]),
        condition_nonextinct=condition,
    )


def _report_to_dict(report: BenchmarkReport) -> dict:
    return {
        "cell": cell_to_dict(report.cell),
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
        fh.write(dumps_json(doc) + "\n")


# the cell's keys that the CSV carries: all but condition_nonextinct
_CSV_CELL_KEYS = ("lambda", "mu", "z0", "n_obs", "m", "dt")


def write_benchmark_csv(path: str, reports: Sequence[BenchmarkReport]) -> None:
    """One row per (cell, method): the cell, then the MethodStats fields;
    floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {BENCHMARK_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow([*_CSV_CELL_KEYS, *(f.name for f in fields(MethodStats))])
        for report in reports:
            cell = cell_to_dict(report.cell)
            for row in report.rows:
                values = [*(cell[key] for key in _CSV_CELL_KEYS), *asdict(row).values()]
                writer.writerow(
                    [format(v, ".17g") if isinstance(v, float) else v for v in values]
                )
