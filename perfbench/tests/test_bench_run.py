"""The command the benchmark is run by, end to end on a short budget."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from phases import schedule, tail_percentile
from spec import END_TO_END

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_schedule_spreads_quick_methods_around_slow_ones():
    order = schedule()
    assert order.count("gw") == 24 and order.count("qg") == 6 and order.count("spmle") == 3
    assert order.count("spmle_adjusted") == order.count("mle") == 1
    assert order.index("spmle_adjusted") < order.index("mle")
    assert order[-1] == "spmle"


def test_tail_percentile_leaves_ten_values_beyond():
    assert tail_percentile(list(range(20))) is None
    p, v = tail_percentile([float(i) for i in range(100)])
    assert v == 89.0 and p == 90.0


@pytest.fixture(scope="module")
def short_run():
    proc = _run(ROOT, "--workload", "single_traj", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    return proc


def test_last_line_is_the_result(short_run):
    result = json.loads(short_run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, *_ in END_TO_END]
    for name, unit, *_ in END_TO_END:
        m = result["metrics"][name]
        assert set(m) == {"value", "unit"} and m["unit"] == unit and m["value"] > 0


def test_diff_reads_result_files(short_run):
    f = ROOT / ".perfbench_out" / "result_single_traj_seed3_trace0.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/diff.py", str(f), str(f)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fit_s.mle" in proc.stdout and "1.000" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "single_traj", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "cannot import bdrates" in proc.stderr and proc.stdout == ""
