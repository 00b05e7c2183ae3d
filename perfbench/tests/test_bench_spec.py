"""BENCHMARK.json against the spec module and the benchmark contract."""

import importlib.util
import json
import re
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.spec_text()


def test_spec_keeps_the_contract_limits():
    s = spec.spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(s["workloads"]) <= 8
    assert 1 <= len(s["end_to_end"]) <= 16 and 1 <= len(s["per_layer"]) <= 128
    names = [m["name"] for m in s["workloads"] + s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in s["workloads"])
    for m in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())  # the largest, ties allowed
    assert 1 <= s["run_seconds"] <= 60
    # a full comparison makes 4 + 22 runs per workload, each with set-up and
    # process start, in at most 3420 s
    assert (4 + 22 * len(s["workloads"])) * (s["run_seconds"] + 15) < 3420


def test_mc_cells_are_the_grid_cells():
    path = ROOT / "scripts" / "run_benchmark_grid.py"
    mod_spec = importlib.util.spec_from_file_location("run_benchmark_grid", path)
    grid = importlib.util.module_from_spec(mod_spec)
    mod_spec.loader.exec_module(grid)
    cells = {
        (c.rates.lam, c.rates.mu, c.z0, c.n_obs, c.m, c.dt) for c in grid.GRID
    }
    for w in spec.WORKLOADS.values():
        c = w.mc_cell
        assert (c.lam, c.mu, c.z0, c.n_obs, c.m, c.dt) in cells
