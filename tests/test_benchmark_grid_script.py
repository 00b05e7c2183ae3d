import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_script_writes_reports_and_prints_table3(tmp_path, capsys):
    grid = _load("run_benchmark_grid")
    prefix = str(tmp_path / "grid")
    assert grid.main(["--replicates", "2", "--prefix", prefix]) == 0
    assert (tmp_path / "grid.csv").read_text().strip()
    reports = json.loads((tmp_path / "grid.json").read_text())["reports"]
    assert len(reports) == len(grid.GRID)
    err = capsys.readouterr().err
    gw_lines = [line for line in err.splitlines() if line.strip().startswith("gw:")]
    for z0 in (1, 10):
        target = grid.TABLE3_GW_RMSE_LAMBDA[z0]
        assert sum(f"paper Table 3: {target}" in line for line in gw_lines) == 1
    assert sum("paper Table 3" in line for line in err.splitlines()) == 2


def test_accuracy_curve_script_prints_one_row_per_ancestor_count(capsys):
    curve = _load("run_accuracy_curve")
    assert curve.main(["--ancestors", "5,10"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [5, 10]
    # the plain approximation's worst relative error shrinks as a grows
    assert float(rows[1][1]) < float(rows[0][1])
