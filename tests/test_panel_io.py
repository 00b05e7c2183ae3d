import csv
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdrates import (
    BenchmarkCell,
    FitOptions,
    Panel,
    Rates,
    SimConfig,
    Trajectory,
    compare,
    fit,
    read_panel,
    read_results,
    run_benchmark,
    simulate_panel,
    write_benchmark_csv,
    write_benchmark_json,
    write_panel,
    write_results,
)
from bdrates.errors import DataError
from bdrates.panel_io import (
    BENCHMARK_SCHEMA,
    PANEL_SCHEMA,
    RESULT_SCHEMA,
    dumps_17g,
    error_to_dict,
    result_to_dict,
)

PANEL = Panel(
    (
        Trajectory((0.0, 0.1, 0.2, 0.3), (10, 12, 15, 11)),
        Trajectory((0.0, 0.17, 0.4), (3, 5, 0)),
        Trajectory((0.5, 1.0, 1.5, 2.0, 2.5), (7, 9, 14, 18, 21)),
    )
)

# equal spacing so every estimator, gw included, accepts it
PANEL_EQ = Panel(
    (
        Trajectory(tuple(0.1 * j for j in range(8)), (10, 12, 15, 11, 16, 19, 25, 28)),
        Trajectory(tuple(0.1 * j for j in range(6)), (6, 9, 8, 13, 12, 17)),
    )
)


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestPanelCsv:
    def test_round_trip(self, tmp_path):
        p = str(tmp_path / "panel.csv")
        write_panel(p, PANEL)
        assert read_panel(p) == PANEL

    def test_schema_comment_and_header_present(self, tmp_path):
        p = str(tmp_path / "panel.csv")
        write_panel(p, PANEL)
        lines = open(p).read().splitlines()
        assert lines[0] == f"# schema: {PANEL_SCHEMA}"
        assert lines[1] == "trajectory_id,time,count"

    def test_times_round_trip_bitwise(self, tmp_path):
        times = tuple(0.1 * (j + 1) for j in range(7))
        panel = Panel((Trajectory((0.0,) + times, tuple(range(4, 12))),))
        p = str(tmp_path / "panel.csv")
        write_panel(p, panel)
        back = read_panel(p)
        assert back[0].times == panel[0].times

    def test_custom_ids_round_trip(self, tmp_path):
        p = str(tmp_path / "panel.csv")
        write_panel(p, PANEL, ids=["a", "b", "c"])
        assert read_panel(p) == PANEL

    def test_duplicate_ids_rejected(self, tmp_path):
        p = str(tmp_path / "panel.csv")
        with pytest.raises(DataError, match="unique"):
            write_panel(p, PANEL, ids=["a", "a", "b"])

    def test_header_required(self, tmp_path):
        p = _write_lines(tmp_path / "bad.csv", ["traj,when,size", "a,0.0,3"])
        with pytest.raises(DataError, match="row 1.*expected header"):
            read_panel(p)

    def test_empty_file(self, tmp_path):
        p = _write_lines(tmp_path / "bad.csv", [""])
        with pytest.raises(DataError, match="no header"):
            read_panel(p)

    def test_header_only(self, tmp_path):
        p = _write_lines(tmp_path / "bad.csv", ["trajectory_id,time,count"])
        with pytest.raises(DataError, match="no data rows"):
            read_panel(p)

    def test_bad_time_names_row(self, tmp_path):
        p = _write_lines(
            tmp_path / "bad.csv",
            ["trajectory_id,time,count", "a,0.0,3", "a,xyz,4"],
        )
        with pytest.raises(DataError, match="row 3.*not a number"):
            read_panel(p)

    def test_fractional_count_names_row(self, tmp_path):
        p = _write_lines(
            tmp_path / "bad.csv",
            ["trajectory_id,time,count", "a,0.0,3.5"],
        )
        with pytest.raises(DataError, match="row 2.*not an integer"):
            read_panel(p)

    def test_negative_count_names_row(self, tmp_path):
        p = _write_lines(
            tmp_path / "bad.csv",
            ["trajectory_id,time,count", "a,0.0,-2"],
        )
        with pytest.raises(DataError, match="row 2.*nonnegative"):
            read_panel(p)

    def test_wrong_field_count_names_row(self, tmp_path):
        p = _write_lines(
            tmp_path / "bad.csv",
            ["trajectory_id,time,count", "a,0.0,3,extra"],
        )
        with pytest.raises(DataError, match="row 2.*3 fields"):
            read_panel(p)

    def test_duplicate_time_rejected(self, tmp_path):
        p = _write_lines(
            tmp_path / "bad.csv",
            ["trajectory_id,time,count", "a,0.0,3", "a,0.0,4"],
        )
        with pytest.raises(DataError, match="row 3.*duplicate time"):
            read_panel(p)

    def test_decreasing_time_rejected(self, tmp_path):
        p = _write_lines(
            tmp_path / "bad.csv",
            ["trajectory_id,time,count", "a,0.5,3", "a,0.2,4"],
        )
        with pytest.raises(DataError, match="row 3.*must increase"):
            read_panel(p)

    def test_split_group_rejected(self, tmp_path):
        p = _write_lines(
            tmp_path / "bad.csv",
            [
                "trajectory_id,time,count",
                "a,0.0,3",
                "a,0.1,4",
                "b,0.0,5",
                "b,0.1,6",
                "a,0.2,7",
            ],
        )
        with pytest.raises(DataError, match="row 6.*grouped"):
            read_panel(p)

    def test_trajectory_violation_names_id(self, tmp_path):
        # initial count zero is rejected by the trajectory itself
        p = _write_lines(
            tmp_path / "bad.csv",
            ["trajectory_id,time,count", "weird,0.0,0", "weird,0.1,2"],
        )
        with pytest.raises(DataError, match="'weird'.*row 2"):
            read_panel(p)

    def test_simulated_panel_round_trip(self, tmp_path):
        config = SimConfig(
            Rates(7.0, 5.0),
            z0=10,
            obs_times=tuple(0.1 * (j + 1) for j in range(9)),
            seed=77,
        )
        panel = simulate_panel(config, 4)
        p = str(tmp_path / "panel.csv")
        write_panel(p, panel)
        assert read_panel(p) == panel


class TestJson17g:
    @given(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(min_value=-(2**62), max_value=2**62)
    )
    def test_number_round_trip_exact(self, x):
        back = json.loads(dumps_17g(x))
        assert back == x
        if isinstance(x, float):
            assert math.copysign(1.0, back) == math.copysign(1.0, x)

    def test_nested_structure(self):
        doc = {"a": [1.5, None, True], "b": {"c": "text", "d": ()}}
        assert json.loads(dumps_17g(doc)) == {
            "a": [1.5, None, True],
            "b": {"c": "text", "d": []},
        }

    def test_non_finite_becomes_null(self):
        assert json.loads(dumps_17g([math.inf, -math.inf, math.nan])) == [
            None,
            None,
            None,
        ]

    def test_unserializable_raises(self):
        with pytest.raises(TypeError):
            dumps_17g(object())


class TestResultFiles:
    def test_single_result_round_trip(self, tmp_path):
        result = fit(PANEL_EQ, "gw")
        p = str(tmp_path / "res.json")
        write_results(p, result, seed=11)
        doc = read_results(p)
        assert doc["schema"] == RESULT_SCHEMA
        assert doc["method"] == "gw"
        assert doc["lambda"] == result.rates.lam
        assert doc["mu"] == result.rates.mu
        assert doc["omega"] == result.omega_hat
        assert doc["seed"] == 11
        assert doc["converged"] is True
        if result.cov is not None:
            for i in range(2):
                for j in range(2):
                    assert doc["cov"][i][j] == result.cov[i, j]

    def test_loglik_and_evals_recorded(self, tmp_path):
        panel = Panel((PANEL_EQ[0],))
        result = fit(panel, "spmle", FitOptions(seed=2))
        p = str(tmp_path / "res.json")
        write_results(p, result, seed=2)
        doc = read_results(p)
        assert doc["loglik"] == result.loglik
        assert doc["diagnostics"]["n_obj_evals"] == result.n_obj_evals
        assert doc["diagnostics"]["wall_time"] >= 0.0
        assert doc["diagnostics"]["n_runs"] == result.n_runs >= 1
        assert doc["diagnostics"]["newton_iterations"] == result.newton_iterations >= 0
        assert doc["diagnostics"]["rejected_probes"] == result.rejected_probes >= 0
        assert doc["diagnostics"]["continued"] is result.continued

    def test_newton_bookkeeping_recorded(self, tmp_path):
        # the exact likelihood's fit is the one that takes Newton steps
        result = fit(Panel((PANEL_EQ[0],)), "mle")
        p = str(tmp_path / "res.json")
        write_results(p, result)
        diag = read_results(p)["diagnostics"]
        assert diag["n_runs"] == result.n_runs == 1
        assert diag["newton_iterations"] == result.newton_iterations >= 1
        assert diag["rejected_probes"] == result.rejected_probes >= 0
        assert diag["continued"] is result.continued is False

    def test_battery_round_trip(self, tmp_path):
        rows = compare(PANEL_EQ, methods=["gw", "qg"], options=FitOptions(seed=4))
        p = str(tmp_path / "all.json")
        write_results(p, rows, seed=4)
        arr = read_results(p)
        assert [r["method"] for r in arr] == ["gw", "qg"]
        assert all(r["schema"] == RESULT_SCHEMA for r in arr)

    def test_error_rows_serialized(self, tmp_path):
        # unequal spacing: gw refuses, the battery keeps going
        panel = Panel((Trajectory((0.0, 0.1, 0.35), (5, 8, 9)),))
        rows = compare(panel, methods=["gw", "qg"], options=FitOptions(seed=4))
        p = str(tmp_path / "all.json")
        write_results(p, rows)
        arr = read_results(p)
        gw_row = arr[0]
        assert gw_row["method"] == "gw"
        assert gw_row["converged"] is False
        assert gw_row["lambda"] is None
        assert "error" in gw_row["diagnostics"]

    def test_error_to_dict_shape(self):
        doc = error_to_dict("mle", "boom", seed=3)
        assert doc["method"] == "mle"
        assert doc["diagnostics"]["error"] == "boom"
        assert doc["omega"] is None

    def test_result_to_dict_keys_fixed(self):
        result = fit(PANEL_EQ, "gw")
        keys = set(result_to_dict(result))
        assert keys == {
            "schema",
            "artifact_version",
            "method",
            "lambda",
            "mu",
            "omega",
            "se_lambda",
            "se_mu",
            "se_omega",
            "cov",
            "loglik",
            "converged",
            "diagnostics",
            "seed",
        }
        assert result_to_dict(result)["diagnostics"] == {
            "n_obj_evals": 0,
            "wall_time": result.wall_time,
            "n_runs": 0,
            "newton_iterations": 0,
            "rejected_probes": 0,
            "continued": False,
        }


@pytest.fixture(scope="module")
def reports():
    cell = BenchmarkCell(Rates(7.0, 5.0), z0=10, n_obs=5, m=1, dt=0.1)
    return run_benchmark(cell, ["gw", "qg"], n_replicates=4, seed=9)


class TestBenchmarkFiles:
    def test_json_document(self, tmp_path, reports):
        p = str(tmp_path / "b.json")
        write_benchmark_json(p, reports)
        doc = json.load(open(p))
        assert doc["schema"] == BENCHMARK_SCHEMA
        report = doc["reports"][0]
        assert report["cell"]["lambda"] == 7.0
        assert report["n_replicates"] == 4
        methods = [row["method"] for row in report["rows"]]
        assert methods == ["gw", "qg"]
        assert report["rows"][0]["rmse_lambda"] == reports[0].rows[0].rmse_lambda

    def test_csv_document(self, tmp_path, reports):
        p = str(tmp_path / "b.csv")
        write_benchmark_csv(p, reports)
        with open(p) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 2
        assert rows[0]["method"] == "gw"
        assert float(rows[0]["rmse_omega"]) == reports[0].rows[0].rmse_omega
        assert int(rows[1]["n_used"]) == reports[0].rows[1].n_used
