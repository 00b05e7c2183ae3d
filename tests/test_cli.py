import csv
import json

import pytest

from bdrates import Panel, Trajectory, read_panel, write_panel
from bdrates.cli import main
from bdrates.errors import SolverError


def run(argv):
    return main(argv)


@pytest.fixture()
def panel_csv(tmp_path):
    """A grown equally spaced panel every estimator accepts."""
    p = str(tmp_path / "panel.csv")
    code = run(
        [
            "simulate",
            "--lambda", "7", "--mu", "5", "--z0", "10",
            "--dt", "0.1", "--n-obs", "10",
            "--replicates", "2",
            "--condition-nonextinct",
            "--seed", "42",
            "--out", p,
        ]
    )
    assert code == 0
    return p


class TestSimulate:
    def test_writes_panel_and_metadata(self, tmp_path):
        p = str(tmp_path / "panel.csv")
        code = run(
            [
                "simulate",
                "--lambda", "2", "--mu", "1", "--z0", "5",
                "--dt", "0.2", "--n-obs", "6",
                "--replicates", "3", "--seed", "7",
                "--out", p,
            ]
        )
        assert code == 0
        panel = read_panel(p)
        assert len(panel) == 3
        assert panel[0].counts[0] == 5
        assert panel[0].times == (0.0,) + tuple(0.2 * (j + 1) for j in range(6))
        meta = json.load(open(p + ".meta.json"))
        assert meta["seed"] == 7
        assert meta["lambda"] == 2.0
        assert meta["rejected_paths"] == [0, 0, 0]

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        args = [
            "simulate", "--lambda", "7", "--mu", "5", "--z0", "4",
            "--dt", "0.1", "--n-obs", "8", "--replicates", "2",
            "--seed", "99",
        ]
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        assert run(args + ["--out", p1]) == 0
        assert run(args + ["--out", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_explicit_times(self, tmp_path):
        p = str(tmp_path / "panel.csv")
        code = run(
            [
                "simulate", "--lambda", "1", "--mu", "0.5", "--z0", "3",
                "--times", "0.1,0.3,0.9", "--seed", "1", "--out", p,
            ]
        )
        assert code == 0
        assert read_panel(p)[0].times == (0.0, 0.1, 0.3, 0.9)

    def test_missing_spacing_is_usage_error(self, tmp_path, capsys):
        code = run(
            [
                "simulate", "--lambda", "1", "--mu", "0.5",
                "--seed", "1", "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 2
        assert "--dt" in capsys.readouterr().err

    def test_event_cap_exit_3(self, tmp_path, capsys):
        code = run(
            [
                "simulate", "--lambda", "50", "--mu", "1", "--z0", "100",
                "--dt", "1.0", "--n-obs", "5", "--seed", "1",
                "--max-events", "50",
                "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_auto_seed_recorded(self, tmp_path, capsys):
        p = str(tmp_path / "panel.csv")
        code = run(
            [
                "simulate", "--lambda", "1", "--mu", "0.5", "--z0", "3",
                "--dt", "0.1", "--n-obs", "4", "--out", p,
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "no --seed" in err
        assert isinstance(json.load(open(p + ".meta.json"))["seed"], int)

    def test_argparse_usage_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--lambda", "1", "--out", "x.csv"])
        assert exc.value.code == 2


class TestEstimate:
    def test_single_method_result_file(self, panel_csv, tmp_path):
        out = str(tmp_path / "res.json")
        code = run(
            [
                "estimate", "--input", panel_csv,
                "--method", "spmle", "--out", out,
            ]
        )
        assert code == 0
        doc = json.load(open(out))
        assert doc["method"] == "spmle"
        assert doc["converged"] is True
        assert doc["omega"] == doc["lambda"] - doc["mu"]
        # a fit is deterministic, so the result records no seed
        assert "seed" not in doc

    @pytest.mark.parametrize("flag", ["--seed", "--restarts"])
    def test_estimate_takes_no_seed_or_restarts(self, panel_csv, flag):
        with pytest.raises(SystemExit) as exc:
            run(["estimate", "--input", panel_csv, flag, "1"])
        assert exc.value.code == 2

    def test_hyphenated_method_name(self, panel_csv, tmp_path):
        out = str(tmp_path / "res.json")
        code = run(
            [
                "estimate", "--input", panel_csv,
                "--method", "spmle-adjusted", "--out", out,
            ]
        )
        assert code == 0
        assert json.load(open(out))["method"] == "spmle_adjusted"

    def test_all_methods_battery(self, panel_csv, tmp_path, capsys):
        out = str(tmp_path / "all.json")
        code = run(
            [
                "estimate", "--input", panel_csv,
                "--method", "all", "--out", out,
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        arr = json.load(open(out))
        methods = [r["method"] for r in arr]
        assert methods == ["gw", "qg", "spmle", "spmle_adjusted", "mle"]
        for name in methods:
            assert name in table

    def test_battery_table_shows_search_bookkeeping(self, panel_csv, tmp_path, capsys):
        out = str(tmp_path / "all.json")
        code = run(
            [
                "estimate", "--input", panel_csv,
                "--method", "all", "--out", out,
            ]
        )
        assert code == 0
        header, _, *lines = capsys.readouterr().out.splitlines()
        columns = header.split()
        assert columns[columns.index("evals") + 1] == "rejected"
        table = {line.split()[0]: dict(zip(columns, line.split())) for line in lines}
        for record in json.load(open(out)):
            row, diag = table[record["method"]], record["diagnostics"]
            assert int(row["evals"]) == diag["n_obj_evals"]
            assert int(row["rejected"]) == diag["rejected_probes"]
        # the moment estimators do not search
        assert table["gw"]["rejected"] == table["qg"]["rejected"] == "0"

    def test_battery_survives_single_method_failure(self, tmp_path):
        # unequal spacing: gw refuses, everything else still reports
        panel = Panel(
            (Trajectory((0.0, 0.1, 0.35, 0.5, 0.9), (20, 26, 31, 28, 45)),)
        )
        p = str(tmp_path / "panel.csv")
        write_panel(p, panel)
        out = str(tmp_path / "all.json")
        code = run(
            ["estimate", "--input", p, "--method", "all", "--out", out]
        )
        assert code == 0
        arr = json.load(open(out))
        gw_row = next(r for r in arr if r["method"] == "gw")
        assert gw_row["converged"] is False
        assert "error" in gw_row["diagnostics"]
        assert sum(r["converged"] for r in arr) >= 3

    def test_gw_spacing_violation_exit_2_names_alternative(
        self, tmp_path, capsys
    ):
        panel = Panel(
            (Trajectory((0.0, 0.1, 0.35, 0.5, 0.9), (20, 26, 31, 28, 45)),)
        )
        p = str(tmp_path / "panel.csv")
        write_panel(p, panel)
        code = run(["estimate", "--input", p, "--method", "gw"])
        assert code == 2
        assert "quasi-likelihood" in capsys.readouterr().err

    def test_malformed_csv_exit_2_names_row(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("trajectory_id,time,count\na,0.0,3\na,oops,4\n")
        code = run(["estimate", "--input", str(p), "--method", "gw"])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_count_cap_exit_3(self, panel_csv, capsys):
        code = run(
            [
                "estimate", "--input", panel_csv, "--method", "mle",
                "--max-count-cap", "3",
            ]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_battery_on_collapsing_panel_exits_0_or_4(self, tmp_path, capsys):
        # the old saddlepoint fallback raised a bare ValueError on this panel
        p = str(tmp_path / "panel.csv")
        write_panel(p, Panel((Trajectory((0.0, 0.2, 3.4), (25, 1, 1)),)))
        code = run(["estimate", "--input", p, "--method", "all"])
        assert code in (0, 4)
        assert "Traceback" not in capsys.readouterr().err

    def test_solver_failure_exit_4(self, panel_csv, monkeypatch):
        import bdrates.cli as cli_mod

        def boom(*args, **kwargs):
            raise SolverError("no maximum found")

        monkeypatch.setattr(cli_mod, "fit", boom)
        code = run(["estimate", "--input", panel_csv, "--method", "spmle"])
        assert code == 4

    def test_estimate_deterministic_apart_from_wall_time(
        self, panel_csv, tmp_path
    ):
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        for out in (out1, out2):
            assert run(
                ["estimate", "--input", panel_csv, "--method", "spmle",
                 "--out", out]
            ) == 0
        d1, d2 = json.load(open(out1)), json.load(open(out2))
        d1["diagnostics"].pop("wall_time")
        d2["diagnostics"].pop("wall_time")
        assert d1 == d2


class TestPmf:
    def test_table_columns_and_zero_row(self, tmp_path):
        out = str(tmp_path / "pmf.csv")
        code = run(
            ["pmf", "--lambda", "7", "--mu", "5", "--t", "1", "--a", "10",
             "--k-max", "12", "--out", out]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 13
        first = rows[0]
        assert first["k"] == "0"
        # the point mass at zero is carried over exactly
        assert first["exact"] == first["spa"] == first["spa_conditional"]
        assert float(first["ratio_spa"]) == 1.0
        total = sum(float(r["exact"]) for r in rows)
        assert 0 < total < 1.000001

    def test_ratio_columns_consistent(self, tmp_path):
        out = str(tmp_path / "pmf.csv")
        run(
            ["pmf", "--lambda", "7", "--mu", "5", "--t", "1", "--a", "20",
             "--k-min", "10", "--k-max", "40", "--out", out]
        )
        for row in csv.DictReader(open(out)):
            exact = float(row["exact"])
            assert float(row["ratio_spa"]) == pytest.approx(
                float(row["spa"]) / exact, rel=1e-12
            )

    def test_root_in_guard_band_exit_4(self, capsys):
        # alpha rounds to 1 at these rates: K' at the guard band's edge is
        # 1.2e-17, so no saddlepoint for k = 2 exists below it
        code = run(
            ["pmf", "--lambda", "0.00047968440257367326", "--mu", "12.210102965056127",
             "--t", "8.279897916191494", "--a", "4", "--k-min", "2", "--k-max", "2"]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_exact_cap_sentinel(self, tmp_path, capsys):
        out = str(tmp_path / "pmf.csv")
        code = run(
            ["pmf", "--lambda", "7", "--mu", "5", "--t", "1", "--a", "10",
             "--k-max", "8", "--exact-cap", "10", "--out", out]
        )
        assert code == 0
        assert "exact column skipped" in capsys.readouterr().err
        rows = list(csv.DictReader(open(out)))
        assert all(r["exact"] == "NA" for r in rows)
        assert all(r["ratio_spa"] == "NA" for r in rows)
        assert all(float(r["spa"]) >= 0 for r in rows)

    def test_stdout_when_no_out(self, capsys):
        code = run(
            ["pmf", "--lambda", "2", "--mu", "1", "--t", "0.5", "--a", "3",
             "--k-max", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("k,exact,spa")
        assert len(out.strip().splitlines()) == 6

    def test_bad_range_exit_2(self, capsys):
        code = run(
            ["pmf", "--lambda", "2", "--mu", "1", "--t", "0.5", "--a", "3",
             "--k-min", "5", "--k-max", "4"]
        )
        assert code == 2


class TestBenchmark:
    def test_single_cell_files(self, tmp_path):
        out = str(tmp_path / "bench")
        code = run(
            [
                "benchmark", "--lambda", "7", "--mu", "5", "--z0", "10",
                "--n-obs", "5", "--m", "1", "--dt", "0.1",
                "--methods", "gw,spmle", "--replicates", "4",
                "--seed", "9", "--out", out,
            ]
        )
        assert code == 0
        doc = json.load(open(out + ".json"))
        assert [r["method"] for r in doc["reports"][0]["rows"]] == ["gw", "spmle"]
        lines = [ln for ln in open(out + ".csv") if not ln.startswith("#")]
        assert len(list(csv.DictReader(lines))) == 2

    def test_config_file_grid(self, tmp_path):
        config = tmp_path / "cells.json"
        config.write_text(
            json.dumps(
                [
                    {"lambda": 7, "mu": 5, "z0": 10, "n_obs": 5, "m": 1,
                     "dt": 0.1},
                    {"lambda": 2, "mu": 1, "z0": 5, "n_obs": 6, "m": 2,
                     "dt": 0.2},
                ]
            )
        )
        out = str(tmp_path / "bench")
        code = run(
            ["benchmark", "--config", str(config), "--methods", "gw",
             "--replicates", "3", "--seed", "4", "--out", out]
        )
        assert code == 0
        doc = json.load(open(out + ".json"))
        assert len(doc["reports"]) == 2
        assert doc["reports"][1]["cell"]["m"] == 2

    def test_seeded_benchmark_byte_identical(self, tmp_path):
        args = [
            "benchmark", "--lambda", "7", "--mu", "5", "--z0", "10",
            "--n-obs", "5", "--m", "1", "--dt", "0.1",
            "--methods", "gw", "--replicates", "3", "--seed", "11",
        ]
        o1, o2 = str(tmp_path / "b1"), str(tmp_path / "b2")
        assert run(args + ["--out", o1]) == 0
        assert run(args + ["--out", o2]) == 0
        # every column but the measured fit time is reproduced byte for byte
        c1, c2 = (list(csv.reader(open(o + ".csv"))) for o in (o1, o2))
        timed = c1[1].index("mean_wall_time")
        for row in c1[1:] + c2[1:]:
            del row[timed]
        assert c1 == c2

    def test_bad_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "cells.json"
        config.write_text(json.dumps([{"lambda": 7}]))
        code = run(
            ["benchmark", "--config", str(config), "--replicates", "2",
             "--seed", "1", "--out", str(tmp_path / "b")]
        )
        assert code == 2
        assert "cell 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"z0": 2.7}, "z0"),
            ({"m": 1.9}, "m"),
            ({"n_obs": True}, "n_obs"),
            ({"condition_nonextinct": "false"}, "condition_nonextinct"),
        ],
    )
    def test_config_refuses_values_of_the_wrong_type(self, entry, named, tmp_path, capsys):
        # cast, these would run as z0=2, m=1, n_obs=1 and conditioned
        config = tmp_path / "cells.json"
        cell = {"lambda": 7, "mu": 5, "z0": 10, "n_obs": 5, "m": 1, "dt": 0.1}
        config.write_text(json.dumps([cell, {**cell, **entry}]))
        code = run(
            ["benchmark", "--config", str(config), "--replicates", "2",
             "--seed", "1", "--out", str(tmp_path / "b")]
        )
        assert code == 2
        assert f"error: benchmark config cell 1: {named} must be" in capsys.readouterr().err

    def test_config_takes_integral_numbers_as_integers(self, tmp_path):
        config = tmp_path / "cells.json"
        config.write_text(
            json.dumps([{"lambda": 7, "mu": 5, "z0": 2.0, "n_obs": 5.0, "m": 1.0, "dt": 0.1}])
        )
        out = str(tmp_path / "bench")
        code = run(
            ["benchmark", "--config", str(config), "--methods", "gw",
             "--replicates", "2", "--seed", "4", "--out", out]
        )
        assert code == 0
        cell = json.load(open(out + ".json"))["reports"][0]["cell"]
        assert (cell["z0"], cell["n_obs"], cell["m"]) == (2, 5, 1)
        assert all(type(cell[k]) is int for k in ("z0", "n_obs", "m"))

    def test_missing_cell_flags_exit_2(self, tmp_path):
        code = run(
            ["benchmark", "--lambda", "7", "--replicates", "2", "--seed", "1",
             "--out", str(tmp_path / "b")]
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--lambda", "2", "--mu", "1", "--dt", "0.2", "--n-obs", "3"],
        ["benchmark", "--lambda", "7", "--mu", "5", "--z0", "10", "--n-obs", "5",
         "--m", "1", "--dt", "0.1", "--methods", "gw", "--replicates", "2"],
    ],
    ids=["simulate", "benchmark"],
)
def test_negative_seed_exit_2_names_seed(argv, panel_csv, tmp_path, capsys):
    argv = [tok.format(panel=panel_csv) for tok in argv]
    capsys.readouterr()
    code = run(argv + ["--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case",
    [
        "input_missing",
        "input_directory",
        "input_not_utf8",
        "simulate_out",
        "estimate_out",
        "pmf_out",
        "benchmark_out",
    ],
)
def test_unreadable_or_unwritable_file_exit_2(case, panel_csv, tmp_path, capsys, monkeypatch):
    import bdrates.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the Monte Carlo run started")

    # benchmark refuses its output before the run, not after it
    monkeypatch.setattr(cli, "run_benchmark", no_run)
    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes(b"trajectory_id,time,count\nh\xe9,0.0,3\nh\xe9,0.1,4\n")
    out = str(tmp_path / "missing" / "out.csv")
    argv, named = {
        "input_missing": (["estimate", "--input", str(tmp_path / "none.csv")], "none.csv"),
        "input_directory": (["estimate", "--input", str(tmp_path)], str(tmp_path)),
        "input_not_utf8": (["estimate", "--input", str(not_utf8)], f"{not_utf8}' is not UTF-8"),
        "simulate_out": (
            ["simulate", "--lambda", "2", "--mu", "1", "--dt", "0.2", "--n-obs", "3",
             "--seed", "1", "--out", out],
            out,
        ),
        "estimate_out": (
            ["estimate", "--input", panel_csv, "--method", "gw", "--out", out], out
        ),
        "pmf_out": (
            ["pmf", "--lambda", "2", "--mu", "1", "--t", "0.5", "--a", "3", "--k-max", "5",
             "--out", out],
            out,
        ),
        "benchmark_out": (
            ["benchmark", "--lambda", "7", "--mu", "5", "--z0", "10", "--n-obs", "5",
             "--m", "1", "--dt", "0.1", "--methods", "gw", "--replicates", "2",
             "--seed", "1", "--out", str(tmp_path / "missing" / "b")],
            str(tmp_path / "missing" / "b.csv"),
        ),
    }[case]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
