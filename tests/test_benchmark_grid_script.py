import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bdrates import fit
from bdrates.simulate import SimConfig, simulate_panel

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GRID = _load("run_benchmark_grid").GRID


def _load_perfbench_spec():
    path = SCRIPTS.parent / "perfbench" / "spec.py"
    spec = importlib.util.spec_from_file_location("perfbench_spec", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules.setdefault(spec.name, module)
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


@pytest.mark.parametrize("cell", GRID, ids=[f"z0={c.z0},m={c.m}" for c in GRID])
def test_every_method_matches_gw_omega_on_the_grid_cells(cell):
    # on equally spaced panels omega-hat is the pooled growth ratio's
    # log over the gap for every method; relative to max(1, |omega|),
    # because seed 5 of the z0 = 1 cell ends where it started and gw reads
    # omega-hat = 0 exactly. qg takes that ratio in closed form, so it
    # holds to rounding; the likelihood searches stop near 1e-8
    for seed in range(10):
        config = SimConfig(
            cell.rates, cell.z0, cell.obs_times(), cell.condition_nonextinct, seed=seed
        )
        panel = simulate_panel(config, cell.m)
        ref = fit(panel, "gw").rates.omega
        for method in ("qg", "spmle", "spmle_adjusted", "mle"):
            omega = fit(panel, method).rates.omega
            tol = 1e-13 if method == "qg" else 1e-6
            assert abs(omega - ref) <= tol * max(1.0, abs(ref)), (seed, method, omega, ref)


def test_accuracy_curve_script_prints_one_row_per_ancestor_count(capsys):
    curve = _load("run_accuracy_curve")
    assert curve.main(["--ancestors", "5,10"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [5, 10]
    # the plain approximation's worst relative error shrinks as a grows
    assert float(rows[1][1]) < float(rows[0][1])


def test_continuation_census_script_reports_each_method(capsys):
    census = _load("run_continuation_census")
    assert census.main(["--seed", "3", "--panels", "5", "--methods", "spmle,mle"]) == 0
    out = capsys.readouterr().out.splitlines()
    heads = [line for line in out if not line.startswith(" ")]
    assert [line.split(":")[0] for line in heads] == ["spmle", "mle"]
    for line in heads:
        fits, refused = (int(line.split()[i]) for i in (1, 3))
        assert fits + refused == 5
        assert "0 warnings" in line
    assert sum(line.strip().startswith("most evaluations:") for line in out) == 2
    # each method's totals are those of its fits, refused fits counting 0
    totals = [line.split() for line in out if line.strip().startswith("total:")]
    for method, words in zip(["spmle", "mle"], totals):
        fits = []
        for panel in census.draw_panels(3, 5):
            try:
                fits.append(census.fit(panel, method))
            except census.BdError:
                pass
        assert int(words[1]) == sum(r.n_obj_evals for r in fits) > 0
        assert int(words[3]) == sum(r.rejected_probes for r in fits)
        assert words[2:] == ["evaluations,", words[3], "rejected", "probes"]
    # the panels reproduce from the seed
    assert census.draw_panels(3, 5) == census.draw_panels(3, 5)


def test_kernel_costs_script_reports_each_kernel(capsys):
    costs = _load("run_kernel_costs")
    assert costs.main(["--seed", "3", "--panels", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    blank = out.index("")
    out, split_out = out[:blank], out[blank + 1 :]
    rows = {(line[:30].strip(), line[31:46].strip()): line.split()[-6:] for line in out[1:]}
    kernels = ["spa_loglik", "spa_derivatives cold", "spa_derivatives after loglik"]
    expected = [(k, m) for m in ("spmle", "spmle_adjusted") for k in kernels]
    assert list(rows) == expected + [("exact_loglik+derivatives", "mle")]
    for median, lo, hi, _, _, panels in rows.values():
        assert 0.0 < float(lo) <= float(median) <= float(hi)
        assert int(panels) == 2
    passes = {key: float(row[3]) for key, row in rows.items()}
    per_group = {key: float(row[4]) for key, row in rows.items()}
    # one pass per group for the plain value, none where the sweep is read;
    # a single-trajectory panel has one gap group
    assert passes["spa_loglik", "spmle"] == per_group["spa_loglik", "spmle"] == 1.0
    assert passes["spa_loglik", "spmle_adjusted"] >= 1.0
    assert per_group["spa_loglik", "spmle_adjusted"] >= 1.0
    assert per_group["spa_derivatives after loglik", "spmle_adjusted"] == 0.0
    assert passes["spa_derivatives after loglik", "spmle"] == 0.0
    assert passes["spa_derivatives after loglik", "spmle_adjusted"] == 0.0
    # every timed cold call solves afresh, as the loglik does
    for method in ("spmle", "spmle_adjusted"):
        assert passes["spa_derivatives cold", method] == passes["spa_loglik", method]
    assert passes["exact_loglik+derivatives", "mle"] == 0.0
    # each variant's solve makes only its own passes
    panel = costs.draw_panels(3, 1)[0]
    rates = costs.RATES
    plain = costs.solve_passes(lambda: costs.spa_loglik(panel, rates, "plain"))
    cond = costs.solve_passes(lambda: costs.spa_loglik(panel, rates, "conditional"))
    assert plain["_cgf_terms"] >= 1 and plain["_cond_pass"] == 0
    assert cond["_cond_pass"] >= 1 and cond["_cgf_terms"] == 0
    # the panels reproduce from the seed
    assert costs.draw_panels(3, 2) == costs.draw_panels(3, 2)
    # each likelihood fit split into its evaluations and its search
    assert split_out[0].split()[:2] == ["fit", "figure"]
    split = {
        (line[:30].strip(), line[31:46].strip()): [float(v) for v in line.split()[-4:]]
        for line in split_out[1:]
    }
    assert list(split) == [
        (figure, method) for method in costs.SEARCH_METHODS for figure in costs.SEARCH_FIGURES
    ]
    for method in costs.SEARCH_METHODS:
        wall, evals, search = (split[figure, method] for figure in costs.SEARCH_FIGURES)
        assert all(row[-1] == 2 for row in (wall, evals, search))
        # medians of best-of figures: each below the wall time, both positive
        assert 0.0 < evals[0] < wall[0] and 0.0 < search[0] < wall[0]
        assert all(lo <= med <= hi for med, lo, hi, _ in (wall, evals, search))
    # the timing wrappers are gone again
    assert costs.estimate.spa_loglik is costs.spa_loglik
    assert costs.estimate.exact_loglik is costs.exact_loglik
    # the pooled_growth fit cell: four trajectories on one merged gap group
    assert costs.main(["--seed", "3", "--panels", "1", "--cell", "pooled"]) == 0
    out = capsys.readouterr().out.splitlines()
    blank = out.index("")
    rows = {(line[:30].strip(), line[31:46].strip()): line.split()[-6:] for line in out[1:blank]}
    assert list(rows) == expected + [("exact_loglik+derivatives", "mle")]
    assert all(int(row[-1]) == 1 for row in rows.values())
    assert float(rows["spa_loglik", "spmle_adjusted"][4]) >= 1.0
    split = [line.split() for line in out[blank + 2 :]]
    assert len(split) == len(costs.SEARCH_METHODS) * len(costs.SEARCH_FIGURES)
    assert all(row[-1] == "1" for row in split)
    (panel,) = costs.draw_panels(3, 1, "pooled")
    assert len(panel) == 4 and len(panel.transitions.groups) == 1
    assert all(tr.counts[0] == 10 and len(tr.times) == 21 for tr in panel)
    # --cell also picks the Monte Carlo cell of the same perfbench workload
    spec = _load_perfbench_spec()
    for cell, workload in (("single", "single_traj"), ("pooled", "pooled_growth")):
        mc = spec.WORKLOADS[workload].mc_cell
        ours = costs.MC_CELLS[cell]
        assert (ours.rates.lam, ours.rates.mu, ours.z0, ours.n_obs, ours.m, ours.dt) == (
            mc.lam, mc.mu, mc.z0, mc.n_obs, mc.m, mc.dt
        )
        assert ours.condition_nonextinct
    assert costs.MC_METHODS == spec.MC_METHODS


def test_kernel_costs_script_counts_a_pass_the_module_lacks_as_zero(monkeypatch):
    costs = _load("run_kernel_costs")
    panel = costs.draw_panels(3, 1)[0]
    monkeypatch.delattr(costs.saddlepoint, "_cond_pass")
    plain = costs.solve_passes(lambda: costs.spa_loglik(panel, costs.RATES, "plain"))
    assert plain["_cgf_terms"] >= 1 and plain["_cond_pass"] == 0


@pytest.mark.parametrize("cell", ["single", "pooled"])
def test_kernel_costs_script_splits_a_replicate_into_its_stages(capsys, cell):
    costs = _load("run_kernel_costs")
    argv = ["--seed", "3", "--panels", "0", "--replicates", "1", "--cell", cell]
    assert costs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[0] == "stage"
    rows = {line[:30].strip(): line.split()[-4:] for line in out[1:-1]}
    assert list(rows) == list(costs.STAGES)
    shares = [float(row[-1]) for row in rows.values()]
    assert all(0.0 < s < 1.0 for s in shares)
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert out[-1].split()[0] == "replicate"


def test_bench_pairs_script_writes_the_paired_summary(tmp_path, monkeypatch):
    pairs = _load("run_bench_pairs")
    assert pairs.parse_seeds("401-403") == [401, 402, 403]
    assert pairs.parse_seeds("5,7") == [5, 7]
    root = SCRIPTS.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    calls = []

    def fake_run(checkout, workload, seed):
        # the change reads 20% lower on times and higher on throughputs,
        # except at seed 403
        calls.append((checkout.name, workload, seed))
        factor = 0.8 if checkout.name == "change" and seed != 403 else 1.0
        metrics = {
            m["name"]: {"value": (seed - 400) * (factor if m["better"] == "lower" else 1 / factor)}
            for m in spec["end_to_end"]
        }
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    out = tmp_path / "BENCH_x.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert pairs.main(argv + ["--seeds", "401-403", "--out", str(out)]) == 0
    # parent first on odd seeds, change first on even ones
    sides = [side for side, workload, _ in calls if workload == "single_traj"]
    assert sides == ["parent", "change", "change", "parent", "parent", "change"]
    report = json.loads(out.read_text())
    assert report["seeds"] == [401, 402, 403]
    assert report["parent_git_sha"] == report["change_git_sha"] == "unknown"
    table = report["workloads"]["single_traj"]
    assert table["runs"]["change"] == {"correct": True, "attempted": 30, "failed": 0}
    m = table["fit_s.spmle_adjusted"]
    assert m["parent"]["values"] == [1.0, 2.0, 3.0] and m["parent"]["median"] == 2.0
    assert m["change"]["median"] == 1.6 and m["change_wins"] == 2
    assert m["ratio_change_over_parent"] == 0.8
    assert m["parent"]["q1"] <= m["parent"]["median"] <= m["parent"]["q3"]
    assert table["replicates_per_s"]["change_wins"] == 2
    # git archive copies record the commits given for them
    shas = ["--parent-sha", "c24e6bd", "--change-sha", "0123abc"]
    assert pairs.main(argv + ["--seeds", "401", "--out", str(out)] + shas) == 0
    report = json.loads(out.read_text())
    assert (report["parent_git_sha"], report["change_git_sha"]) == ("c24e6bd", "0123abc")


def test_fit_equivalence_script_writes_and_compares_fits(tmp_path, capsys, monkeypatch):
    eq = _load("run_fit_equivalence")
    monkeypatch.setattr(eq, "CENSUS_PANELS", 2)
    monkeypatch.setattr(eq, "METHODS", ("gw", "qg"))
    parent = tmp_path / "parent.json"
    # seed 1 is always in the set, and is not fitted twice
    argv = ["fits", "--out", str(parent), "--census-seeds", "4,1", "--sha", "9b53e69"]
    assert eq.main(argv) == 0
    data = json.loads(parent.read_text())
    assert data["census_seeds"] == [1, 4] and data["git_sha"] == "9b53e69"
    labels = [r["panel"] for r in data["fits"]]
    # 2 panels per census seed, the 11 test panels, the 4 near-critical
    # panels, 6 seeds of perfbench's stratified panels (3 single_traj,
    # 1 pooled_growth)
    assert len(set(labels)) == 2 * 2 + 11 + 4 + 6 * (3 + 1) and len(labels) == 2 * len(set(labels))
    near = {label for label in labels if label.startswith("nearcrit:")}
    assert near == {f"nearcrit:{name}" for name in eq.NEAR_CRITICAL}
    for panel in eq.NEAR_CRITICAL.values():
        groups = panel.transitions.groups
        ratio = sum(int(g.dst.sum()) for g in groups) / sum(int(g.src.sum()) for g in groups)
        assert 0.0 < abs(ratio - 1.0) <= 1e-6
    assert {r["method"] for r in data["fits"]} == {"gw", "qg"}
    # gw refuses the census panels with unequal gaps, by a typed error
    errors = {r["error"].split(":")[0] for r in data["fits"] if r["error"] is not None}
    assert "DataError" in errors and errors <= {"DataError", "DomainError"}
    fitted = [r for r in data["fits"] if r["error"] is None]
    assert all(r["log1m_beta"] <= 0.0 and r["exact"] <= 0.0 for r in fitted)

    # the same tree twice: every fit is bit-identical
    capsys.readouterr()
    assert eq.main(["compare", str(parent), str(parent)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("parent 9b53e69, change 9b53e69,")
    heads = [line for line in out[1:] if not line.startswith(" ")]
    # a line per method, then one for the stream cases and one for the
    # benchmark rows
    assert [line.split(":")[0] for line in heads] == ["gw", "qg", "streams", "benchmark"]
    for line in heads[:2]:
        n, same = (int(line.split()[i]) for i in (1, 3))
        assert n == same and "0 error changes" in line
    for line in heads[2:]:
        n, same = (int(line.split()[i]) for i in (1, 4))
        assert n == same > 0

    # a change that moves one well-conditioned loglik (qg fits take about
    # 76 evaluations, so the parent's count is set to 5) and its lam by
    # 0.01 SE, makes one fit
    # raise, lowers a fit that the parent continued, and raises two that it
    # continued: one where the exact loglik rises too, one to rates where
    # beta rounds to 1; and one whose loglik is no longer reported
    change = json.loads(parent.read_text())
    pairs = [(p, c) for p, c in zip(data["fits"], change["fits"]) if p["method"] == "qg"]
    (p0, c0), (_, c1), (p2, c2), (p3, c3), (p4, c4), (p5, c5) = [
        (p, c) for p, c in pairs if p["error"] is None
    ][:6]
    p0["evals"] = c0["evals"] = 5
    c0["loglik"] += 1.0
    c0["lam"] += 0.01 * p0["cov"][0][0] ** 0.5
    c1.update(error="SolverError: no root")
    p2["continued"] = p3["continued"] = p4["continued"] = True
    c2["loglik"] -= 1.0
    c3.update(loglik=c3["loglik"] + 1.0, exact=c3["exact"] + 1.0)
    c4.update(loglik=c4["loglik"] + 1.0, log1m_beta=-400.0)
    c5.update(loglik=None)
    parent.write_text(json.dumps(data))
    (tmp_path / "change.json").write_text(json.dumps(change))
    summary = eq.compare(data, change)["qg"]
    assert len(summary["well_moved"]) == 1
    assert summary["well_moved"][0].startswith(f"qg on {p0['panel']}: ")
    (se_line,) = summary["se_moved"]
    assert se_line.startswith(f"qg on {p0['panel']}: ") and se_line.endswith(", 0.01 SE")
    assert summary["worst_se"] == pytest.approx(0.01)
    assert summary["errors"] == [f"qg on {c1['panel']}: None -> SolverError: no root"]
    lower, higher, suspect, gone = summary["moved"]
    assert lower.startswith(f"qg on {p2['panel']}: ") and lower.endswith("LOWER")
    assert higher.endswith(f"; exact {p3['exact']:.10g} -> {c3['exact']:.10g}")
    assert suspect.endswith(f"; exact {p4['exact']:.10g} -> {p4['exact']:.10g} SUSPECT")
    assert gone == f"qg on {p5['panel']}: {p5['loglik']:.10g} -> n/a"
    assert summary["identical"] == summary["fits"] - 6
    assert eq.main(["compare", str(parent), str(tmp_path / "change.json")]) == 0
    out = capsys.readouterr().out
    assert out.count("well_moved:") == 1 and out.count("errors:") == 1
    assert out.count("se_moved:") == 1 and "worst rate move 0.01 SE" in out

    # files over different panel sets are refused with a message
    change["fits"] = change["fits"][:-1]
    (tmp_path / "change.json").write_text(json.dumps(change))
    assert eq.main(["compare", str(parent), str(tmp_path / "change.json")]) == 2
    assert "different (panel, method) pairs" in capsys.readouterr().err


def test_fit_equivalence_script_pins_the_seeded_stream(tmp_path, capsys, monkeypatch):
    import legacy_kernels as legacy
    from bdrates import simulate

    eq = _load("run_fit_equivalence")
    monkeypatch.setattr(eq, "CENSUS_PANELS", 0)
    monkeypatch.setattr(eq, "METHODS", ("gw",))
    monkeypatch.setattr(eq, "STREAM_SEEDS", range(1, 4))
    monkeypatch.setattr(eq, "BENCH_REPLICATES", 3)
    real = simulate._draw_paths

    def write(name, sampler):
        monkeypatch.setattr(simulate, "_draw_paths", sampler)
        assert eq.main(["fits", "--out", str(tmp_path / name), "--sha", name]) == 0
        return json.loads((tmp_path / name).read_text())

    def one_draw_later(rng, config, laws, n):
        rng.random()
        return real(rng, config, laws, n)

    parent = write("parent", legacy.draw_paths_array)
    same = write("same", real)
    moved = write("moved", one_draw_later)
    cells = ["mc_single_traj", "mc_pooled_growth"] + [
        f"grid_z0={c.z0},m={c.m}" for c in GRID
    ]
    assert list(parent["streams"]) == [f"{c}:{s}" for c in cells for s in (1, 2, 3)]
    assert list(parent["benchmark"]) == [f"{c}:{m}" for c in cells for m in ("gw", "spmle")]
    assert all(row["n_used"] + row["n_failed"] == 3 for row in parent["benchmark"].values())
    assert all("mean_wall_time" not in row for row in parent["benchmark"].values())
    # the array sampler and the lane-by-lane one draw the same stream
    assert parent["streams"] == same["streams"] and parent["benchmark"] == same["benchmark"]
    capsys.readouterr()
    assert eq.main(["compare", str(tmp_path / "parent"), str(tmp_path / "same")]) == 0
    out = capsys.readouterr().out
    assert "streams: 18 stream cases, 18 identical" in out
    assert "benchmark: 12 benchmark rows, 12 identical" in out and "differs" not in out
    # a sampler that draws one more number lists every case it moved
    streams = eq.differing(parent, moved, "streams")
    assert streams == [k for k in parent["streams"] if parent["streams"][k] != moved["streams"][k]]
    assert len(streams) == 18
    assert eq.differing(parent, moved, "benchmark")
    assert eq.main(["compare", str(tmp_path / "parent"), str(tmp_path / "moved")]) == 0
    out = capsys.readouterr().out
    assert "streams: 18 stream cases, 0 identical" in out
    assert out.count("  differs: ") == 18 + len(eq.differing(parent, moved, "benchmark"))
    # a case one file lacks differs too
    del moved["streams"]["grid_z0=1,m=1:2"]
    assert "grid_z0=1,m=1:2" in eq.differing(same, moved, "streams")
