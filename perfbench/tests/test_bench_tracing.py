"""Spans, self time, per-layer metrics and unmeasured wrapped names."""

import bdrates
import bdrates.estimate
import bdrates.exact
import bdrates.simulate
from spec import PER_LAYER
from tracing import Tracer, layer_metrics, unmeasured_metrics

PANEL = bdrates.Panel((
    bdrates.Trajectory((0.0, 0.2, 0.4, 0.6000000000000001, 0.8), (1, 2, 4, 3, 6)),
))


def test_install_restores_and_spans_nest():
    originals = (bdrates.estimate.fit, bdrates.exact.geom_params, bdrates.estimate.exact_loglik)
    tracer = Tracer()
    tracer.install()
    try:
        bdrates.estimate.fit(PANEL, "mle")
    finally:
        tracer.restore()
    assert (bdrates.estimate.fit, bdrates.exact.geom_params, bdrates.estimate.exact_loglik) == originals
    assert not tracer.unmeasured and not tracer.stack
    names = [s.name for s in tracer.spans]
    root = tracer.spans[0]
    assert root.name == "estimate.fit" and root.attrs["method"] == "mle"
    assert all(s.root == root.id for s in tracer.spans)
    search = next(s for s in tracer.spans if s.name == "optimize.maximize_2d")
    evals = [s for s in tracer.spans if s.parent == search.id]
    assert evals and all(s.name == "optimize.eval" for s in evals)
    assert names.count("exact.exact_loglik") >= len(evals)
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent is not None:
            p = tracer.spans[s.parent]
            assert p.start <= s.start and s.end <= p.end

    m = layer_metrics(tracer, 0.1, 1.0)
    assert list(m) == [name for name, _ in PER_LAYER]
    assert m["optimize.maximize_2d.evals.mle"] == len(evals)
    assert m["exact.geom_params.calls_per_eval"] >= 1
    assert 0 < m["estimate.fit.self_s"] < root.dur
    assert m["trace.overhead_ratio"] == 0.1
    assert m["simulate.simulate_panel.share"] == 0.0  # never called here


def test_missing_name_is_unmeasured_not_fatal(monkeypatch):
    monkeypatch.delattr(bdrates.estimate, "exact_loglik")
    tracer = Tracer()
    tracer.install()
    try:
        bdrates.estimate.fit(PANEL, "gw")
    finally:
        tracer.restore()
    assert "bdrates.estimate.exact_loglik" in tracer.unmeasured
    missing = unmeasured_metrics(tracer.unmeasured)
    assert set(missing) == {
        "exact.exact_loglik.s_per_call", "exact.exact_loglik.ns_per_transition"
    }
    m = layer_metrics(tracer, 0.0, 1.0)
    assert m["trace.unmeasured"] == 1 and m["exact.exact_loglik.s_per_call"] == 0.0


def test_simulate_panel_wrapper_counts_rejections():
    tracer = Tracer()
    tracer.install()
    try:
        cell = bdrates.BenchmarkCell(bdrates.Rates(7.0, 6.0), 1, 5, 3, 0.2)
        tracer.call("simulate.run_benchmark", bdrates.simulate.run_benchmark, cell, ["gw"], 1, 7)
    finally:
        tracer.restore()
    m = layer_metrics(tracer, 0.0, 1.0)
    assert m["simulate.simulate_panel.s_per_panel"] > 0
    assert 0 < m["simulate.simulate_panel.share"] + m["simulate.fit.share"] <= 1
    config = bdrates.SimConfig(
        bdrates.Rates(7.0, 6.0), 1, cell.obs_times(), True, bdrates.child_seed(7, 0, 0)
    )
    _, rejections = bdrates.simulate.simulate_panel_stats(config, 3)
    assert m["simulate.rejected_paths_per_panel"] == sum(rejections)
