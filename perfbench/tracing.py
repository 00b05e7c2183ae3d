"""Spans around the calls into each ``bdrates`` module, recorded from outside.

Modules import functions by name (``from .exact import exact_loglik``), so
each function is wrapped where its caller looks it up, e.g.
``bdrates.estimate.exact_loglik`` rather than ``bdrates.exact.exact_loglik``.
Spans (name, start, end, parent id, root id) stay in memory until the run
writes them out. ``geom_params`` is too small and too frequent for a span
and is only counted. A wrapped name that the package no longer has is
recorded as unmeasured, with the reason, and the metrics built on it
read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict

from spec import LIKELIHOOD_METHODS, PER_LAYER

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, root, name, attrs):
        self.id, self.parent, self.root, self.name, self.attrs = sid, parent, root, name, attrs
        self.start = self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: Counter = Counter()
        self.eval_depth = 0
        self.unmeasured: dict[str, str] = {}
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str, **attrs) -> Span:
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        span = Span(sid, parent.id if parent else None, parent.root if parent else sid, name, attrs)
        self.spans.append(span)
        self.stack.append(span)
        span.start = _clock()
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; an exception is recorded by type and re-raised."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self.close(span)

    def current_method(self):
        for span in reversed(self.stack):
            if span.name == "estimate.fit":
                return span.attrs.get("method")
        return None

    # -- patching -----------------------------------------------------------

    def patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            self.unmeasured[f"{module}.{attr}"] = f"{module} has no attribute {attr!r}"
            return
        setattr(mod, attr, make(orig))
        self._saved.append((mod, attr, orig))

    def restore(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def install(self) -> None:
        """Wrap every traced call site of the package."""
        for module in ("bdrates.estimate", "bdrates.simulate"):
            self.patch(module, "fit", self._wrap_fit)
        self.patch("bdrates.estimate", "maximize_2d", self._wrap_maximize)
        self.patch("bdrates.estimate", "initial_rates", self._spanned("estimate.initial_rates"))
        self.patch("bdrates.estimate", "numeric_hessian_se", self._wrap_hessian)
        self.patch("bdrates.estimate", "exact_loglik", self._wrap_exact)
        self.patch("bdrates.estimate", "spa_loglik", self._wrap_spa)
        self.patch("bdrates.estimate", "qg_fit", self._wrap_qg)
        self.patch("bdrates.estimate", "gw_estimate", self._spanned("gw.gw_estimate"))
        self.patch("bdrates.multivariate", "mv_loglik", self._spanned("multivariate.mv_loglik"))
        for module in ("bdrates.exact", "bdrates.saddlepoint", "bdrates.multivariate"):
            self.patch(module, "geom_params", self._wrap_geom)
        self.patch("bdrates.simulate", "simulate_panel", self._spanned("simulate.simulate_panel"))
        self.patch("bdrates.simulate", "simulate_panel_stats", self._wrap_panel_stats)
        self.patch("bdrates.panel_io", "read_panel", self._spanned("panel_io.read_panel"))

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                return self.call(name, orig, *args, **kwargs)

            return wrapper

        return make

    def _wrap_fit(self, orig):
        @functools.wraps(orig)
        def fit(panel, method, *args, **kwargs):
            span = self.open("estimate.fit", method=str(method).strip().lower().replace("-", "_"))
            try:
                return orig(panel, method, *args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)

        return fit

    def _wrap_maximize(self, orig):
        @functools.wraps(orig)
        def maximize_2d(objective, *args, **kwargs):
            method = self.current_method()

            def traced_objective(x):
                span = self.open("optimize.eval", method=method)
                self.eval_depth += 1
                try:
                    val = objective(x)
                finally:
                    self.eval_depth -= 1
                    self.close(span)
                span.attrs["rejected"] = not math.isfinite(val)
                return val

            span = self.open("optimize.maximize_2d", method=method)
            try:
                res = orig(traced_objective, *args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            span.attrs["runs"] = res.n_runs
            return res

        return maximize_2d

    def _wrap_hessian(self, orig):
        @functools.wraps(orig)
        def numeric_hessian_se(*args, **kwargs):
            span = self.open("estimate.numeric_hessian_se")
            try:
                cov = orig(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs["cov_none"] = cov is None
            return cov

        return numeric_hessian_se

    def _wrap_exact(self, orig):
        @functools.wraps(orig)
        def exact_loglik(panel, *args, **kwargs):
            n = panel.n_transitions
            span = self.open("exact.exact_loglik", n=n)
            try:
                return orig(panel, *args, **kwargs)
            finally:
                self.close(span)

        return exact_loglik

    def _wrap_spa(self, orig):
        @functools.wraps(orig)
        def spa_loglik(panel, rates, variant="plain"):
            return self.call(f"saddlepoint.spa_loglik.{variant}", orig, panel, rates, variant)

        return spa_loglik

    def _wrap_qg(self, orig):
        @functools.wraps(orig)
        def qg_fit(*args, **kwargs):
            span = self.open("gaussian.qg_fit")
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs["iterations"] = out.profile_iterations
            return out

        return qg_fit

    def _wrap_geom(self, orig):
        @functools.wraps(orig)
        def geom_params(*args, **kwargs):
            self.counts["geom_params"] += 1
            if self.eval_depth:
                self.counts["geom_params.in_eval"] += 1
            return orig(*args, **kwargs)

        return geom_params

    def _wrap_panel_stats(self, orig):
        @functools.wraps(orig)
        def simulate_panel_stats(*args, **kwargs):
            panel, rejections = orig(*args, **kwargs)
            self.counts["rejected_paths"] += sum(rejections)
            return panel, rejections

        return simulate_panel_stats

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "root": s.root, "name": s.name,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


# metric prefix -> the wrapped names it is built on
_NEEDS = {
    "estimate.fit.": ["bdrates.estimate.fit"],
    "estimate.initial_rates.": ["bdrates.estimate.initial_rates"],
    "estimate.numeric_hessian_se.": ["bdrates.estimate.numeric_hessian_se"],
    "optimize.": ["bdrates.estimate.maximize_2d"],
    "exact.exact_loglik.": ["bdrates.estimate.exact_loglik"],
    "exact.geom_params.": [
        "bdrates.exact.geom_params", "bdrates.saddlepoint.geom_params",
        "bdrates.multivariate.geom_params", "bdrates.estimate.maximize_2d",
    ],
    "saddlepoint.": ["bdrates.estimate.spa_loglik"],
    "multivariate.": ["bdrates.multivariate.mv_loglik"],
    "gaussian.": ["bdrates.estimate.qg_fit"],
    "gw.": ["bdrates.estimate.gw_estimate"],
    "simulate.simulate_panel.": ["bdrates.simulate.simulate_panel"],
    "simulate.rejected_paths_per_panel": [
        "bdrates.simulate.simulate_panel", "bdrates.simulate.simulate_panel_stats",
    ],
    "simulate.fit.": ["bdrates.simulate.fit"],
    "panel_io.": ["bdrates.panel_io.read_panel"],
}


def unmeasured_metrics(unmeasured: dict[str, str]) -> dict[str, str]:
    """Per-layer metric -> why it could not be measured."""
    out = {}
    for name, _ in PER_LAYER:
        for prefix, needs in _NEEDS.items():
            if name.startswith(prefix):
                missing = [unmeasured[n] for n in needs if n in unmeasured]
                if missing:
                    out[name] = "; ".join(missing)
    return out


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float, untraced_s: float) -> dict[str, float]:
    """Every per-layer metric of spec.PER_LAYER from one traced round."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def self_time(s):
        return s.dur - sum(c.dur for c in children[s.id])

    fits = by_name["estimate.fit"]
    mv = [s for s in fits if s.attrs.get("method") == "mv_spmle"]
    mv_ok = [s.dur for s in mv if "error" not in s.attrs]
    searches = by_name["optimize.maximize_2d"]
    evals = by_name["optimize.eval"]
    exact = by_name["exact.exact_loglik"]
    mv_ll = by_name["multivariate.mv_loglik"]
    sims = by_name["simulate.simulate_panel"]
    reps = by_name["simulate.run_benchmark"]
    rep_ids = {s.id for s in reps}
    rep_s = sum(s.dur for s in reps)
    errors = Counter(s.attrs["error"] for s in mv_ll if "error" in s.attrs)

    out = {
        "estimate.fit.self_s": _mean(self_time(s) for s in fits),
        "estimate.fit.fail_ratio": _mean("error" in s.attrs for s in fits),
        "estimate.fit.mv_spmle.s": statistics.median(mv_ok) if mv_ok else 0.0,
        "estimate.fit.mv_spmle.failed": len(mv) - len(mv_ok),
        "estimate.initial_rates.s": _mean(s.dur for s in by_name["estimate.initial_rates"]),
        "estimate.numeric_hessian_se.s": _mean(
            s.dur for s in by_name["estimate.numeric_hessian_se"]
        ),
        "estimate.numeric_hessian_se.cov_none": sum(
            bool(s.attrs.get("cov_none")) for s in by_name["estimate.numeric_hessian_se"]
        ),
        "optimize.maximize_2d.self_s": _mean(self_time(s) for s in searches),
    }
    for m in LIKELIHOOD_METHODS:
        mine = [s for s in searches if s.attrs.get("method") == m]
        out[f"optimize.maximize_2d.evals.{m}"] = _mean(len(children[s.id]) for s in mine)
        out[f"optimize.maximize_2d.rejected.{m}"] = _mean(
            sum(bool(c.attrs.get("rejected")) for c in children[s.id]) for s in mine
        )
        out[f"optimize.maximize_2d.runs.{m}"] = _mean(s.attrs.get("runs", 0) for s in mine)
    for m in LIKELIHOOD_METHODS:
        out[f"optimize.eval_s.{m}"] = _mean(s.dur for s in evals if s.attrs.get("method") == m)
    n_trans = sum(s.attrs["n"] for s in exact)
    out.update({
        "exact.exact_loglik.s_per_call": _mean(s.dur for s in exact),
        "exact.exact_loglik.ns_per_transition": (
            1e9 * sum(s.dur for s in exact) / n_trans if n_trans else 0.0
        ),
        "exact.geom_params.calls_per_eval": (
            tracer.counts["geom_params.in_eval"] / len(evals) if evals else 0.0
        ),
        "saddlepoint.spa_loglik.plain.s_per_call": _mean(
            s.dur for s in by_name["saddlepoint.spa_loglik.plain"]
        ),
        "saddlepoint.spa_loglik.conditional.s_per_call": _mean(
            s.dur for s in by_name["saddlepoint.spa_loglik.conditional"]
        ),
        "multivariate.mv_loglik.s_per_call": _mean(s.dur for s in mv_ll),
        "multivariate.mv_loglik.errors.DomainError": errors.pop("DomainError", 0),
        "multivariate.mv_loglik.errors.SolverError": errors.pop("SolverError", 0),
        "multivariate.mv_loglik.errors.other": sum(errors.values()),
        "gaussian.qg_fit.s": _mean(s.dur for s in by_name["gaussian.qg_fit"]),
        "gaussian.qg_fit.profile_iterations": _mean(
            s.attrs.get("iterations", 0) for s in by_name["gaussian.qg_fit"]
        ),
        "gw.gw_estimate.s": _mean(s.dur for s in by_name["gw.gw_estimate"]),
        "simulate.simulate_panel.s_per_panel": _mean(s.dur for s in sims),
        "simulate.simulate_panel.share": (
            sum(s.dur for s in sims) / rep_s if rep_s else 0.0
        ),
        "simulate.rejected_paths_per_panel": (
            tracer.counts["rejected_paths"] / len(sims) if sims else 0.0
        ),
        "simulate.fit.share": (
            sum(s.dur for s in fits if s.parent in rep_ids) / rep_s if rep_s else 0.0
        ),
        "panel_io.read_panel.s": _mean(s.dur for s in by_name["panel_io.read_panel"]),
        "trace.overhead_s": overhead_s,
        "trace.overhead_ratio": overhead_s / untraced_s if untraced_s else 0.0,
        "trace.unmeasured": len(tracer.unmeasured),
    })
    for name in unmeasured_metrics(tracer.unmeasured):
        out[name] = 0.0
    return {name: float(out[name]) for name, _ in PER_LAYER}
