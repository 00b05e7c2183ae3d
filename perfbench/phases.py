"""Set-up, fit phase and Monte Carlo phase of one benchmark run.

The program is called only through its public API, looked up on its
modules at call time (``bdrates.estimate.fit``,
``bdrates.simulate.run_benchmark``, ``bdrates.panel_io.read_panel``), so
a traced run sees the same calls with spans around them.

Work is time-boxed by whole rounds, each a pass over the panels and a pass
over the replicate seeds: after MIN_ROUNDS, a round starts only if the
mean round so far still fits in the budget.

Host speed. On a shared host the CPU runs up to 1.8x slower for
milliseconds to minutes at a time, and that moves every time a run
measures together. So a fixed calibration kernel that does not touch
``bdrates`` (``_kernel``) is timed before and after every run of fits of
one method, every replicate and every set-up, and each sample is scaled
to the kernel's reference speed ``CAL_REFERENCE_S`` by the mean of the
two kernel times around it. A unit's figure is the median of its scaled
samples over the rounds, and set-up's the median of its repetitions.

The unscaled figures and every sample are kept in the result file.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bdrates
import bdrates.estimate
import bdrates.gaussian
import bdrates.multivariate
import bdrates.panel_io
import bdrates.saddlepoint
import bdrates.simulate

import reference
from bdrates.multivariate import mv_loglik as _mv_loglik  # unwrapped by tracing
from inputs import stratified_panels
from spec import (
    BATTERY, END_TO_END, MC_METHODS, SETUP_REPEATS, WORKLOADS, Workload,
)
from tracing import Tracer, layer_metrics, unmeasured_metrics

_clock = time.perf_counter
_SRC = Path(bdrates.__file__).resolve().parent.parent
_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import bdrates"

# The quick methods are fitted a few times in each of three rounds per
# panel, with the slow methods between the rounds.
ROUNDS = 3
PER_ROUND = {"gw": 8, "qg": 2, "spmle": 1}
QUICK_OPTIONS = dict(restarts=0, maxiter=20)  # warm-up only
# rounds every run makes, so each panel and replicate has a best of two
MIN_ROUNDS = 2

# Seconds of one calibration kernel call at the reference speed: about
# its time on an idle 2-CPU x86_64 host with Python 3.11.
CAL_REFERENCE_S = 0.003


def schedule(battery=BATTERY) -> list[str]:
    """Fit order for one panel: gw*8 qg*2 spmle spmle_adjusted, gw*8 qg*2
    spmle mle, gw*8 qg*2 spmle."""
    quick = [m for m in battery if m in PER_ROUND]
    slow = [m for m in battery if m not in PER_ROUND]
    order = []
    for r in range(max(ROUNDS, len(slow))):
        if r < ROUNDS:
            for m in quick:
                order += [m] * PER_ROUND[m]
        if r < len(slow):
            order.append(slow[r])
    return order


def _own_loglik(method: str):
    """The method's own objective, for re-evaluation at its estimate."""
    if method == "spmle":
        return lambda panel, r: bdrates.saddlepoint.spa_loglik(panel, r, variant="plain")
    if method == "spmle_adjusted":
        return lambda panel, r: bdrates.saddlepoint.spa_loglik(panel, r, variant="conditional")
    if method == "mv_spmle":
        return _mv_loglik
    if method == "qg":
        return _qg_loglik
    return None


def _qg_loglik(panel, rates):
    # qg reports its profile likelihood at omega-hat; clamped fits have no
    # interior xi to evaluate the full form at
    g = bdrates.gaussian
    xi = g.qg_profile_xi(panel, rates.omega)
    if not xi > abs(rates.omega):
        return None
    return g.qg_loglik(panel, g.QgParams(rates.omega, xi))


def _benchmark_cell(c, n_obs=None, m=None):
    """The bdrates.BenchmarkCell of a spec.Cell, optionally shortened."""
    return bdrates.BenchmarkCell(
        bdrates.Rates(c.lam, c.mu), c.z0, n_obs or c.n_obs, m or c.m, c.dt
    )


def _mc_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, 0x6D63, i]).generate_state(1)[0])


def _kernel(panel) -> float:
    """Fixed work that does not touch bdrates, of the two kinds the fits
    do: numpy and scipy calls on small arrays (the reference likelihood of
    a fixed panel) and a pure-Python loop of math calls."""
    acc = reference.exact_loglik(panel, 7.0, 6.0)
    for i in range(1500):
        acc += math.lgamma(i + 1.5) - 0.5 * math.log1p(i)
    return acc


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) of the highest percentile with at least ten values
    beyond it, or None when the sample is too small for one above the
    median."""
    n = len(values)
    if n < 21:
        return None
    k = n - 11  # ten values lie above index k
    return 100.0 * (k + 1) / n, sorted(values)[k]


class Bench:
    def __init__(self, workload: Workload, seed: int, panel_dir):
        self.workload = workload
        self.seed = seed
        self.panel_dir = panel_dir
        self.panels: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.cal_panel = stratified_panels(WORKLOADS["single_traj"].fit_cell, 0, 1, 64)[0]
        self.cal_s: list[float] = []

    def calibrate(self) -> int:
        """Time the calibration kernel; returns the index of the sample."""
        t0 = _clock()
        _kernel(self.cal_panel)
        self.cal_s.append(_clock() - t0)
        return len(self.cal_s) - 1

    def scaled(self, sample) -> float:
        """A (seconds, calibration index) sample in seconds at the
        reference speed, against the kernel timed just before and after."""
        took, i = sample
        return took * CAL_REFERENCE_S / (0.5 * (self.cal_s[i] + self.cal_s[i + 1]))

    # -- set-up -------------------------------------------------------------

    def set_up(self) -> tuple[float, float]:
        """A fresh-process import of bdrates, inputs, CSV round-trip and
        warm-up, SETUP_REPEATS times; the median seconds of one set-up,
        scaled to the reference speed and unscaled."""
        took = []
        for _ in range(SETUP_REPEATS):
            cal = self.calibrate()
            t0 = _clock()
            subprocess.run([sys.executable, "-c", _IMPORT, str(_SRC)], check=True, timeout=120)
            self.panels = self.round_trip(self.make_panels())
            self.warm_up()
            took.append((_clock() - t0, cal))
        self.calibrate()
        return statistics.median(map(self.scaled, took)), statistics.median(t for t, _ in took)

    def make_panels(self):
        w = self.workload
        return stratified_panels(w.fit_cell, self.seed, w.n_panels, w.pool_panels)

    def round_trip(self, panels):
        """Write every panel with write_panel and read it back, so the fits
        see what the command-line tool would."""
        self.panel_dir.mkdir(exist_ok=True)
        out = []
        for i, panel in enumerate(panels):
            path = str(self.panel_dir / f"panel{i:03d}.csv")
            bdrates.panel_io.write_panel(path, panel)
            out.append(bdrates.panel_io.read_panel(path))
        if [p.trajectories for p in out] != [p.trajectories for p in panels]:
            raise reference.GateError("panels changed in the CSV round-trip")
        return out

    def warm_up(self) -> None:
        """Short searches of every battery method on a prefix of the first
        panel, and one small Monte Carlo replicate, so first-call costs
        land in set-up."""
        first = self.panels[0]
        short = bdrates.Panel(tuple(
            bdrates.Trajectory(tr.times[:6], tr.counts[:6]) for tr in first.trajectories[:2]
        ))
        options = bdrates.FitOptions(**QUICK_OPTIONS)
        for method in BATTERY:
            try:
                bdrates.estimate.fit(short, method, options)
            except bdrates.BdError:
                pass  # a short prefix can be degenerate; only code paths matter here
        cell = _benchmark_cell(self.workload.mc_cell, n_obs=3, m=1)
        bdrates.simulate.run_benchmark(cell, MC_METHODS, 1, self.seed, options)

    # -- fit phase ----------------------------------------------------------

    def fit_once(self, panel, method):
        """Seconds of one gated fit, or None if it raised."""
        self.attempted += 1
        t0 = _clock()
        try:
            res = bdrates.estimate.fit(panel, method)
        except Exception as exc:  # every failure is counted, BdError or not
            self.failed += 1
            name = f"{method}:{type(exc).__name__}"
            self.errors[name] = self.errors.get(name, 0) + 1
            return None
        took = _clock() - t0
        reference.check_fit(panel, res, _own_loglik(method))
        return took

    def fit_pass(self, panels, samples) -> None:
        """schedule() on every panel; (seconds, calibration index) samples
        go to samples[panel][method]."""
        order = schedule()
        for panel, got in zip(panels, samples):
            failed = set()
            for i, method in enumerate(order):
                if i == 0 or method != order[i - 1]:
                    # once per run of one method: the kernel evicts caches,
                    # and the quick fits would time cold after every call
                    cal = self.calibrate()
                if method in failed:
                    continue
                took = self.fit_once(panel, method)
                if took is None:
                    failed.add(method)
                else:
                    got[method].append((took, cal))

    # -- Monte Carlo phase --------------------------------------------------

    def mc_pass(self, samples, tracer=None) -> dict[str, list[float]]:
        """One run_benchmark call per replicate seed; (seconds, calibration
        index) samples go to samples[replicate]. Returns the omega
        estimates per method."""
        c = self.workload.mc_cell
        cell = _benchmark_cell(c)
        omegas = {m: [] for m in MC_METHODS}
        for i, times in enumerate(samples):
            cal = self.calibrate()
            run = bdrates.simulate.run_benchmark
            args = (cell, MC_METHODS, 1, _mc_seed(self.seed, i))
            t0 = _clock()
            if tracer is None:
                report = run(*args)[0]
            else:
                report = tracer.call("simulate.run_benchmark", run, *args)[0]
            times.append((_clock() - t0, cal))
            for row in report.rows:
                reference.check_mc(row.n_used, row.n_failed, 1, row.method)
                self.attempted += 1
                self.failed += row.n_failed
                if row.n_used:
                    omegas[row.method].append(c.lam - c.mu + row.bias_omega)
        return omegas

    # -- rounds -------------------------------------------------------------

    def measure(self, budget: float, panels, rounds: int | None = None, tracer=None):
        """Rounds of a fit pass over the panels and a Monte Carlo pass over
        the replicates. Without `rounds`, MIN_ROUNDS always run and another
        starts while the mean round still fits in the budget. Every round
        must reproduce the first one's Monte Carlo estimates.

        Returns (fit samples per panel and method, seconds per replicate,
        omega estimates per method, rounds run)."""
        fits = [{m: [] for m in BATTERY} for _ in panels]
        reps: list[list[float]] = [[] for _ in range(self.workload.mc_replicates)]
        omegas = None
        spent = 0.0
        n = 0
        while n != rounds:
            if rounds is None and n >= MIN_ROUNDS and spent * (1 + 1 / n) > budget:
                break
            t0 = _clock()
            self.fit_pass(panels, fits)
            got = self.mc_pass(reps, tracer)
            if omegas is None:
                omegas = got
            elif got != omegas:
                raise reference.GateError("run_benchmark gave other estimates on a repeated seed")
            spent += _clock() - t0
            n += 1
        self.calibrate()  # the last sample's "after"
        c = self.workload.mc_cell
        reference.check_mean_omega(omegas["spmle"], c.lam - c.mu, "spmle")
        return fits, reps, omegas, n

    # -- runs ---------------------------------------------------------------

    def untraced(self, seconds: float, setup: tuple[float, float]):
        """End-to-end metrics scaled to the reference speed, and a report
        with the unscaled figures."""
        samples, reps, omegas, rounds = self.measure(seconds, self.panels)

        def figures(time_of):
            """End-to-end figures with each sample read by time_of."""
            per_panel = [
                {m: statistics.median(map(time_of, v)) for m, v in got.items() if v}
                for got in samples
            ]
            out = {}
            for method in BATTERY:
                out[f"fit_s.{method}"] = statistics.median(
                    p[method] for p in per_panel if method in p
                )
            complete = [p for p in per_panel if len(p) == len(BATTERY)]
            out["battery_panels_per_s"] = len(complete) / sum(sum(p.values()) for p in complete)
            out["replicates_per_s"] = len(reps) / sum(
                statistics.median(map(time_of, r)) for r in reps
            )
            return out

        cal_median = statistics.median(self.cal_s)
        raw = {"setup_s": setup[1], **figures(lambda sample: sample[0])}
        metrics = {"setup_s": setup[0], **figures(self.scaled)}
        metrics = {name: metrics[name] for name, *_ in END_TO_END}

        report = {
            "panels": len(self.panels), "replicates": len(reps), "rounds": rounds,
            "calibration_s": {"median": cal_median, "n": len(self.cal_s)},
            "unscaled": raw,
        }
        for method in BATTERY:
            times = [t for got in samples for t, _ in got[method]]
            report[f"fit_s.{method}.samples"] = len(times)
            tail = tail_percentile(times)
            if tail:
                report[f"fit_s.{method}.p{tail[0]:.0f}_unscaled"] = tail[1]
        for m, v in omegas.items():
            se = np.std(v, ddof=1) / math.sqrt(len(v))
            report[f"mc.omega_hat.{m}"] = f"{np.mean(v):.4f} +- {se:.4f} (n={len(v)})"
        if self.errors:
            report["errors"] = self.errors
        report["samples"] = {"fit": samples, "mc": reps, "calibration": self.cal_s}
        return metrics, report

    def traced(self, spans_path):
        """One untraced round over half the panels, the same round traced,
        then the capped mv_spmle subset; per-layer metrics (unscaled) and
        the tracing overhead."""
        panels = self.panels[: math.ceil(len(self.panels) / 2)]
        marks = [len(self.cal_s)]
        t0 = _clock()
        self.measure(0.0, panels, rounds=1)
        untraced_s = _clock() - t0
        marks.append(len(self.cal_s))

        tracer = Tracer()
        tracer.install()
        try:
            t0 = _clock()
            self.measure(0.0, panels, rounds=1, tracer=tracer)
            traced_s = _clock() - t0
            marks.append(len(self.cal_s))
            self.round_trip(self.panels)
            for panel in self.panels[: self.workload.mv_subset]:
                self.fit_once(panel, "mv_spmle")
        finally:
            tracer.restore()
        tracer.dump(spans_path)
        # both passes at the reference speed, or host noise swamps the overhead
        untraced_ref, traced_ref = (
            took * CAL_REFERENCE_S / statistics.median(self.cal_s[a:b])
            for took, a, b in ((untraced_s, *marks[0:2]), (traced_s, *marks[1:3]))
        )
        metrics = layer_metrics(tracer, traced_ref - untraced_ref, untraced_ref)
        report = {
            "panels": len(panels), "replicates": self.workload.mc_replicates,
            "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": len(tracer.spans),
        }
        missing = unmeasured_metrics(tracer.unmeasured)
        if missing:
            report["unmeasured"] = missing
        if self.errors:
            report["errors"] = self.errors
        return metrics, report
