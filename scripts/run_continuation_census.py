"""Census of the Nelder-Mead continuation of the likelihood fits.

Draws seeded random panels of 1-2 trajectories with 2-5 observations
each: gaps from 1/32 to 3, counts up to 3000 (log-uniform) and one step
in five to 0. Every panel is fit by each method. For each method the
script prints its total objective evaluations and rejected Newton
probes, the fits whose stalled Newton run a Nelder-Mead run continued,
the largest objective-evaluation count, and every RuntimeWarning that
escaped fit. A typed error (BdError) counts as a refused fit.

    PYTHONPATH=src python scripts/run_continuation_census.py --seed 1 --panels 600

The continued fits dominate the cost: a Newton fit takes a few
milliseconds, a continued one about a second.
"""

import argparse
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from bdrates import BdError, Panel, Trajectory, fit

LIKELIHOODS = ("spmle", "spmle_adjusted", "mle")
# half the gaps come from this set, as census panels repeat a spacing;
# the rest are uniform on (0.01, 3)
GAPS = (0.03125, 0.5, 1.0, 2.0, 3.0)
MAX_COUNT = 3000
P_EXTINCT = 0.2


def _count(rng: np.random.Generator) -> int:
    return int(math.exp(rng.uniform(0.0, math.log(MAX_COUNT + 1))))


def draw_panel(rng: np.random.Generator) -> Panel:
    trajectories = []
    for _ in range(int(rng.integers(1, 3))):
        n = int(rng.integers(2, 6))
        gaps = [
            GAPS[int(rng.integers(len(GAPS)))] if rng.random() < 0.5 else rng.uniform(0.01, 3.0)
            for _ in range(n - 1)
        ]
        times = tuple(float(t) for t in np.concatenate([[0.0], np.cumsum(gaps)]))
        counts = [_count(rng)]
        for _ in range(n - 1):
            dies = counts[-1] == 0 or rng.random() < P_EXTINCT
            counts.append(0 if dies else _count(rng))
        trajectories.append(Trajectory(times, tuple(counts)))
    return Panel(tuple(trajectories))


def draw_panels(seed: int, n_panels: int) -> list[Panel]:
    rng = np.random.default_rng(seed)
    return [draw_panel(rng) for _ in range(n_panels)]


@dataclass
class MethodCensus:
    fits: int = 0
    refused: int = 0
    seconds: float = 0.0
    evals: int = 0
    rejected: int = 0
    continued: list = field(default_factory=list)  # (panel, result)
    most_evals: tuple = (0, None)  # (evaluations, panel)
    warned: list = field(default_factory=list)  # (panel, warning text)


def census(panels, methods) -> dict[str, MethodCensus]:
    out = {m: MethodCensus() for m in methods}
    for panel in panels:
        for method in methods:
            tally = out[method]
            t0 = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    res = fit(panel, method)
                except BdError:
                    res = None
            tally.seconds += time.perf_counter() - t0
            tally.warned += [
                (panel, f"{w.category.__name__}: {w.message} ({w.filename}:{w.lineno})")
                for w in caught
                if issubclass(w.category, RuntimeWarning)
            ]
            if res is None:
                tally.refused += 1
                continue
            tally.fits += 1
            tally.evals += res.n_obj_evals
            tally.rejected += res.rejected_probes
            if res.continued:
                tally.continued.append((panel, res))
            if res.n_obj_evals > tally.most_evals[0]:
                tally.most_evals = (res.n_obj_evals, panel)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--panels", type=int, default=600)
    ap.add_argument("--methods", default=",".join(LIKELIHOODS))
    args = ap.parse_args(argv)

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    panels = draw_panels(args.seed, args.panels)
    for method, tally in census(panels, methods).items():
        evals, worst = tally.most_evals
        print(
            f"{method}: {tally.fits} fits, {tally.refused} refused, "
            f"{len(tally.continued)} continued, {len(tally.warned)} warnings, "
            f"{tally.seconds:.1f} s"
        )
        print(f"  total: {tally.evals} evaluations, {tally.rejected} rejected probes")
        print(f"  most evaluations: {evals} on {worst!r}")
        for panel, res in tally.continued:
            print(
                f"  continued: {res.n_obj_evals} evaluations, loglik {res.loglik:.6g}, "
                f"rates ({res.rates.lam:.6g}, {res.rates.mu:.6g}) on {panel!r}"
            )
        for panel, text in tally.warned:
            print(f"  warning: {text} on {panel!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
