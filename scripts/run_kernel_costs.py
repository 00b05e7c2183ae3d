"""Per-call cost of the likelihood kernels at each method's optimum.

Simulates seeded single-trajectory panels (lambda 7, mu 6, one
ancestor, 14 observations 0.2 apart, conditioned on survival: the
benchmark's single_traj cell), fits each panel with spmle,
spmle_adjusted and mle, and times at each fit's optimum:

- spa_loglik, the saddlepoint objective (spmle plain, spmle_adjusted
  conditional);
- spa_derivatives cold, with the panel's saddlepoint slot emptied
  inside each timed call, so it costs one spa_loglik sweep (which it
  runs itself) plus the derivatives;
- spa_derivatives after spa_loglik at the same rates, as a Newton fit
  calls it, reading the saddlepoints that sweep left;
- exact_loglik(..., derivatives=True), the exact objective with its
  score and information (mle).

Each figure is the best of 20 calls on one panel; the table gives the
median, smallest and largest over the panels, in microseconds. It is the
per-evaluation layer cost, to read beside the evaluations per fit. Beside
it, passes is the median over the panels of the CGF passes one call
makes (calls of saddlepoint._cgf_terms, each over one gap group's lanes;
0 for a call that reads the saddlepoints of the sweep before it, and for
the exact kernel).

    PYTHONPATH=src python scripts/run_kernel_costs.py --seed 1 --panels 12
"""

import argparse
import statistics
import sys
import time

import numpy as np

from bdrates import BdError, Panel, Rates, fit, saddlepoint
from bdrates.exact import exact_loglik
from bdrates.saddlepoint import spa_derivatives, spa_loglik
from bdrates.simulate import SimConfig, simulate_panel

RATES = Rates(7.0, 6.0)
TIMES = tuple(0.2 * (j + 1) for j in range(14))
REPEATS = 20
VARIANTS = {"spmle": "plain", "spmle_adjusted": "conditional"}


def draw_panels(seed: int, n_panels: int) -> list[Panel]:
    """n_panels one-trajectory panels, each simulated from its own seed
    derived from seed and its index."""
    panels = []
    for i in range(n_panels):
        sub = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        config = SimConfig(RATES, 1, TIMES, condition_nonextinct=True, seed=sub)
        panels.append(simulate_panel(config, 1))
    return panels


def best_of(call) -> float:
    """Smallest wall time of REPEATS calls, in microseconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def cgf_passes(call) -> int:
    """The calls of saddlepoint._cgf_terms that one call() makes."""
    real, count = saddlepoint._cgf_terms, 0

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    saddlepoint._cgf_terms = counting
    try:
        call()
    finally:
        saddlepoint._cgf_terms = real
    return count


def cost(call) -> tuple[float, int]:
    """(microseconds, CGF passes) of call."""
    return best_of(call), cgf_passes(call)


def panel_costs(panel: Panel) -> dict[tuple[str, str], tuple[float, int]]:
    """{(kernel, method): (microseconds, CGF passes)} at each method's
    optimum on one panel; a method whose fit or kernel raises a BdError
    is left out."""
    out = {}
    for method, variant in VARIANTS.items():
        try:
            rates = fit(panel, method).rates
            slot = panel.transitions._saddlepoints
            out["spa_loglik", method] = cost(lambda: spa_loglik(panel, rates, variant))
            out["spa_derivatives cold", method] = cost(
                lambda: (slot.clear(), spa_derivatives(panel, rates, variant))
            )
            spa_loglik(panel, rates, variant)
            out["spa_derivatives after loglik", method] = cost(
                lambda: spa_derivatives(panel, rates, variant)
            )
        except BdError:
            continue
    try:
        rates = fit(panel, "mle").rates
        out["exact_loglik+derivatives", "mle"] = cost(
            lambda: exact_loglik(panel, rates, derivatives=True)
        )
    except BdError:
        pass
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--panels", type=int, default=12)
    args = ap.parse_args(argv)

    rows: dict[tuple[str, str], list[tuple[float, int]]] = {}
    for panel in draw_panels(args.seed, args.panels):
        for key, row in panel_costs(panel).items():
            rows.setdefault(key, []).append(row)
    print(
        f"{'kernel':<30} {'method':<15} {'median_us':>10} {'min_us':>10} {'max_us':>10} "
        f"{'passes':>7} {'panels':>7}"
    )
    for (kernel, method), row in rows.items():
        costs = [us for us, _ in row]
        passes = statistics.median([p for _, p in row])
        print(
            f"{kernel:<30} {method:<15} {statistics.median(costs):>10.1f} "
            f"{min(costs):>10.1f} {max(costs):>10.1f} {passes:>7.1f} {len(costs):>7d}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
