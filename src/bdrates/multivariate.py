"""Joint-path saddlepoint likelihood, which is the plain saddlepoint one.

The saddlepoint approximation to the pmf of a whole observed path,
taken in all N coordinates at once, factorizes exactly into the
univariate saddlepoint pmfs of its transitions:

- an exponentially tilted branching-process path is again a branching
  process, with generation-dependent offspring laws;
- so the path CGF's Hessian is semiseparable, Cov(Z_i, Z_l) =
  Var(Z_i) times the product of the tilted means in between, and its
  inverse is tridiagonal;
- its determinant therefore factors into the per-transition K'' terms,
  and the exponent K(x) - x.k sums per transition.

Both are the univariate saddlepoint terms at the transitions' own
saddlepoints, so the N-dimensional solve gives nothing the per-transition
sweep does not.
"""

from __future__ import annotations

from .exact import geom_params  # unused here; perfbench's tracer wraps this name
from .saddlepoint import spa_loglik
from .types import Panel, Rates

__all__ = ["mv_loglik"]


def mv_loglik(panel: Panel, rates: Rates) -> float:
    """Joint-path saddlepoint log-likelihood of a panel: the plain
    saddlepoint log-likelihood, by the factorization above."""
    return spa_loglik(panel, rates, variant="plain")
