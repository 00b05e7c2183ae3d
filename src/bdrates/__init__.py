"""Estimation of birth and death rates from discretely observed counts of
a linearly growing population."""

__version__ = "0.1.0"

from .errors import BdError, CapError, DataError, DomainError, SolverError
from .types import Panel, Rates, Trajectory
from .exact import (
    alpha_beta,
    exact_loglik,
    log_transition_prob,
)
from .saddlepoint import (
    cgf_eval,
    high_mass_region,
    solve_saddlepoint,
    spa_loglik,
    spa_pmf,
    spa_pmf_conditional,
    spa_pmf_normalized,
)
from .gw import GwEstimate, GwMoments, gw_estimate, gw_invert, gw_moments
from .gaussian import QgFit, QgParams, qg_fit, qg_loglik, qg_profile_xi
from .estimate import (
    METHODS,
    CompareRow,
    EstimateResult,
    FitOptions,
    compare,
    fit,
    format_compare_table,
    numeric_hessian_se,
)
from .multivariate import mv_loglik
from .simulate import (
    BenchmarkCell,
    BenchmarkReport,
    MethodStats,
    SimConfig,
    child_seed,
    run_benchmark,
    simulate_panel,
    summarize,
)
from .panel_io import (
    read_panel,
    read_results,
    result_to_dict,
    write_benchmark_csv,
    write_benchmark_json,
    write_panel,
    write_results,
)
