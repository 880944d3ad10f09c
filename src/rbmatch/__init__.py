"""rbmatch: estimators, exact solvers and a Monte-Carlo harness for random
bipartite matching on segments and regular discrete networks."""

from .assignment import AssignmentSolution, CostMatrix, solve_assignment, solve_dense
from .combinatorics import (
    expected_zero_returns,
    harel_area,
    normal_cdf,
    normal_pdf,
    stars_bars_distribution,
)
from .estimators import (
    balanced_estimate,
    baseline_estimate,
    closed_unbalanced_estimate,
    closed_unbalanced_estimates,
    dispatch_estimate,
    edge_estimate,
    recursion_table,
    recursive_estimate,
    recursive_estimates,
    step_length_correction,
)
from .exact1d import (
    RemovalSet,
    balanced_area,
    feasible_removal,
    optimal_match_1d,
    optimal_removal,
)
from .montecarlo import (
    EdgePoint,
    ExperimentConfig,
    ExperimentKind,
    NetworkPoint,
    SegmentPoint,
    SummaryRecord,
    records_to_csv,
    records_to_json,
    relative_error_table,
    run_experiment,
)
from .network import (
    NetworkEstimateParts,
    NetworkInstance,
    NetworkModel,
    build_regular_network,
    exact_network_match,
    heuristic_network_match,
    network_estimate,
    sample_instance,
)
from .types import EdgeParams, Instance1D, MatchResult, SupplyCurve, build_supply_curve

__version__ = "0.1.0"
