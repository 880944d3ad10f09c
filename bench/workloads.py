"""Benchmark workloads and the metrics each one reports.

Every workload is one of the ``rbmatch compare`` preset grids at a fixed rep
count. Grids are plain tuples here; the sweep child turns them into an
``ExperimentConfig``, so rbmatch receives nothing but the generated config.
This module imports nothing from rbmatch: the parent process never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

# Reference records are stored for master seeds 0..REFERENCE_SEEDS-1; the
# benchmark seed s runs master seed s % REFERENCE_SEEDS.
REFERENCE_SEEDS = 16
# Every run also repeats its sweep once on this many worker processes and
# requires a byte-identical CSV: the worker-count determinism promise.
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One sweep: grid kind and points, and replications per point.

    ``records`` names the reference record set of the grid and rep count.
    """

    kind: str
    points: tuple
    reps: int
    records: str


def fig4a_points() -> tuple:
    """Balanced sizes m = n = 1..200."""
    return tuple((n, n) for n in range(1, 201))


def fig4b_points() -> tuple:
    """Surplus sweep at m = 50, n = 51..191 step 10."""
    return tuple((50, n) for n in range(51, 200, 10))


def fig6_points() -> tuple:
    """36-edge networks, degrees 3/4/6, mu = 5, lam = 5..25:
    (degree, mu, lam, length, edge_count)."""
    return tuple(
        (d, 5.0, float(lam), 1.0, 36) for d in (3, 4, 6) for lam in (5, 10, 15, 20, 25)
    )


WORKLOADS = {
    # recursion_table is ~90% of it: the estimator layer on trial. fig4c and
    # fig4d run the same code at m = 100 and 200 but take 7 s and 60 s a
    # sweep on a 2-vCPU Xeon; fig4b's 1.6 s leaves room for the repeats a
    # steady median needs.
    "surplus_sweep": Workload("segment", fig4b_points(), 10, "fig4b_r10"),
    # 3,000 small band-1 DPs: exact1d, types and per-replication overhead
    "balanced_sweep": Workload("segment", fig4a_points(), 15, "fig4a_r15"),
    # solve_dense and the cost matrix: assignment and network
    "network_sweep": Workload("network", fig6_points(), 5, "fig6_r5"),
}

# Per-layer metrics of each workload: the layers it exercises, named
# "<module>.<public name>.<measure>". Layers a workload never calls are not
# listed for it, so none is ever reported as 0 s.
_SEGMENT_COMMON = (
    "exact1d.optimal_match_1d.calls",
    "exact1d.optimal_match_1d.busy_s",
    "exact1d.optimal_match_1d.cells",
    "types.Instance1D.busy_s",
    "types.MatchResult.from_pairs.busy_s",
    "estimators.baseline_estimate.busy_s",
    "montecarlo.run_experiment.self_s",
    "trace.overhead_frac",
)
LAYER_METRICS = {
    "surplus_sweep": (
        "estimators.recursion_table.calls",
        "estimators.recursion_table.busy_s",
        "estimators.recursion_table.cells",
        "estimators.closed_unbalanced_estimate.busy_s",
    )
    + _SEGMENT_COMMON,
    "balanced_sweep": ("estimators.balanced_estimate.busy_s",) + _SEGMENT_COMMON,
    "network_sweep": (
        "estimators.recursion_table.calls",
        "estimators.recursion_table.busy_s",
        "estimators.recursion_table.cells",
        "estimators.balanced_estimate.busy_s",
        "estimators.dispatch_estimate.busy_s",
        "network.network_estimate.busy_s",
        "network.build_regular_network.busy_s",
        "network.sample_instance.calls",
        "network.sample_instance.busy_s",
        "network.sample_accept_ratio",
        "network.exact_network_match.self_s",
        "assignment.CostMatrix.busy_s",
        "assignment.solve_dense.busy_s",
        "assignment.solve_dense.cells",
        "assignment.solve_assignment.self_s",
        "types.MatchResult.from_pairs.busy_s",
        "montecarlo.run_experiment.self_s",
        "montecarlo.pool_efficiency",
        "montecarlo.pool_idle_s",
        "trace.overhead_frac",
    ),
}

# Coarse layer groups for the split the traced run reports: the share of a
# workload's traced wall time that is self time of each group's spans.
LAYER_GROUPS = {
    "estimators": ("estimators.",),
    "exact1d+types": ("exact1d.", "types."),
    "network+assignment": ("network.", "assignment."),
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer measure, from its final name component."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last in ("calls", "cells"):
        return "count"
    return "ratio"
