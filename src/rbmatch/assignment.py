"""Dense rectangular min-cost bipartite assignment.

``solve_assignment`` takes its pairs from scipy's compiled
``linear_sum_assignment``, Crouse's rectangular shortest augmenting path
solver (Crouse 2016). Only that one extension file is loaded, at the first
solve: importing ``scipy.optimize`` would add about 47 MB of peak RSS.
``solve_dense`` is the numpy reference: a row-reduction start, then the same
shortest augmenting paths, returning dual potentials that certify the
optimum.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sysconfig
from dataclasses import dataclass

import numpy as np

from .types import MatchResult, _readonly

__all__ = [
    "CostMatrix",
    "AssignmentSolution",
    "solve_dense",
    "solve_assignment",
]


def _check_costs(costs) -> np.ndarray:
    """``costs`` as a float64 array, or a ValueError naming the failed rule:
    2D, rows <= cols, finite, nonnegative."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError(f"costs must be a 2D array, got shape {costs.shape}")
    if costs.shape[0] > costs.shape[1]:
        raise ValueError(f"need rows <= cols, got {costs.shape[0]} x {costs.shape[1]}")
    # min is NaN if any entry is: two reductions, no temporary
    if costs.size and not (costs.min() >= 0.0 and costs.max() < np.inf):
        if not np.isfinite(costs).all():
            raise ValueError("costs must be finite")
        raise ValueError("costs must be nonnegative")
    return costs


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense m x n matrix of nonnegative finite costs, m <= n. A float64
    array it is handed is frozen in place: marked read-only, not copied."""

    costs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "costs", _readonly(_check_costs(self.costs)))


@dataclass(frozen=True, eq=False)
class AssignmentSolution:
    """Optimal assignment with the final dual potentials.

    The potentials certify optimality: costs - u[:, None] - v[None, :] is
    nonnegative everywhere and zero on matched edges.
    """

    col_of_row: np.ndarray
    row_potentials: np.ndarray
    col_potentials: np.ndarray
    total_cost: float


def solve_dense(costs: np.ndarray) -> AssignmentSolution:
    """Minimum-cost assignment of every row of a dense cost matrix to a
    distinct column, with certifying dual potentials.

    Start: ``u`` is each row's minimum and ``v`` is zero; each row claims
    the lowest-index column of its minimum, and when several rows claim one
    column the lowest-index row keeps it. Then each unmatched row, in index
    order, runs one shortest augmenting path pass (Crouse's rectangular
    form): each step scans one row's reduced costs, so that each column
    keeps the first row that reached its lowest path cost, and takes the
    cheapest unscanned column, the lowest index among ties. A step stores
    its reduced costs in a per-pass buffer and lowers the path costs with
    an in-place minimum; after the pass, each column on the augmenting path
    takes as predecessor the first stored row equal to its path cost. The
    potentials change once per pass. The solution is therefore
    deterministic. Raises ValueError unless ``costs`` is 2D with rows <=
    cols and finite, nonnegative entries.
    """
    costs = _check_costs(costs)
    m, n = costs.shape
    col_of_row = np.full(m, -1, dtype=np.int64)
    row_of_col = np.full(n, -1, dtype=np.int64)
    v = np.zeros(n)
    if m == 0:
        return AssignmentSolution(col_of_row, np.zeros(0), v, 0.0)
    u = costs.min(axis=1)
    cols, rows = np.unique(costs.argmin(axis=1), return_index=True)
    col_of_row[rows] = cols
    row_of_col[cols] = rows

    path_cost = np.empty(n)  # to each unscanned column; inf once scanned
    masked_v = np.empty(n)  # v, with -inf at scanned columns
    # row k: reduced costs from the row scanned at step k of the pass; a pass
    # scans distinct rows, and pages it never reaches are never touched
    reduced = np.empty((m, n))
    for root in np.flatnonzero(col_of_row < 0).tolist():
        path_cost.fill(np.inf)
        masked_v[:] = v
        step_rows, scanned, step_costs = [], [], []
        row = root
        min_val = 0.0
        while True:
            # reduced costs from ``row``, +inf at scanned columns
            step = reduced[len(step_rows)]
            np.subtract(costs[row], masked_v, out=step)
            step += min_val - u[row]
            np.minimum(path_cost, step, out=path_cost)
            col = int(path_cost.argmin())
            min_val = float(path_cost[col])
            if min_val == np.inf:  # only if the reduced costs overflowed
                raise ValueError("costs too large: no finite augmenting path")
            path_cost[col] = np.inf
            masked_v[col] = -np.inf
            step_rows.append(row)
            scanned.append(col)
            step_costs.append(min_val)
            row = int(row_of_col[col])
            if row < 0:
                break
        # one potential update per pass keeps every tree edge tight
        shift = min_val - np.array(step_costs)
        v[scanned] -= shift
        u[step_rows[1:]] += shift[:-1]
        u[root] += min_val
        # augment: hand each column on the path to its predecessor, the
        # first row whose reduced cost reached the column's path cost
        steps = reduced[: len(step_rows)]
        while True:
            row = step_rows[int(steps[:, col].argmin())]
            row_of_col[col] = row
            col, col_of_row[row] = int(col_of_row[row]), col
            if row == root:
                break

    total = float(costs[np.arange(m), col_of_row].sum())
    return AssignmentSolution(
        col_of_row=col_of_row,
        row_potentials=u,
        col_potentials=v,
        total_cost=total,
    )


def _kernel_path() -> str:
    """Path of scipy's compiled assignment extension, found without
    importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed: it provides the assignment kernel")
    package = spec.submodule_search_locations[0]
    return os.path.join(package, "optimize", "_lsap" + sysconfig.get_config_var("EXT_SUFFIX"))


@functools.cache
def _kernel():
    """scipy's ``_lsap`` extension module, loaded once per process from its
    file alone."""
    path = _kernel_path()
    if not os.path.isfile(path):
        raise ImportError(f"assignment kernel not found: {path}")
    spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve_assignment(c: CostMatrix) -> MatchResult:
    """Minimum-total-cost assignment of every row to a distinct column, with
    pairs ordered by row. Among tied optima the kernel's choice may differ
    from ``solve_dense``'s; the totals agree to rounding."""
    rows, cols = _kernel().linear_sum_assignment(c.costs)
    return MatchResult.from_pairs(np.column_stack((rows, cols)), c.costs[rows, cols])
