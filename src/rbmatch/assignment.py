"""Dense rectangular min-cost bipartite assignment.

``solve_assignment`` takes its pairs from scipy's compiled
``linear_sum_assignment``, Crouse's rectangular shortest augmenting path
solver (Crouse 2016). Only that one extension file is loaded, at the first
solve: importing ``scipy.optimize`` would add about 47 MB of peak RSS.
``solve_dense`` is the numpy reference: a row-reduction start, then the same
shortest augmenting paths, returning dual potentials that certify the
optimum. Given a complete assignment as ``start``, it first tries to
certify that one instead: an assignment is optimal exactly when dual
potentials exist for it (LP duality; Ahuja, Magnanti & Orlin 1993), and a
few vectorised label-correcting passes recover them from the assignment
alone. Only if they fail is the matrix solved from scratch.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sysconfig
from dataclasses import dataclass

import numpy as np

from .types import MatchResult, _readonly, _RebuiltWhenCopied, _store

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
class CostMatrix(_RebuiltWhenCopied):
    """Dense m x n matrix of nonnegative finite costs, m <= n. A float64
    array it is handed is frozen in place: marked read-only, not copied. A
    pickled or copied matrix is rebuilt through the constructor, checked
    and frozen again."""

    costs: np.ndarray

    def __post_init__(self):
        _store(self, costs=_readonly(_check_costs(self.costs)))


@dataclass(frozen=True, eq=False)
class AssignmentSolution:
    """Optimal assignment with the final dual potentials.

    The potentials certify optimality: costs - u[:, None] - v[None, :] is
    nonnegative everywhere and zero on matched edges, up to rounding and,
    for a certified start, the tolerance stated at ``solve_dense``.
    """

    col_of_row: np.ndarray
    row_potentials: np.ndarray
    col_potentials: np.ndarray
    total_cost: float


# a certified start's total exceeds the optimum by at most m * tol + 2**-52 *
# (total + sum(w)), tol = _FALL_TOL * total / m: with sum(w) <=
# _CERTIFY_SPREAD * total, that is below 2049 * 2**-52 * total
_FALL_TOL = 2.0**-42
_CERTIFY_SPREAD = 1024.0


def _certify(costs: np.ndarray, start: np.ndarray) -> AssignmentSolution | None:
    """``start`` with potentials that certify it, or None if they are not
    found (see ``solve_dense``)."""
    m, n = costs.shape
    matched = costs[np.arange(m), start]
    total = float(matched.sum())
    # a fall of tol or less is rounding: through a row's own column, or
    # around a cycle of length 0
    tol = _FALL_TOL * total / m
    # w = -v on the matched columns, w[k] for column start[k]: from the free
    # columns, at 0 (or, if m = n, from 0 at every column), the shortest
    # alternating path to each column, an edge start[k] -> start[i] costing
    # c[i, start[k]] - c[i, start[i]]
    sub = costs[:, start]
    free = np.ones(n, dtype=bool)
    free[start] = False
    reach_free = np.full(m, np.inf)
    if m < n:  # 64 rows at a time: no copy of the whole matrix is held
        for lo in range(0, m, 64):
            reach_free[lo : lo + 64] = costs[lo : lo + 64, free].min(axis=1)
    w = np.full(m, np.inf) if m < n else np.zeros(m)
    fell = None  # rows whose column fell in the last pass; None: a full pass
    for _ in range(m + 2):
        if fell is None:
            if m == n:
                w -= w.min()
            reach = np.minimum((sub + w).min(axis=1), reach_free)
        else:
            reach = (sub[:, fell] + w[fell]).min(axis=1)
        below = reach - matched
        lower = np.flatnonzero(below < w - tol)
        if lower.size:
            w[lower] = below[lower]
            fell = lower
        elif fell is None:  # a full pass that lowers nothing: the certificate
            break
        else:
            fell = None
    else:
        return None  # still falling: a cycle of negative length
    # a zero total needs no bound: no assignment undercuts it
    if not (w.min() >= 0.0 and (w.sum() <= _CERTIFY_SPREAD * total or total == 0.0)):
        return None
    v = np.zeros(n)
    v[start] = -w
    return AssignmentSolution(start, matched + w, v, total)


def solve_dense(costs: np.ndarray, *, start=None) -> AssignmentSolution:
    """Minimum-cost assignment of every row of a dense cost matrix to a
    distinct column, with certifying dual potentials.

    ``start``, if given, is a complete assignment: a 1D integer array of one
    distinct column per row (else a ValueError naming ``start``). It is
    returned, with its total, if potentials that certify it are found;
    otherwise the matrix is solved from scratch as below. The column
    potentials are v = -w, where w[j] is the shortest alternating path
    length to column j from the columns ``start`` leaves free, at 0 (if m =
    n, from 0 at every column, shifted so that max v = 0); u[i] = c[i,
    start[i]] + w[start[i]]. A label-correcting search finds them: one full
    pass, in which each row i relaxes its column by min over j of c[i, j] +
    w[j] - c[i, start[i]], then passes over the columns that fell in the
    previous pass only, then a closing full pass. A fall of at most tol =
    2**-42 * total / m is not taken, so that rounding around cycles of
    length 0 cannot lower w forever. The start is certified if the closing
    pass lowers nothing within m + 2 passes (else a cycle of negative
    length shows it is not optimal), w >= 0 and sum(w) <= 1024 * total (or
    the total is 0, which no assignment undercuts). Its total then exceeds
    the optimum by at most m * tol + 2**-52 * (total + sum(w)) <= 2049 *
    2**-52 * total < 4.6e-13 * total, tolerance and rounding together.

    Without ``start``: ``u`` is each row's minimum and ``v`` is zero; each
    row claims the lowest-index column of its minimum, and when several
    rows claim one column the lowest-index row keeps it. Then each
    unmatched row, in index order, runs one shortest augmenting path pass
    (Crouse's rectangular form): each step scans one row's reduced costs,
    and a column takes that row as predecessor only where its path cost
    strictly falls, so it keeps the first row that reached its lowest path
    cost; the step then takes the cheapest unscanned column, the lowest
    index among ties. The potentials change once per pass. The solution is
    therefore deterministic. Raises ValueError unless ``costs`` is 2D with
    rows <= cols and finite, nonnegative entries.
    """
    costs = _check_costs(costs)
    m, n = costs.shape
    if start is not None:
        start = np.asarray(start)
        if start.dtype.kind not in "iu" or start.shape != (m,):
            raise ValueError(
                f"start must be a 1D integer array of {m} columns, "
                f"got dtype {start.dtype} and shape {start.shape}"
            )
        if m and not (start.min() >= 0 and start.max() < n):
            raise ValueError(f"start columns must lie in [0, {n})")
        start = start.astype(np.int64)
        if np.bincount(start, minlength=n).max(initial=0) > 1:
            raise ValueError("start must give every row a distinct column")
        certified = _certify(costs, start) if m else None
        if certified is not None:
            return certified
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
    reduced = np.empty(n)
    better = np.empty(n, dtype=bool)
    predecessor = np.empty(n, dtype=np.int64)
    for root in np.flatnonzero(col_of_row < 0).tolist():
        path_cost.fill(np.inf)
        masked_v[:] = v
        scanned, step_costs = [], []
        row = root
        min_val = 0.0
        while True:
            # reduced costs from ``row``, +inf at scanned columns
            np.subtract(costs[row], masked_v, out=reduced)
            reduced += min_val - u[row]
            np.less(reduced, path_cost, out=better)
            np.copyto(path_cost, reduced, where=better)
            np.copyto(predecessor, row, where=better)
            col = int(path_cost.argmin())
            min_val = float(path_cost[col])
            if min_val == np.inf:  # only if the reduced costs overflowed
                raise ValueError("costs too large: no finite augmenting path")
            path_cost[col] = np.inf
            masked_v[col] = -np.inf
            scanned.append(col)
            step_costs.append(min_val)
            row = int(row_of_col[col])
            if row < 0:
                break
        # one potential update per pass keeps every tree edge tight
        shift = min_val - np.array(step_costs)
        v[scanned] -= shift
        u[row_of_col[scanned[:-1]]] += shift[:-1]
        u[root] += min_val
        # augment: hand each column on the path to its predecessor row
        while True:
            row = int(predecessor[col])
            row_of_col[col] = row
            col, col_of_row[row] = int(col_of_row[row]), col
            if row == root:
                break

    total = float(costs[np.arange(m), col_of_row].sum())
    return AssignmentSolution(col_of_row, u, v, total)


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
