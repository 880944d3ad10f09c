"""Dense rectangular min-cost bipartite assignment: one solver and a
certificate.

The solver is scipy's compiled ``linear_sum_assignment``, Crouse's
rectangular shortest augmenting path solver (Crouse 2016), loaded from its
one extension file at the first solve: importing ``scipy.optimize`` would
add about 47 MB of peak RSS. ``solve_assignment`` hands it a frozen matrix
to read in place (see ``_InPlace``). ``solve_dense`` certifies an
assignment, the kernel's or a given ``start``, and raises if that fails: an
assignment is optimal exactly when dual potentials exist for it (LP
duality; Ahuja, Magnanti & Orlin 1993), and a few vectorised
label-correcting passes recover them from the assignment alone. A sweep
checks replication 0 so: a start that fails stops the sweep rather than
costing one more solve.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .types import MatchResult, _readonly, _RebuiltWhenCopied, _store

__all__ = [
    "CostMatrix",
    "AssignmentSolution",
    "solve_dense",
    "solve_assignment",
]


# every float64 whose bits, read as an unsigned integer, lie below this is
# +0.0 or positive and finite: the sign bit is clear, the exponent not all ones
_FINITE_NONNEGATIVE_BITS = 0x7FF0000000000000


def _check_costs(costs) -> np.ndarray:
    """``costs`` as a float64 array, or a ValueError naming the failed rule:
    2D, rows <= cols, finite, nonnegative."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError(f"costs must be a 2D array, got shape {costs.shape}")
    if costs.shape[0] > costs.shape[1]:
        raise ValueError(f"need rows <= cols, got {costs.shape[0]} x {costs.shape[1]}")
    # one integer pass settles the common case; -0.0 and every bad entry
    # fall through to min and max, NaN if any entry is
    if (
        costs.size
        and not costs.view(np.uint64).max() < _FINITE_NONNEGATIVE_BITS
        and not (costs.min() >= 0.0 and costs.max() < np.inf)
    ):
        if not np.isfinite(costs).all():
            raise ValueError("costs must be finite")
        raise ValueError("costs must be nonnegative")
    return costs


@dataclass(frozen=True, eq=False)
class CostMatrix(_RebuiltWhenCopied):
    """Dense m x n matrix of nonnegative finite costs, m <= n. A float64
    array it is handed that owns its data is frozen in place: marked
    read-only, not copied; a view is copied first. A view of the array
    taken before it was handed over still writes to the matrix (see
    ``types._readonly``). A pickled or copied matrix is rebuilt through the
    constructor, checked and frozen again."""

    costs: np.ndarray

    def __post_init__(self):
        _store(self, costs=_readonly(_check_costs(self.costs)))


@dataclass(frozen=True, eq=False)
class AssignmentSolution:
    """A certified optimal assignment with its dual potentials: costs -
    u[:, None] - v[None, :] is nonnegative everywhere and zero on matched
    edges, up to rounding and the tolerance stated at ``solve_dense``."""

    col_of_row: np.ndarray
    row_potentials: np.ndarray
    col_potentials: np.ndarray
    total_cost: float


# rows per block in the passes over a cost matrix or its matched columns, here
# and in ``network._cost_matrix``: no temporary of either's size is held
_ROW_BLOCK = 32


def _lower_reach(
    reach: np.ndarray, through: np.ndarray, w: np.ndarray, ks: np.ndarray
) -> np.ndarray:
    """``reach`` lowered in place to min over k in ``ks`` of through[k] + w[k],
    ``_ROW_BLOCK`` rows of ``through`` at a time."""
    for lo in range(0, ks.size, _ROW_BLOCK):
        k = ks[lo : lo + _ROW_BLOCK]
        block = through[k]  # a copy: w is added in place
        block += w[k, None]
        np.minimum(reach, np.minimum.reduce(block, axis=0), out=reach)
    return reach


# tol = _FALL_TOL * total / m, or max(total, max c) / m; a start keeps
# sum(w) <= _CERTIFY_SPREAD * total, which bounds its excess (see ``solve_dense``)
_FALL_TOL = 2.0**-42
_CERTIFY_SPREAD = 1024.0


def _certify(
    costs: np.ndarray, start: np.ndarray, *, largest: float | None = None
) -> AssignmentSolution | None:
    """``start`` with the potentials that certify it, or None if the passes
    show a cycle of negative length or a negative w (see ``solve_dense``);
    given the ``largest`` cost, tol scales with it too and w may dip to -tol."""
    m, n = costs.shape
    matched = costs[np.arange(m), start]
    total = float(matched.sum())
    scale = total if largest is None else max(total, largest)
    tol = _FALL_TOL * scale / m  # a fall of tol or less is rounding
    # w[k] = -v[start[k]], reached by edges start[k] -> start[i] of length
    # c[i, start[k]] - c[i, start[i]]. through[k, i] = c[i, start[k]]: the
    # matched columns stored as rows, so that a pass reads them in row blocks
    through = costs.T[start]
    reach_free = np.full(m, np.inf)  # each row's least cost at a free column
    if m < n:
        free = np.ones(n, dtype=bool)
        free[start] = False
        free_cols = np.flatnonzero(free)
        for lo in range(0, m, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            block = np.take(costs[rows], free_cols, axis=1)
            np.minimum.reduce(block, axis=1, out=reach_free[rows])
    w = np.full(m, np.inf) if m < n else np.zeros(m)
    every = np.arange(m)
    fell = None  # rows whose column fell in the last pass; None: a full pass
    for _ in range(m + 2):
        if fell is None:
            if m == n:
                w -= w.min()
            reach = _lower_reach(reach_free.copy(), through, w, every)
        else:
            reach = _lower_reach(np.full(m, np.inf), through, w, fell)
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
    if not w.min() >= (0.0 if largest is None else -tol):
        return None
    v = np.zeros(n)
    v[start] = -w
    return AssignmentSolution(start, matched + w, v, total)


def solve_dense(costs: np.ndarray, *, start=None) -> AssignmentSolution:
    """Minimum-cost assignment of every row of a dense cost matrix to a
    distinct column, with dual potentials that certify it.

    The assignment a is ``start`` if given: a 1D integer array of one
    distinct column per row (else a ValueError naming ``start``). Without
    it, a is the compiled kernel's, solved on ``costs`` as given, which is
    neither frozen nor changed. Then v = -w, where w[j] is the shortest
    alternating path length to column j from the columns a leaves free, at
    0 (if m = n, from 0 at every column, shifted so that max v = 0), and
    u[i] = c[i, a[i]] + w[a[i]]. A label-correcting search finds w: one
    full pass, in which each row i relaxes its column by min over j of c[i,
    j] + w[j] - c[i, a[i]], then passes over the columns that fell in the
    previous pass only, then a closing full pass. A fall of at most tol is
    not taken, so that rounding around cycles of length 0 cannot lower w
    forever. a is certified if the closing pass lowers nothing within m + 2
    passes (else a cycle of negative length shows it is not optimal) and w
    >= 0. For a ``start``, tol = 2**-42 * total / m, and its total exceeds
    the optimum by at most m * tol + 2**-52 * (total + sum(w)); it must also
    keep sum(w) <= 1024 * total (or have total 0, which no assignment
    undercuts), which bounds that by 2049 * 2**-52 * total < 4.6e-13 *
    total. A true optimum may not: [[1e-6, 1e9]] has sum(w) near 1e9, and a
    pass rounds by an ulp of 1e9. So for the kernel's assignment tol = 2**-42
    * max(total, max c) / m and w >= -tol, as an optimal dense assignment's
    w lie in [0, max c]; its excess is at most 2 * m * tol + the rounding.
    Nothing else is solved: an uncertified ``start`` raises a ValueError
    naming it, an uncertified kernel assignment a RuntimeError. The name is
    kept from when this function also solved the matrix in numpy: the
    sweep's replication-0 check and the benchmark's tracer call it by it.
    Raises ValueError unless ``costs`` is 2D with rows <= cols and finite,
    nonnegative entries.
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
    if m == 0:
        return AssignmentSolution(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(n), 0.0)
    if start is None:
        own = _kernel().linear_sum_assignment(costs)[1]
        if (certified := _certify(costs, own, largest=float(costs.max()))) is None:
            raise RuntimeError("the kernel's assignment is not certified optimal")
        return certified
    certified = _certify(costs, start)
    # sum(w) = -sum(v[start]) exactly: v[start] = -w, and negation is exact
    if certified is None or not (
        -certified.col_potentials[start].sum() <= _CERTIFY_SPREAD * certified.total_cost
        or certified.total_cost == 0.0
    ):
        raise ValueError("start is not certified optimal")
    return certified


def _kernel_path() -> str:
    """Path of scipy's compiled assignment extension, found without
    importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed: it provides the assignment kernel")
    package = spec.submodule_search_locations[0]
    # the interpreter's own suffix, first in the list: sysconfig's EXT_SUFFIX
    # names the same file, but loads the build's config module to say so
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return os.path.join(package, "optimize", "_lsap" + suffix)


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


class _InPlace:
    """A frozen matrix's array interface with the read-only bit cleared.

    The kernel converts its argument with ``PyArray_ContiguousFromAny``,
    which copies any array that is not writeable. Handed this object, it
    reads the frozen buffer in place, and it writes nothing to it: with
    rows <= cols and no ``maximize`` it neither transposes nor negates. The
    array stays read-only to every Python caller; the writeable view exists
    only inside the kernel's call.
    """

    __slots__ = ("__array_interface__", "_costs")

    def __init__(self, costs: np.ndarray):
        interface = costs.__array_interface__  # a new dict at every access
        interface["data"] = (interface["data"][0], False)
        self.__array_interface__ = interface
        self._costs = costs  # keeps the buffer alive while the kernel reads it


def solve_assignment(c: CostMatrix) -> MatchResult:
    """Minimum-total-cost assignment of every row to a distinct column, with
    pairs ordered by row: the kernel's, as ``solve_dense(c.costs)``
    returns it with its potentials."""
    rows, cols = _kernel().linear_sum_assignment(_InPlace(c.costs))
    return MatchResult.from_pairs(np.column_stack((rows, cols)), c.costs[rows, cols])
