"""Exact ground truth on segments: the balanced area identity, the optimal
non-crossing matching dynamic program, the optimal point removal read off
that matching, and the level-by-level feasible removal with local swaps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import Instance1D, MatchResult, SupplyCurve, _curve_area

__all__ = [
    "RemovalSet",
    "balanced_area",
    "optimal_match_1d",
    "optimal_removal",
    "feasible_removal",
]


@dataclass(frozen=True)
class RemovalSet:
    """The n-m supply points left unmatched, as sorted indices into the supply
    list, together with the absolute area of the induced post-removal curve."""

    removed_supply_indices: tuple[int, ...]
    post_removal_area: float


def balanced_area(inst: Instance1D) -> float:
    """Absolute area under the net supply curve of a balanced instance.

    Equals the optimal total matching distance when n = m.
    """
    if inst.n != inst.m:
        raise ValueError("balanced_area requires n = m")
    return SupplyCurve(inst).total_area


def optimal_match_1d(inst: Instance1D) -> MatchResult:
    """Minimum-total-distance assignment of every demand point to a distinct supply point.

    Dynamic program over the sorted coordinates with match-or-skip-supply
    transitions; optimal 1D matchings can always be taken non-crossing, so the
    band of admissible supplies for demand i is i..i+(n-m). Supply-index ties
    resolve to the lowest index. O(m * (n-m+1)). When n = m the band has
    width 1 and the matching is the identity on sorted order; with no demand
    it is empty.

    The m x (n-m+1) band of distances is built in one broadcast; right to
    left, each row gets the next row's suffix minima added in place, and its
    own suffix minima fill its row of one (m+1) x (n-m+1) array, whose last
    row is zero. One comparison then flags every cell that equals its row's
    suffix minimum. The backtrack takes, from the previous offset on, the
    first flagged cell of each row: the first cell equal to the suffix
    minimum at that offset is also the first flagged one, so this is the
    lowest supply index.

    Every band value is a sum of ``abs`` distances from +0.0, so it is never
    -0.0 or NaN; on such doubles the float order is the unsigned order of
    their bits, and a minimum never rounds. So each suffix minimum is taken
    on the ``uint64`` view of the band, with the bits the float minimum gives
    and without its NaN handling.
    """
    xu, xv = inst.demand, inst.supply
    m, n = inst.m, inst.n
    rows = np.arange(m)
    if n == m or m == 0:
        # a new array, not a reshaped view, so from_pairs freezes it uncopied
        return MatchResult.from_pairs(rows[:, None].repeat(2, axis=1), np.abs(xu - xv[:m]))
    width = n - m + 1

    # band[i, d]: |xu[i] - xv[i+d]| plus the best continuation; suffix[i, d]
    # is its suffix minimum at d, the optimal cost when demand i may use
    # offsets >= d
    band = np.subtract(xu[:, None], sliding_window_view(xv, width))
    np.abs(band, out=band)
    suffix = np.zeros((m + 1, width))
    # rows m-1 down to 0 of the band, the suffix row below each, and both
    # rows' bits with their offsets reversed
    band_bits = band.view(np.uint64)[::-1, ::-1]
    suffix_bits = suffix.view(np.uint64)[m - 1 :: -1, ::-1]
    for row, below, row_bits, out in zip(band[::-1], suffix[:0:-1], band_bits, suffix_bits):
        row += below
        np.minimum.accumulate(row_bits, out=out)
    flagged = band == suffix[:m]

    cols = np.empty(m, dtype=np.int64)
    offset = 0
    for i in range(m):
        offset += int(flagged[i, offset:].argmax())
        cols[i] = i + offset
    return MatchResult.from_pairs(np.column_stack((rows, cols)), np.abs(xu - xv[cols]))


# cells of one block of gaps: 8192 doubles, 64 KiB
_GAP_BLOCK_CELLS = 8192


def match_costs_1d(demand: np.ndarray, supply: np.ndarray) -> np.ndarray:
    """Optimal total matching distance of each of R instances, costs only.

    ``demand`` is (R, m) and ``supply`` (R, n) with 1 <= m <= n, each row sorted
    ascending; row r of both is one instance. When n = m the total is the
    sorted-pair sum, the same float ``optimal_match_1d`` returns. Otherwise
    this is the band DP of ``optimal_match_1d`` run on all rows at once in
    ``_band_costs``, keeping no backtrack; it adds the costs right to left,
    so a total can differ from ``optimal_match_1d``'s pairwise sum in the
    last few bits. A side that is not 2D raises a ``ValueError`` naming it
    and its shape. The band DP needs every coordinate finite, and a
    ``ValueError`` names the side that is not.
    """
    if demand.ndim != 2 or supply.ndim != 2:
        name, side = ("demand", demand) if demand.ndim != 2 else ("supply", supply)
        raise ValueError(f"{name} must be a 2D (R, k) array, got shape {side.shape}")
    reps, m = demand.shape
    n = supply.shape[1]
    if supply.shape[0] != reps or not 1 <= m <= n:
        raise ValueError("need (R, m) demand and (R, n) supply rows with 1 <= m <= n")
    if n == m:
        return np.add.reduce(np.abs(demand - supply), axis=1)
    # _band_costs reads a leading +inf supply as padding and drops it unseen
    for name, side in (("demand", demand), ("supply", supply)):
        if not np.isfinite(side).all():
            raise ValueError(f"{name} coordinates must be finite")
    return _band_costs(demand, supply)


def _band_costs(demand: np.ndarray, supply: np.ndarray) -> np.ndarray:
    """The band DP totals of C columns: (C, m) demand and (C, n) supply rows,
    1 <= m < n, each sorted ascending but for a supply row's leading +inf.

    Supply-major: column c's state is ``cost[:, c]``, where ``cost[i]`` is
    the least cost of matching demands i..m-1 to the supplies right of the
    current one; ``cost[m]`` is 0 and the rest start at +inf. Right to left
    over supplies j, each band cell i in [max(0, j-n+m), min(m, j+1)) takes
    ``min(cost[i], cost[i+1] + |y_j - x_i|)``. That is cell (i, j-i) of
    ``optimal_match_1d``'s band: its band value, from the same single add,
    against its suffix minimum at the next offset, and a minimum never
    rounds. So every total has the bits of the demand-major DP.

    A supply row may begin with +inf padding: those steps leave the column
    unchanged, and each step's band has the lower edge of the row without
    them. The cells above that row's own upper edge get values that none of
    its own cells reads, so its total has the bits of the unpadded row.
    Instances that share m run as one call, each right-aligned.

    The state is (m+1, C), columns innermost, so each step is one add and
    one minimum over its band's contiguous cells. The gaps of as many steps
    as fit in 8192 cells (64 KiB), at least one, are built by one
    ``subtract`` and one ``abs``, each step over the window of
    min(m, n-m+1) demand cells that holds its band.
    """
    cols, m = demand.shape
    n = supply.shape[1]
    width = n - m + 1
    height = min(m, width)  # the most cells a band holds
    top = m - height  # the last window's first cell
    # [s] = demand cells s..s+height-1 of every column
    windows = sliding_window_view(np.ascontiguousarray(demand.T), height, axis=0)
    windows = windows.transpose(0, 2, 1)
    cost = np.full((m + 1, cols), np.inf)
    cost[m] = 0.0
    steps = max(1, _GAP_BLOCK_CELLS // (height * cols))
    gaps = np.empty((steps, height, cols))
    for stop in range(n, 0, -steps):
        start = max(0, stop - steps)
        # step j's window starts at min(max(0, j-width+1), top): one further
        # a step, or fixed, except in a block that crosses a bend
        first = min(max(0, start - width + 1), top)
        last = min(max(0, stop - width), top)
        if last - first == stop - 1 - start:
            window = windows[first : last + 1]
        elif first == last:
            window = windows[first]
        else:
            window = windows[np.clip(np.arange(start - width + 1, stop - width + 1), 0, top)]
        # the window rows some step of the block reads: the first step's
        # band starts lowest in its window, the last step's ends highest
        low, high = max(0, start - width + 1 - top), min(m, stop) - last
        block = gaps[: stop - start, : high - low]
        np.subtract(supply[:, start:stop].T[:, None], window[..., low:high, :], out=block)
        np.abs(block, out=block)
        for j in range(stop - 1, start - 1, -1):
            lo, hi = max(0, j - width + 1), min(m, j + 1)
            below = min(lo, top) + low
            gap = block[j - start, lo - below : hi - below]
            gap += cost[lo + 1 : hi + 1]
            np.minimum(cost[lo:hi], gap, out=cost[lo:hi])
    return cost[0]


def _removal_set(curve: SupplyCurve, removed_events) -> RemovalSet:
    """The removal of the given supply events of ``curve``, with the area of
    the curve its remaining points induce: the kept events in order, each
    running sum lowered by one per removed event before it."""
    supply_rank = np.cumsum(curve.values == 1) - 1
    kept = np.ones(len(curve), dtype=bool)
    kept[removed_events] = False
    running = (curve.prefix - np.cumsum(~kept))[kept]
    area = _curve_area(np.diff(curve.coords[kept]), running)
    return RemovalSet(tuple(int(supply_rank[e]) for e in removed_events), area)


def optimal_removal(inst: Instance1D) -> RemovalSet:
    """Remove the n-m supply points that minimize the post-removal curve area.

    The least post-removal area equals the optimal matching cost, so the
    supply points ``optimal_match_1d`` leaves unmatched are an optimal
    removal; the curve keeps the supplies in order, so its k-th supply event
    is supply k. Ties follow that matching's lowest-supply-index rule,
    decided in float: the set is optimal, but need not be the
    lexicographically smallest optimal set.
    """
    if inst.n <= inst.m:
        raise ValueError("optimal_removal requires n > m")
    curve = SupplyCurve(inst)
    unmatched = np.ones(inst.n, dtype=bool)
    unmatched[optimal_match_1d(inst).pairs[:, 1]] = False
    return _removal_set(curve, np.flatnonzero(curve.values == 1)[unmatched])


def feasible_removal(inst: Instance1D, do_swaps: bool = True) -> RemovalSet:
    """Choose n-m supply points to leave unmatched, one per level of net supply.

    The k-th selected point is the first supply event whose running net supply
    equals k with every later event at net supply >= k, which keeps the curve
    nonnegative to its right. With ``do_swaps``, each interior selection k may
    be refined once: when the point immediately after selection k is a supply
    point lying before selection k+1, it replaces selection k+1, trading the
    segment's positive strip down by one level.

    After level k-1's selection no event is at k-1, so level k's first
    qualifying event comes later; one array pass finds them all in order.
    """
    m, n = inst.m, inst.n
    if n <= m:
        raise ValueError("feasible_removal requires n > m")
    curve = SupplyCurve(inst)
    excess = n - m
    is_supply = curve.values == 1
    prefix = curve.prefix
    # the least net supply after each event; the curve ends at n - m
    after = np.append(np.minimum.accumulate(prefix[:0:-1])[::-1], excess)
    events = np.flatnonzero(is_supply & (prefix >= 1) & (prefix <= excess) & (after >= prefix))
    _, first = np.unique(prefix[events], return_index=True)
    removed_events = events[first].tolist()

    if do_swaps:
        for k in range(1, excess):  # interior segments only
            neighbor = removed_events[k - 1] + 1
            if neighbor < removed_events[k] and is_supply[neighbor]:
                removed_events[k] = neighbor

    return _removal_set(curve, removed_events)
