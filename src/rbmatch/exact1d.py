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
    this is the band DP of ``optimal_match_1d`` run on all rows at once,
    keeping only the current band row and no backtrack; it adds the costs
    right to left, so a total can differ from ``optimal_match_1d``'s pairwise
    sum in the last few bits. The band DP needs every coordinate finite, and
    a ``ValueError`` names the side that is not.

    Replications are innermost: the band row is held as (n-m+1, R) with its
    offsets reversed, so the suffix minimum is a forward in-place
    ``minimum.accumulate`` along axis 0. It is taken on the ``uint64`` view
    of the row, which orders these non-negative, NaN-free sums as the floats
    do and gives the same bits (see ``optimal_match_1d``). The gaps of as
    many steps as fit in 8192 cells (64 KiB), at least one, are built by one
    ``subtract`` and one ``abs`` over a sliding window of the reversed
    supply, and the steps then add them one at a time.
    """
    reps, m = demand.shape
    n = supply.shape[1]
    if supply.shape[0] != reps or not 1 <= m <= n:
        raise ValueError("need (R, m) demand and (R, n) supply rows with 1 <= m <= n")
    if n == m:
        return np.add.reduce(np.abs(demand - supply), axis=1)
    # a NaN's bits order above +inf, so the integer minimum would drop it unseen
    for name, side in (("demand", demand), ("supply", supply)):
        if not np.isfinite(side).all():
            raise ValueError(f"{name} coordinates must be finite")
    width = n - m + 1
    # [j] = demand m-1-j of every replication
    demand_t = np.ascontiguousarray(demand[:, ::-1].T)
    supply_t = np.ascontiguousarray(supply[:, ::-1].T)
    # [j, k] = supply n-1-j-k: demand m-1-j's band at offset width-1-k
    windows = sliding_window_view(supply_t, width, axis=0).transpose(0, 2, 1)
    steps = min(m, max(1, _GAP_BLOCK_CELLS // (width * reps)))
    gaps = np.empty((steps, width, reps))
    best = np.zeros((width, reps))
    best_bits = best.view(np.uint64)
    for start in range(0, m, steps):
        stop = min(start + steps, m)
        block = gaps[: stop - start]
        np.subtract(windows[start:stop], demand_t[start:stop, None], out=block)
        np.abs(block, out=block)
        for gap in block:
            best += gap
            np.minimum.accumulate(best_bits, axis=0, out=best_bits)
    return best[-1]


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
