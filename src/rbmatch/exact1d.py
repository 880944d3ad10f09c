"""Exact ground truth on segments: the balanced area identity, optimal
non-crossing matching, the optimal point-removal dynamic program, and the
scan-based feasible removal with local swaps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import Instance1D, MatchResult, build_supply_curve

__all__ = [
    "RemovalSet",
    "balanced_area",
    "optimal_match_1d",
    "match_costs_1d",
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
    return build_supply_curve(inst).total_area


def optimal_match_1d(inst: Instance1D) -> MatchResult:
    """Minimum-total-distance assignment of every demand point to a distinct supply point.

    Dynamic program over the sorted coordinates with match-or-skip-supply
    transitions; optimal 1D matchings can always be taken non-crossing, so the
    band of admissible supplies for demand i is i..i+(n-m). Supply-index ties
    resolve to the lowest index. O(m * (n-m+1)). When n = m the band has
    width 1 and the matching is the identity on sorted order; with no demand
    it is empty.

    The m x (n-m+1) band of distances is built in one broadcast; right to
    left, each row gets the next row's suffix minima added in place, and a
    cell is flagged where the row equals its own suffix minimum. The
    backtrack takes, from the previous offset on, the first flagged cell of
    each row: the first cell equal to the suffix minimum at that offset is
    also the first flagged one, so this is the lowest supply index.
    """
    xu, xv = inst.demand, inst.supply
    m, n = inst.m, inst.n
    rows = np.arange(m)
    if n == m or m == 0:
        return MatchResult.from_pairs(np.column_stack((rows, rows)), np.abs(xu - xv[:m]))
    width = n - m + 1

    # band[i, d]: |xu[i] - xv[i+d]| plus the best continuation; its suffix
    # minimum at d is the optimal cost when demand i may use offsets >= d
    band = np.subtract(xu[:, None], sliding_window_view(xv, width))
    np.abs(band, out=band)
    flagged = np.empty(band.shape, dtype=bool)
    suffix = np.zeros(width)
    for i in range(m - 1, -1, -1):
        row = band[i]
        row += suffix
        np.minimum.accumulate(row[::-1], out=suffix[::-1])
        np.equal(row, suffix, out=flagged[i])

    cols = np.empty(m, dtype=np.int64)
    offset = 0
    for i in range(m):
        offset += int(flagged[i, offset:].argmax())
        cols[i] = i + offset
    return MatchResult.from_pairs(np.column_stack((rows, cols)), np.abs(xu - xv[cols]))


def match_costs_1d(demand: np.ndarray, supply: np.ndarray) -> np.ndarray:
    """Optimal total matching distance of each of R instances, costs only.

    ``demand`` is (R, m) and ``supply`` (R, n) with 1 <= m <= n, each row sorted
    ascending; row r of both is one instance. When n = m the total is the
    sorted-pair sum, the same float ``optimal_match_1d`` returns. Otherwise
    this is the band DP of ``optimal_match_1d`` run on all rows at once,
    keeping only the current band row and no backtrack; it adds the costs
    right to left, so a total can differ from ``optimal_match_1d``'s pairwise
    sum in the last few bits.

    Replications are innermost: the band row is held as (n-m+1, R) with its
    offsets reversed, so the suffix minimum is a forward in-place
    ``minimum.accumulate`` along axis 0, and each step reuses one gap buffer.
    """
    reps, m = demand.shape
    n = supply.shape[1]
    if supply.shape[0] != reps or not 1 <= m <= n:
        raise ValueError("need (R, m) demand and (R, n) supply rows with 1 <= m <= n")
    if n == m:
        return np.abs(demand - supply).sum(axis=1)
    width = n - m + 1
    demand_t = np.ascontiguousarray(demand.T)  # [i] = demand i of every replication
    # [j + k] = supply n-1-j-k: demand m-1-j's band at offset width-1-k
    supply_t = np.ascontiguousarray(supply[:, ::-1].T)
    gap = np.empty((width, reps))
    best = np.zeros((width, reps))
    for j in range(m):
        np.subtract(supply_t[j : j + width], demand_t[m - 1 - j], out=gap)
        np.abs(gap, out=gap)
        best += gap
        np.minimum.accumulate(best, axis=0, out=best)
    return best[-1]


def _removal_set(inst: Instance1D, is_supply: np.ndarray, removed_events) -> RemovalSet:
    """The removal of the given supply events of ``inst``'s supply curve,
    with the area of the curve its remaining points induce."""
    supply_rank = np.cumsum(is_supply) - 1
    indices = tuple(int(supply_rank[e]) for e in removed_events)
    keep = np.ones(inst.n, dtype=bool)
    keep[list(indices)] = False
    reduced = Instance1D(inst.demand, inst.supply[keep], inst.length)
    return RemovalSet(indices, build_supply_curve(reduced).total_area)


def optimal_removal(inst: Instance1D) -> RemovalSet:
    """Remove the n-m supply points that minimize the post-removal curve area.

    Exact dynamic program over (event index, removals used); the area term of
    each event is gap * |prefix - removals so far|. Among equal-area optima the
    lexicographically smallest supply-index set is returned.
    """
    m, n = inst.m, inst.n
    if n <= m:
        raise ValueError("optimal_removal requires n > m")
    curve = build_supply_curve(inst)
    excess = n - m
    count = len(curve)
    is_supply = curve.values == 1
    gaps = np.append(curve.gaps, 0.0)  # the last event has no gap cost
    prefix = curve.prefix
    removals = np.arange(excess + 1)

    # cost_to_go[i, r]: optimal remaining area from event i with r removals used
    cost_to_go = np.full((count + 1, excess + 1), np.inf)
    cost_to_go[count, excess] = 0.0
    for i in range(count - 1, -1, -1):
        keep = gaps[i] * np.abs(prefix[i] - removals) + cost_to_go[i + 1]
        cost_to_go[i] = keep
        if is_supply[i]:
            take = gaps[i] * np.abs(prefix[i] - (removals[:-1] + 1))
            take += cost_to_go[i + 1, 1:]
            cost_to_go[i, :-1] = np.minimum(keep[:-1], take)

    # forward pass, removing as early as optimality allows
    removed_events = []
    used = 0
    for i in range(count):
        if is_supply[i] and used < excess:
            take = gaps[i] * abs(prefix[i] - (used + 1)) + cost_to_go[i + 1, used + 1]
            keep = gaps[i] * abs(prefix[i] - used) + cost_to_go[i + 1, used]
            if take <= keep:
                removed_events.append(i)
                used += 1
    return _removal_set(inst, is_supply, removed_events)


def feasible_removal(inst: Instance1D, do_swaps: bool = True) -> RemovalSet:
    """Left-to-right scan choosing n-m supply points to leave unmatched.

    The k-th selected point is the first supply event whose running net supply
    equals k with every later event at net supply >= k, which keeps the curve
    nonnegative to its right. With ``do_swaps``, each interior selection k may
    be refined once: when the point immediately after selection k is a supply
    point lying before selection k+1, it replaces selection k+1, trading the
    segment's positive strip down by one level.
    """
    m, n = inst.m, inst.n
    if n <= m:
        raise ValueError("feasible_removal requires n > m")
    curve = build_supply_curve(inst)
    excess = n - m
    count = len(curve)
    is_supply = curve.values == 1
    prefix = curve.prefix
    suffix_min = np.minimum.accumulate(prefix[::-1])[::-1]

    removed_events = []
    i = 0
    for k in range(1, excess + 1):
        while True:
            if (
                is_supply[i]
                and prefix[i] == k
                and (i + 1 >= count or suffix_min[i + 1] >= k)
            ):
                removed_events.append(i)
                i += 1
                break
            i += 1

    if do_swaps:
        for k in range(1, excess):  # interior segments only
            neighbor = removed_events[k - 1] + 1
            if neighbor < removed_events[k] and is_supply[neighbor]:
                removed_events[k] = neighbor

    return _removal_set(inst, is_supply, removed_events)
