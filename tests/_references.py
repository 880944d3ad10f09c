"""Brute-force and scalar references that the tests check the library against.

Walk enumeration and its mean area, the scalar stars-and-bars and ballot
probabilities, the earlier Floyd–Warshall form of the network hop counts,
the scalar network point distance, a loop-based version of
the local-first network heuristic, the earlier row-by-row forms of the two
exact segment kernels (``optimal_match_1d`` and ``match_costs_1d``), the
earlier column-gathering ``_cost_matrix``, the earlier event-by-event scan
of ``feasible_removal``, the earlier ``optimal_removal`` that recomputes
each choice on its forward pass and the earlier lexsort merge of a supply
curve's events, which the library must equal bit for bit,
and the exact mean rank area over all interleavings. The earlier forms of
the two input rules and of ``baseline_estimate``'s sum pin the answers of
the library's faster ones. The earlier unblocked certificate of a
``solve_dense`` start, whole-matrix passes over the matched columns, pins
the blocked one bit for bit. An earlier numpy shortest-augmenting-path
solver, which shares no code with the compiled kernel, is the assignment
tests' independent reference, and a min-cost flow on the network
subdivided at its points, which shares no code with the network distance
routine, is the exact network optimum's. None of them is on a sweep's path.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.optimize import linprog

from rbmatch.assignment import _CERTIFY_SPREAD, _FALL_TOL, AssignmentSolution
from rbmatch.exact1d import RemovalSet, _removal_set, match_costs_1d, optimal_match_1d
from rbmatch.network import NetworkInstance, NetworkModel
from rbmatch.types import Instance1D, MatchResult, SupplyCurve

_MAX_ORACLE_N = 10


def enumerate_balanced_walks(n: int) -> np.ndarray:
    """All C(2n, n) balanced +-1 step sequences as a matrix of shape (paths, 2n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _MAX_ORACLE_N:
        raise ValueError(f"enumeration limited to n <= {_MAX_ORACLE_N}")
    steps = np.full((math.comb(2 * n, n), 2 * n), -1, dtype=np.int8)
    for row, ups in enumerate(itertools.combinations(range(2 * n), n)):
        steps[row, list(ups)] = 1
    return steps


def walk_area_oracle(n: int) -> float:
    """Brute-force mean absolute area over every balanced 2n-step walk.

    Per-path area is the sum of |height| after each step. Areas are integers,
    so the mean is an exact rational evaluated in floating point. Limited to
    n <= 10.
    """
    if n == 0:
        return 0.0
    steps = enumerate_balanced_walks(n)
    heights = np.cumsum(steps, axis=1, dtype=np.int64)
    total = int(np.abs(heights).sum())
    return total / steps.shape[0]


def expected_rank_area(m: int, n: int) -> Fraction:
    """Exact mean, per demand point, of the least unit-step walk area over
    all C(m + n, m) equally likely interleavings of m demand and n supply
    points, 1 <= m <= n.

    An interleaving's rank instance puts its points at 0, 1, ..., m + n - 1.
    By the removal identity its optimal matching cost, an integer, is the
    least post-removal walk area in unit steps. The ``match_costs_1d``
    totals of every interleaving, from one batched call, are summed as
    integers and divided by C(m + n, m) * m.
    """
    demand = np.array(list(itertools.combinations(range(m + n), m)), dtype=np.int64)
    is_supply = np.ones((len(demand), m + n), dtype=bool)
    is_supply[np.arange(len(demand))[:, None], demand] = False
    supply = np.nonzero(is_supply)[1].reshape(len(demand), n)
    totals = match_costs_1d(demand.astype(np.float64), supply.astype(np.float64))
    assert (totals == np.rint(totals)).all()  # sums of integer gaps, each exact
    return Fraction(int(totals.sum()), len(demand) * m)


def stars_bars_prob(m_prime: int, m: int, n: int) -> float:
    """Probability that the first of n-m+1 partition segments holds m_prime of m items.

    Equals C(n - m_prime - 1, n - m - 1) / C(n, n - m), one correctly
    rounded division of exact integers. Defined only for n > m >= 0; zero
    when m_prime > m.
    """
    if n <= m:
        raise ValueError("requires n > m")
    if m < 0 or m_prime < 0:
        raise ValueError("counts must be nonnegative")
    return math.comb(n - m_prime - 1, n - m - 1) / math.comb(n, n - m)


def ballot_segment_prob(m_hat: int, k: int, a: int, excess: int) -> float:
    """Probability that segment k holds m_hat demand points given a remain to its right.

    ``excess`` is the supply surplus n - m; the segment is a balanced stretch
    of 2*m_hat steps after which the walk never returns to its starting level,
    so the result combines a path-counting ratio with a ballot-style factor
    (excess - k) / (2a + excess - k - 2*m_hat), taken as one correctly rounded
    division of exact integers. Requires excess - k >= 1.
    """
    e = excess - k
    if e <= 0:
        raise ValueError("requires excess - k >= 1")
    if a < 0 or m_hat < 0:
        raise ValueError("counts must be nonnegative")
    if m_hat > a:
        return 0.0  # C(2a + e, 2 m_hat) in the denominator may be zero
    numerator = math.comb(a, m_hat) * math.comb(a + e, m_hat) * e
    return numerator / (math.comb(2 * a + e, 2 * m_hat) * (2 * a + e - 2 * m_hat))


def all_pairs_hops_floyd_warshall(node_count: int, edges: np.ndarray) -> np.ndarray:
    """Hop counts between all nodes as floats, inf between components, by
    Floyd–Warshall over the dense matrix: the earlier form of the breadth-first
    ``network._all_pairs_hops``, which must equal it."""
    dist = np.full((node_count, node_count), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[edges[:, 0], edges[:, 1]] = dist[edges[:, 1], edges[:, 0]] = 1.0
    for k in range(node_count):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return dist


def point_distance(net: NetworkModel, a: tuple[int, float], b: tuple[int, float]) -> float:
    """Shortest along-edge distance between two on-edge locations: the
    scalar reference that ``_cost_matrix`` equals entry for entry.

    Same edge: the direct segment against the detours through either pair of
    endpoints. Different edges: the best of the four endpoint combinations of
    offset-to-node, node-to-node, node-to-offset.
    """
    ea, oa = a
    eb, ob = b
    length = net.length
    ua, va = net.edges[ea]
    ub, vb = net.edges[eb]
    nd = net.node_distance
    if ea == eb:
        return min(
            abs(oa - ob),
            oa + nd[ua, vb] + (length - ob),
            (length - oa) + nd[va, ub] + ob,
        )
    return min(
        oa + nd[ua, ub] + ob,
        oa + nd[ua, vb] + (length - ob),
        (length - oa) + nd[va, ub] + ob,
        (length - oa) + nd[va, vb] + (length - ob),
    )


def _per_edge(edge, offset, edge_count):
    bounds = np.searchsorted(edge, np.arange(edge_count + 1))
    return [offset[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _heuristic_reference(inst):
    """Scalar local-first heuristic: per-edge loops and ``point_distance``."""
    net = inst.net
    length = net.length
    per_edge_demand = _per_edge(inst.demand_edge, inst.demand_offset, net.edge_count)
    per_edge_supply = _per_edge(inst.supply_edge, inst.supply_offset, net.edge_count)
    d_base = np.cumsum([0] + [len(a) for a in per_edge_demand])
    s_base = np.cumsum([0] + [len(a) for a in per_edge_supply])

    pairs, dists = [], []
    leftover_demand = []  # (edge, offset, flat index)
    leftover_supply = {}
    for e, (dem, sup) in enumerate(zip(per_edge_demand, per_edge_supply)):
        m_e, n_e = len(dem), len(sup)
        if m_e <= n_e:
            local_dem = np.arange(m_e)
        else:
            central = np.argsort(np.abs(dem - length / 2.0), kind="stable")[:n_e]
            local_dem = np.sort(central)
        res = optimal_match_1d(Instance1D(dem[local_dem], sup, length))
        matched_sup = set()
        for di, sj in res.pairs:
            pairs.append((int(d_base[e] + local_dem[di]), int(s_base[e] + sj)))
            dists.append(abs(dem[local_dem[di]] - sup[sj]))
            matched_sup.add(sj)
        spare = [(float(sup[j]), int(s_base[e] + j)) for j in range(n_e) if j not in matched_sup]
        if spare:
            leftover_supply[e] = spare
        if m_e > n_e:
            skipped = sorted(set(range(m_e)) - set(int(x) for x in local_dem))
            leftover_demand.extend((e, float(dem[i]), int(d_base[e] + i)) for i in skipped)

    if leftover_demand:
        ends = net.edges
        nd = net.node_distance
        edge_near = np.minimum(nd[:, ends[:, 0]], nd[:, ends[:, 1]])
        for e, off, gd in leftover_demand:
            u_end, v_end = net.edges[e]
            origin = u_end if off <= length - off else v_end
            layers = np.rint(edge_near[origin] / length).astype(np.int64)
            best = None
            for k in range(int(layers.max()) + 1):
                for e2 in np.flatnonzero(layers == k):
                    for off2, gs in leftover_supply.get(int(e2), ()):
                        d = point_distance(net, (e, off), (int(e2), off2))
                        if best is None or d < best[0]:
                            best = (d, int(e2), off2, gs)
                if best is not None:
                    break
            d, e2, off2, gs = best
            pairs.append((gd, gs))
            dists.append(d)
            leftover_supply[e2].remove((off2, gs))
            if not leftover_supply[e2]:
                del leftover_supply[e2]

    order = np.argsort([p[0] for p in pairs], kind="stable")
    return MatchResult.from_pairs([pairs[i] for i in order], [dists[i] for i in order])


def cost_matrix_columnwise(inst: NetworkInstance) -> np.ndarray:
    """Demand-by-supply matrix of shortest along-edge distances on
    ``inst.net``: the least of the four endpoint routes (out of either end
    of the demand edge, the node distance, in at either end of the supply
    edge) and, on one edge, the direct segment |a - b|.

    Each demand point's distance to every node is gathered at either end of
    every supply edge into one of two buffers, which in-place adds of the
    supply offsets and an in-place minimum merge. Rounding is monotone, so
    min(x, y) + b equals min(x + b, y + b) and each entry equals the four-way
    minimum of the summed routes bit for bit.
    """
    net = inst.net
    d_edge, d_off = inst.demand_edge, inst.demand_offset
    s_edge, s_off = inst.supply_edge, inst.supply_offset
    length = net.length
    ends = net.edges
    nd = net.node_distance

    to_node = np.minimum(
        d_off[:, None] + nd[ends[d_edge, 0]],
        (length - d_off)[:, None] + nd[ends[d_edge, 1]],
    )
    cost = np.take(to_node, ends[s_edge, 0], axis=1)
    cost += s_off
    other = np.take(to_node, ends[s_edge, 1], axis=1)
    other += length - s_off
    np.minimum(cost, other, out=cost)

    # same-edge pairs: each demand point against its edge's supply block
    s_start = np.searchsorted(s_edge, np.arange(net.edge_count))
    s_count = np.bincount(s_edge, minlength=net.edge_count)
    per_row = s_count[d_edge]
    rows = np.repeat(np.arange(d_edge.size), per_row)
    first = np.cumsum(per_row) - per_row
    cols = np.arange(rows.size) - np.repeat(first - s_start[d_edge], per_row)
    flat = cost.reshape(-1)  # a view: cost is C-contiguous
    at = rows * s_edge.size + cols
    flat[at] = np.minimum(flat[at], np.abs(d_off[rows] - s_off[cols]))
    return cost


def network_flow_cost(inst: NetworkInstance) -> float:
    """The optimal matching total of ``inst`` as an uncapacitated min-cost
    flow on its network subdivided at its points, solved by HiGHS: an exact
    oracle that reads only ``inst.net.edges``, ``inst.net.length`` and the
    four point arrays, and shares no code with ``_cost_matrix``,
    ``node_distance`` or ``_all_pairs_hops``.

    Its vertices are the network's nodes, the demand points, the supply
    points and one sink. Along each edge, its two ends and the points on it
    are taken in offset order, and each consecutive two are joined both ways
    at the cost of their gap. Each demand point sends one unit, and each
    supply point has an arc of capacity 1 to the sink, which takes them all.
    A flow splits into one path per demand point, each to a distinct supply
    point and none shorter than that pair's network distance, and the
    optimal pairs' shortest paths make a flow: so both optima are equal.
    """
    ends, length = inst.net.edges, inst.net.length
    edge_count, node_count = len(ends), int(ends.max()) + 1
    m, n = inst.demand_edge.size, inst.supply_edge.size
    sink = node_count + m + n
    # every position on every edge: both ends, then the points
    edge = np.concatenate([np.tile(np.arange(edge_count), 2), inst.demand_edge, inst.supply_edge])
    offset = np.concatenate(
        [np.zeros(edge_count), np.full(edge_count, length), inst.demand_offset, inst.supply_offset]
    )
    vertex = np.concatenate([ends[:, 0], ends[:, 1], node_count + np.arange(m + n)])
    order = np.lexsort((offset, edge))
    edge, offset, vertex = edge[order], offset[order], vertex[order]
    along = edge[1:] == edge[:-1]
    left, right, gap = vertex[:-1][along], vertex[1:][along], np.diff(offset)[along]
    supply = node_count + m + np.arange(n)
    tail = np.concatenate([left, right, supply])
    head = np.concatenate([right, left, np.full(n, sink)])
    cost = np.concatenate([gap, gap, np.zeros(n)])
    arcs = np.arange(cost.size)
    # node-arc incidence: +1 where an arc leaves, -1 where it enters
    incidence = sparse.csr_array(
        (np.repeat([1.0, -1.0], cost.size), (np.concatenate([tail, head]), np.tile(arcs, 2))),
        shape=(sink + 1, cost.size),
    )
    sent = np.zeros(sink + 1)
    sent[node_count : node_count + m] = 1.0
    sent[sink] = -m
    upper = np.concatenate([np.full(2 * gap.size, np.inf), np.ones(n)])
    bounds = np.column_stack((np.zeros_like(upper), upper))
    res = linprog(cost, A_eq=incidence, b_eq=sent, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"the min-cost flow failed: {res.message}")
    return float(res.fun)


def solve_dense_reference(costs) -> AssignmentSolution:
    """Minimum-cost assignment of every row to a distinct column, with its
    dual potentials: an earlier numpy solver that shares no code with the
    compiled kernel. From zero potentials, one Dijkstra pass per row that
    shifts every used potential at every step."""
    costs = np.asarray(costs, dtype=np.float64)
    m, n = costs.shape
    u = np.zeros(m)
    v = np.zeros(n)
    row_of_col = np.full(n, -1, dtype=np.int64)
    for i in range(m):
        min_reduced = np.full(n, np.inf)
        predecessor = np.full(n, -2, dtype=np.int64)  # -1 marks the tree root
        used = np.zeros(n, dtype=bool)
        current_row = i
        previous_col = -1
        while True:
            reduced = costs[current_row] - u[current_row] - v
            better = ~used & (reduced < min_reduced)
            min_reduced[better] = reduced[better]
            predecessor[better] = previous_col
            available = np.where(used, np.inf, min_reduced)
            next_col = int(np.argmin(available))
            delta = float(available[next_col])
            # shift potentials so every tree edge becomes tight
            u[i] += delta
            used_cols = np.flatnonzero(used)
            if used_cols.size:
                u[row_of_col[used_cols]] += delta
                v[used_cols] -= delta
            min_reduced[~used] -= delta
            used[next_col] = True
            previous_col = next_col
            if row_of_col[next_col] == -1:
                break
            current_row = row_of_col[next_col]
        # augment: pull each column's row from its predecessor on the path
        col = previous_col
        while True:
            prev = int(predecessor[col])
            if prev == -1:
                row_of_col[col] = i
                break
            row_of_col[col] = row_of_col[prev]
            col = prev

    col_of_row = np.full(m, -1, dtype=np.int64)
    matched = np.flatnonzero(row_of_col >= 0)
    col_of_row[row_of_col[matched]] = matched
    total = float(costs[np.arange(m), col_of_row].sum()) if m else 0.0
    return AssignmentSolution(
        col_of_row=col_of_row, row_potentials=u, col_potentials=v, total_cost=total
    )


def certify_unblocked(costs: np.ndarray, start: np.ndarray) -> AssignmentSolution | None:
    """``solve_dense``'s certificate of a complete assignment ``start``, or
    None if it fails: the same passes, each over the whole m x m matrix of
    matched columns at once."""
    m, n = costs.shape
    matched = costs[np.arange(m), start]
    total = float(matched.sum())
    tol = _FALL_TOL * total / m
    sub = costs[:, start]
    free = np.ones(n, dtype=bool)
    free[start] = False
    reach_free = costs[:, free].min(axis=1) if m < n else np.full(m, np.inf)
    w = np.full(m, np.inf) if m < n else np.zeros(m)
    fell = None
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
        elif fell is None:
            break
        else:
            fell = None
    else:
        return None
    if not (w.min() >= 0.0 and (w.sum() <= _CERTIFY_SPREAD * total or total == 0.0)):
        return None
    v = np.zeros(n)
    v[start] = -w
    return AssignmentSolution(start, matched + w, v, total)


def optimal_match_1d_rowwise(inst: Instance1D) -> MatchResult:
    """Minimum-total-distance assignment of every demand point to a distinct supply point.

    Dynamic program over the sorted coordinates with match-or-skip-supply
    transitions; optimal 1D matchings can always be taken non-crossing, so the
    band of admissible supplies for demand i is i..i+(n-m). Supply-index ties
    resolve to the lowest index. O(m * (n-m+1)). When n = m the band has
    width 1 and the matching is the identity on sorted order.
    """
    xu, xv = inst.demand, inst.supply
    m, n = inst.m, inst.n
    rows = np.arange(m)
    if n == m:
        return MatchResult.from_pairs(np.column_stack((rows, rows)), np.abs(xu - xv))
    width = n - m + 1

    # cost_rows[i][d]: |xu[i] - xv[i+d]| plus best continuation; suffix minima
    # give the optimal cost when demand i may use supplies at offset >= d.
    cost_rows: list[np.ndarray] = []
    suffix_rows: list[np.ndarray] = []
    best_next = np.zeros(width)
    for i in range(m - 1, -1, -1):
        row = np.abs(xu[i] - xv[i : i + width]) + best_next
        suffix = np.minimum.accumulate(row[::-1])[::-1]
        cost_rows.append(row)
        suffix_rows.append(suffix)
        best_next = suffix
    cost_rows.reverse()
    suffix_rows.reverse()

    cols = np.empty(m, dtype=np.int64)
    offset = 0
    for i in range(m):
        row = cost_rows[i]
        # first offset achieving the suffix minimum = lowest supply index
        target = suffix_rows[i][offset]
        offset += int(np.flatnonzero(row[offset:] == target)[0])
        cols[i] = i + offset
    return MatchResult.from_pairs(np.column_stack((rows, cols)), np.abs(xu - xv[cols]))


def merged_events_lexsort(inst: Instance1D) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates and +1/-1 values of ``inst``'s supply curve events,
    merged by one lexsort on the coordinate and then on the negated value, so
    supply comes first at a tie: the merge ``SupplyCurve`` must equal."""
    coords = np.concatenate([inst.supply, inst.demand])
    values = np.concatenate([np.ones(inst.n, dtype=np.int64), -np.ones(inst.m, dtype=np.int64)])
    order = np.lexsort((-values, coords))
    return coords[order], values[order]


def feasible_removal_scan(inst: Instance1D, do_swaps: bool = True) -> RemovalSet:
    """``feasible_removal`` as a left-to-right scan over the supply curve's
    events: for k = 1..n-m in turn, the k-th selection is the next supply
    event at net supply k with every later event at net supply >= k. The
    swaps are ``feasible_removal``'s. Requires n > m."""
    curve = SupplyCurve(inst)
    excess = inst.n - inst.m
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

    return _removal_set(curve, removed_events)


def optimal_removal_recompute(inst: Instance1D) -> RemovalSet:
    """``optimal_removal`` whose forward pass recomputes the take and keep
    costs of every supply event from the stored cost-to-go table instead of
    reading the backward pass's choices. Requires n > m."""
    m, n = inst.m, inst.n
    curve = SupplyCurve(inst)
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

    removed_events = []
    used = 0
    for i in range(count):
        if is_supply[i] and used < excess:
            take = gaps[i] * abs(prefix[i] - (used + 1)) + cost_to_go[i + 1, used + 1]
            keep = gaps[i] * abs(prefix[i] - used) + cost_to_go[i + 1, used]
            if take <= keep:
                removed_events.append(i)
                used += 1
    return _removal_set(curve, removed_events)


def match_costs_1d_rowwise(demand: np.ndarray, supply: np.ndarray) -> np.ndarray:
    """Optimal total matching distance of each of R instances, costs only.

    ``demand`` is (R, m) and ``supply`` (R, n) with 1 <= m <= n, each row sorted
    ascending; row r of both is one instance. When n = m the total is the
    sorted-pair sum, the same float ``optimal_match_1d`` returns. Otherwise
    this is the band DP of ``optimal_match_1d`` run on all rows at once,
    keeping only the current (R, n-m+1) row and no backtrack; it adds the
    costs right to left, so a total can differ from ``optimal_match_1d``'s
    pairwise sum in the last few bits.
    """
    reps, m = demand.shape
    n = supply.shape[1]
    if supply.shape[0] != reps or not 1 <= m <= n:
        raise ValueError("need (R, m) demand and (R, n) supply rows with 1 <= m <= n")
    if n == m:
        return np.abs(demand - supply).sum(axis=1)
    width = n - m + 1
    windows = sliding_window_view(supply, width, axis=1)  # [r, i] = supply[r, i:i+width]
    best_next = np.zeros((reps, width))
    for i in range(m - 1, -1, -1):
        row = np.abs(demand[:, i, None] - windows[:, i]) + best_next
        best_next = np.minimum.accumulate(row[:, ::-1], axis=1)[:, ::-1]
    return best_next[:, 0]


def check_count_isinstance(name: str, value, least: int = 0) -> int:
    """The count rule as it was before plain ints skipped the
    abstract-base-class test."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def check_positive_isinstance(name: str, value) -> float:
    """The density and length rule as it was before plain floats skipped the
    abstract-base-class test, and before the range test moved to the float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return float(value)


def baseline_sum_np_sum(m: int, n: int, length: float = 1.0) -> float:
    """``baseline_estimate``'s arithmetic as it was, summed by ``np.sum``."""
    i = np.arange(1, m + 1, dtype=np.float64)
    r = (i - 1.0) / n
    total = float(np.sum((1.0 - r**i) / ((n - i + 1.0) / n)))
    return length * total / (2.0 * m * (n + 1))
