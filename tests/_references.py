"""Brute-force and scalar references that the tests check the library against.

Walk enumeration and its mean area, the scalar stars-and-bars and ballot
probabilities, the scalar network point distance, a loop-based version of
the local-first network heuristic, and the earlier row-by-row forms of the
three exact kernels (``optimal_match_1d``, ``match_costs_1d`` and
``solve_dense``), which the kernels must equal bit for bit. None of them is
on a sweep's path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rbmatch.assignment import AssignmentSolution, _check_costs
from rbmatch.combinatorics import log_binomial
from rbmatch.exact1d import optimal_match_1d
from rbmatch.network import NetworkModel
from rbmatch.types import Instance1D, MatchResult

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


def stars_bars_prob(m_prime: int, m: int, n: int) -> float:
    """Probability that the first of n-m+1 partition segments holds m_prime of m items.

    Equals C(n - m_prime - 1, n - m - 1) / C(n, n - m). Defined only for
    n > m >= 0; zero when the numerator's arguments fall out of range.
    """
    if n <= m:
        raise ValueError("requires n > m")
    if m < 0 or m_prime < 0:
        raise ValueError("counts must be nonnegative")
    return math.exp(log_binomial(n - m_prime - 1, n - m - 1) - log_binomial(n, n - m))


def ballot_segment_prob(m_hat: int, k: int, a: int, excess: int) -> float:
    """Probability that segment k holds m_hat demand points given a remain to its right.

    ``excess`` is the supply surplus n - m; the segment is a balanced stretch
    of 2*m_hat steps after which the walk never returns to its starting level,
    so the result combines a path-counting ratio with a ballot-style factor
    (excess - k) / (2a + excess - k - 2*m_hat). Requires excess - k >= 1.
    """
    e = excess - k
    if e <= 0:
        raise ValueError("requires excess - k >= 1")
    if a < 0 or m_hat < 0:
        raise ValueError("counts must be nonnegative")
    if m_hat > a:
        return 0.0  # the log ratio below would be -inf - (-inf)
    ratio = math.exp(
        log_binomial(a, m_hat) + log_binomial(a + e, m_hat) - log_binomial(2 * a + e, 2 * m_hat)
    )
    return ratio * e / (2 * a + e - 2 * m_hat)


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


def _heuristic_reference(net, inst):
    """Scalar local-first heuristic: per-edge loops and ``point_distance``."""
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
        ends = np.array(net.edges, dtype=np.int64)
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


def solve_dense_stepwise(costs: np.ndarray) -> AssignmentSolution:
    """Minimum-cost assignment of every row of a dense cost matrix to a
    distinct column, with certifying dual potentials.

    Start: ``u`` is each row's minimum and ``v`` is zero; each row claims
    the lowest-index column of its minimum, and when several rows claim one
    column the lowest-index row keeps it. Then each unmatched row, in index
    order, runs one shortest augmenting path pass (Crouse's rectangular
    form): each step scans one row's reduced costs, so that each column
    keeps the first row that reached its lowest path cost, and takes the
    cheapest unscanned column, the lowest index among ties. The potentials
    change once per pass. The solution is therefore deterministic. Raises
    ValueError unless ``costs`` is 2D with rows <= cols and finite,
    nonnegative entries.
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
    scanned_cost = np.empty(n)  # to each scanned column
    masked_v = np.empty(n)  # v, with -inf at scanned columns
    reduced = np.empty(n)
    better = np.empty(n, dtype=bool)
    predecessor = np.empty(n, dtype=np.int64)
    for root in np.flatnonzero(col_of_row < 0).tolist():
        path_cost.fill(np.inf)
        masked_v[:] = v
        scanned = []
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
            scanned_cost[col] = min_val
            path_cost[col] = np.inf
            masked_v[col] = -np.inf
            scanned.append(col)
            row = int(row_of_col[col])
            if row < 0:
                break
        # one potential update per pass keeps every tree edge tight
        scanned = np.array(scanned)
        shift = min_val - scanned_cost[scanned]
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
    return AssignmentSolution(
        col_of_row=col_of_row,
        row_potentials=u,
        col_potentials=v,
        total_cost=total,
    )
