"""Brute-force and scalar references that the tests check the library against.

Walk enumeration and its mean area, the scalar stars-and-bars and ballot
probabilities, the scalar network point distance, and a loop-based version
of the local-first network heuristic. None of them is on a sweep's path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

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
