"""Regular networks with Poisson points on edges: construction, sampling,
shortest-path point distances, exact and heuristic matching, and the
local/global decomposition estimator."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .assignment import CostMatrix, solve_assignment
from .combinatorics import normal_cdf, normal_pdf
from .estimators import edge_estimate
from .exact1d import optimal_match_1d
from .types import EdgeParams, Instance1D, MatchResult

__all__ = [
    "NetworkModel",
    "NetworkInstance",
    "NetworkEstimateParts",
    "regular_edges",
    "build_regular_network",
    "sample_instance",
    "point_distance",
    "exact_network_match",
    "heuristic_network_match",
    "network_estimate",
    "d2_probabilities",
]

SUPPORTED_DEGREES = (3, 4, 6)
DEFAULT_SEARCH_LAYERS = 10

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """A connected D-regular graph whose edges all have the same length.

    ``edges[k] = (a, b)`` joins node ids a and b; ``node_distance[a, b]`` is
    the shortest-path distance in du between nodes.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    length: float
    degree: int
    node_distance: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def to_json(self) -> str:
        return json.dumps(
            {
                "degree": self.degree,
                "nodes": self.node_count,
                "edges": [[a, b, self.length] for a, b in self.edges],
            }
        )


def _torus_dims(node_count: int) -> tuple[int, int] | None:
    """Most-square factorization a*b = node_count with both sides >= 3."""
    best = None
    for a in range(3, int(math.isqrt(node_count)) + 1):
        if node_count % a == 0 and node_count // a >= 3:
            best = (a, node_count // a)
    return best


def _grid_edges(rows: int, cols: int, diagonal: bool) -> list[tuple[int, int]]:
    def node(x, y):
        return (x % rows) * cols + (y % cols)

    edges = []
    for x in range(rows):
        for y in range(cols):
            edges.append((node(x, y), node(x + 1, y)))
            edges.append((node(x, y), node(x, y + 1)))
            if diagonal:
                edges.append((node(x, y), node(x + 1, y + 1)))
    return edges


def _all_pairs_hops(node_count: int, edges) -> np.ndarray:
    dist = np.full((node_count, node_count), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b in edges:
        dist[a, b] = dist[b, a] = 1.0
    for k in range(node_count):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return dist


def regular_edges(degree: int, edge_count: int) -> tuple[tuple[int, int], ...]:
    """Edge list of the D-regular layout with ``edge_count`` edges.

    Degree 4 uses a square torus, degree 6 a triangular torus (square torus
    plus one diagonal per cell), and degree 3 a circulant cycle with antipodal
    chords. Raises for (degree, edge_count) pairs these topologies cannot
    realize. Cheap: no distances are computed.
    """
    if degree not in SUPPORTED_DEGREES:
        raise ValueError(f"degree must be one of {SUPPORTED_DEGREES}")
    if (2 * edge_count) % degree != 0:
        raise ValueError("2*edge_count must be divisible by degree")
    node_count = 2 * edge_count // degree

    if degree == 3:
        # cycle 0-1-...-V-1-0 plus chords i <-> i + V/2
        if node_count % 2 != 0 or node_count < 4:
            raise ValueError("degree 3 needs an even node count >= 4")
        half = node_count // 2
        edges = [(i, (i + 1) % node_count) for i in range(node_count)]
        edges += [(i, i + half) for i in range(half)]
    else:
        dims = _torus_dims(node_count)
        if dims is None:
            raise ValueError(
                f"cannot factor {node_count} nodes into a torus with sides >= 3"
            )
        edges = _grid_edges(*dims, diagonal=(degree == 6))

    edges = tuple(tuple(sorted(e)) for e in edges)
    if len(set(edges)) != len(edges):
        raise ValueError("topology produced duplicate edges")
    deg = np.zeros(node_count, dtype=np.int64)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    if not (deg == degree).all():
        raise ValueError("topology is not regular with the requested degree")
    return edges


def build_regular_network(degree: int, edge_count: int, length: float) -> NetworkModel:
    """Construct a vertex-transitive D-regular network with equal-length edges.

    The layout is ``regular_edges(degree, edge_count)``; raises for pairs it
    cannot realize and for a nonpositive length.
    """
    if not length > 0.0:
        raise ValueError("length must be positive")
    edges = regular_edges(degree, edge_count)
    node_count = 2 * edge_count // degree
    hops = _all_pairs_hops(node_count, edges)
    if not np.isfinite(hops).all():
        raise ValueError("topology is not connected")
    dist = hops * length
    dist.flags.writeable = False
    return NetworkModel(
        node_count=node_count,
        edges=edges,
        length=float(length),
        degree=degree,
        node_distance=dist,
    )


@dataclass(frozen=True, eq=False)
class NetworkInstance:
    """Per-edge realized point offsets, sorted ascending within each edge."""

    per_edge_demand: tuple[np.ndarray, ...]
    per_edge_supply: tuple[np.ndarray, ...]

    @property
    def total_demand(self) -> int:
        return sum(len(a) for a in self.per_edge_demand)

    @property
    def total_supply(self) -> int:
        return sum(len(a) for a in self.per_edge_supply)

    def demand_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (edge_index, offset) arrays in edge order."""
        return _flatten(self.per_edge_demand)

    def supply_points(self) -> tuple[np.ndarray, np.ndarray]:
        return _flatten(self.per_edge_supply)


def _flatten(per_edge) -> tuple[np.ndarray, np.ndarray]:
    counts = [len(a) for a in per_edge]
    edge_idx = np.repeat(np.arange(len(per_edge)), counts)
    offsets = np.concatenate(per_edge) if edge_idx.size else np.empty(0)
    return edge_idx, offsets


def sample_instance(net: NetworkModel, mu: float, lam: float, seed) -> NetworkInstance:
    """Draw Poisson(mu*L) demand and Poisson(lam*L) supply points per edge.

    ``seed`` may be an integer or a numpy Generator; identical streams give
    identical instances.
    """
    if mu <= 0 or lam <= 0:
        raise ValueError("densities must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    demand = []
    supply = []
    for _ in net.edges:
        m_e = rng.poisson(mu * net.length)
        n_e = rng.poisson(lam * net.length)
        demand.append(np.sort(rng.uniform(0.0, net.length, m_e)))
        supply.append(np.sort(rng.uniform(0.0, net.length, n_e)))
    return NetworkInstance(per_edge_demand=tuple(demand), per_edge_supply=tuple(supply))


def point_distance(net: NetworkModel, a: tuple[int, float], b: tuple[int, float]) -> float:
    """Shortest along-edge distance between two on-edge locations.

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


def _cost_matrix(net: NetworkModel, inst: NetworkInstance) -> np.ndarray:
    """Demand-by-supply ``point_distance`` matrix.

    Each demand point's distance to every node (out through either end of
    its edge) is gathered at the two supply endpoints; same-edge pairs then
    take the direct segment if it is shorter. Rounding is monotone, so
    min(x, y) + b equals min(x + b, y + b) and the entries match the
    four-way minimum of ``point_distance`` bit for bit.
    """
    d_edge, d_off = inst.demand_points()
    s_edge, s_off = inst.supply_points()
    length = net.length
    ends = np.array(net.edges, dtype=np.int64)
    nd = net.node_distance

    to_node = np.minimum(
        d_off[:, None] + nd[ends[d_edge, 0]],
        (length - d_off)[:, None] + nd[ends[d_edge, 1]],
    )
    cost = to_node[:, ends[s_edge, 0]] + s_off
    np.minimum(cost, to_node[:, ends[s_edge, 1]] + (length - s_off), out=cost)

    # same-edge pairs: each demand point against its edge's supply block
    s_start = np.searchsorted(s_edge, np.arange(net.edge_count))
    s_count = np.bincount(s_edge, minlength=net.edge_count)
    per_row = s_count[d_edge]
    rows = np.repeat(np.arange(d_edge.size), per_row)
    first = np.cumsum(per_row) - per_row
    cols = np.arange(rows.size) - np.repeat(first - s_start[d_edge], per_row)
    direct = np.abs(d_off[rows] - s_off[cols])
    cost[rows, cols] = np.minimum(cost[rows, cols], direct)
    return cost


def exact_network_match(net: NetworkModel, inst: NetworkInstance) -> MatchResult:
    """Optimal matching of all demand to supply under the network metric.

    Pairs index into the flattened point lists (edges in index order, offsets
    ascending within an edge).
    """
    if inst.total_demand > inst.total_supply:
        raise ValueError("more demand than supply; instance is infeasible")
    if inst.total_demand == 0:
        return MatchResult(pairs=(), total_distance=0.0, mean_distance=0.0)
    return solve_assignment(CostMatrix(_cost_matrix(net, inst)))


def heuristic_network_match(net: NetworkModel, inst: NetworkInstance) -> MatchResult:
    """Local-first matching: per-edge optimal matching, then a layered search.

    Edges with surplus demand keep the points nearest the edge middle matched
    locally; each leftover demand point then searches outward layer by layer
    (layer k holds the edges whose nearer endpoint is k*L from its origin
    node) and takes the nearest remaining leftover supply point. Diagnostic
    companion to the exact solver, never below it in total distance.
    """
    if inst.total_demand > inst.total_supply:
        raise ValueError("more demand than supply; instance is infeasible")
    length = net.length
    d_counts = [len(a) for a in inst.per_edge_demand]
    s_counts = [len(a) for a in inst.per_edge_supply]
    d_base = np.cumsum([0] + d_counts)
    s_base = np.cumsum([0] + s_counts)

    pairs: list[tuple[int, int]] = []
    dists: list[float] = []
    leftover_demand: list[tuple[int, float, int]] = []  # (edge, offset, flat index)
    leftover_supply: dict[int, list[tuple[float, int]]] = {}

    for e, (dem, sup) in enumerate(zip(inst.per_edge_demand, inst.per_edge_supply)):
        m_e, n_e = len(dem), len(sup)
        if m_e <= n_e:
            local_dem = np.arange(m_e)
        else:
            # keep the n_e demand points nearest the edge middle; ties by offset order
            central = np.argsort(np.abs(dem - length / 2.0), kind="stable")[:n_e]
            local_dem = np.sort(central)
        res = optimal_match_1d(Instance1D(dem[local_dem], sup, length))
        matched_sup = set()
        for di, sj in res.pairs:
            gd = int(d_base[e] + local_dem[di])
            gs = int(s_base[e] + sj)
            pairs.append((gd, gs))
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
        # nearer-endpoint distance from every node to every edge
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
    pairs = [pairs[i] for i in order]
    dists = [dists[i] for i in order]
    return MatchResult.from_pairs(pairs, dists)


@dataclass(frozen=True)
class NetworkEstimateParts:
    """Decomposed network estimate: total = (1-alpha)*local + alpha*(d1+d2+d3)."""

    alpha: float
    local: float
    d1: float
    d2: float
    d3: float
    total: float
    clamped: bool = False


def _conditional_surplus(mean_diff: float, sigma: float) -> float:
    """E[X | X above threshold] for X ~ N(mean_diff, sigma^2) truncated just
    below zero (half-unit continuity shift)."""
    z = (-0.5 - mean_diff) / sigma
    tail = 0.5 * math.erfc(z / math.sqrt(2.0))  # 1 - Phi(z), stable in the far tail
    if tail <= 0.0:
        hazard = z  # asymptotic hazard for an unreachable tail
    else:
        hazard = normal_pdf(z) / tail
    return mean_diff + sigma * hazard


def d2_probabilities(degree: int, supply_excess_prob: float, kappa: int) -> np.ndarray:
    """Pr{search ends in layer k} for k = 0..kappa with layer sizes (D-1)^(k+1)."""
    q = supply_excess_prob
    branch = degree - 1
    probs = np.empty(kappa + 1)
    log_miss = math.log1p(-q) if q < 1.0 else -math.inf
    prior = 0.0  # edges exhausted before layer k
    for k in range(kappa + 1):
        layer = branch ** (k + 1)
        miss_prior = math.exp(prior * log_miss) if prior else 1.0
        hit_layer = -math.expm1(layer * log_miss)
        probs[k] = miss_prior * hit_layer
        prior += layer
    return probs


def network_estimate(
    degree: int, mu: float, lam: float, length: float, kappa: int = DEFAULT_SEARCH_LAYERS
) -> NetworkEstimateParts:
    """Expected mean matching distance on a D-regular network.

    Combines the within-edge estimate with the layered-search decomposition
    d1 + d2 + d3 of cross-edge matches, weighted by the global-match
    probability alpha derived from the normal approximation of the per-edge
    count difference.
    """
    params = EdgeParams(mu, lam, length)
    if degree not in SUPPORTED_DEGREES:
        raise ValueError(f"degree must be one of {SUPPORTED_DEGREES}")
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    sigma = math.sqrt((lam + mu) * length)
    demand_excess_prob = normal_cdf((-0.5 + (mu - lam) * length) / sigma)
    supply_excess_prob = normal_cdf((-0.5 + (lam - mu) * length) / sigma)
    mean_demand_surplus = _conditional_surplus((mu - lam) * length, sigma)
    mean_supply_surplus = _conditional_surplus((lam - mu) * length, sigma)

    alpha = demand_excess_prob * mean_demand_surplus / (mu * length)
    clamped = not 0.0 <= alpha <= 1.0
    if clamped:
        logger.debug("global-match probability %g clamped to [0, 1]", alpha)
    alpha = min(max(alpha, 0.0), 1.0)

    local = edge_estimate(params).value
    d1 = mean_demand_surplus / (4.0 * mu)
    probs = d2_probabilities(degree, supply_excess_prob, kappa)
    d2 = float(np.arange(kappa + 1) @ probs) * length
    d3 = mu / (4.0 * lam * lam) * mean_supply_surplus
    total = (1.0 - alpha) * local + alpha * (d1 + d2 + d3)
    return NetworkEstimateParts(
        alpha=alpha, local=local, d1=d1, d2=d2, d3=d3, total=total, clamped=clamped
    )

