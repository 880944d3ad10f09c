"""Regular networks with Poisson points on edges: construction, sampling,
shortest-path point distances, exact and heuristic matching, and the
local/global decomposition estimator."""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .assignment import CostMatrix, solve_assignment
from .combinatorics import normal_cdf, normal_pdf
from .estimators import edge_estimate
from .exact1d import optimal_match_1d
from .types import EdgeParams, Instance1D, MatchResult, check_length

__all__ = [
    "NetworkModel",
    "NetworkInstance",
    "NetworkEstimateParts",
    "regular_edges",
    "build_regular_network",
    "sample_instance",
    "exact_network_match",
    "heuristic_network_match",
    "network_estimate",
    "check_kappa",
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
    realize. Every layout it returns is connected, D-regular and free of
    repeated edges (the tests check each one up to 300 edges). Cheap: no
    distances are computed.
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

    return tuple(tuple(sorted(e)) for e in edges)


def build_regular_network(degree: int, edge_count: int, length: float) -> NetworkModel:
    """Construct a vertex-transitive D-regular network with equal-length edges.

    The layout is ``regular_edges(degree, edge_count)``; raises for pairs it
    cannot realize and for a length that is not finite and positive.
    """
    check_length(length)
    edges = regular_edges(degree, edge_count)
    node_count = 2 * edge_count // degree
    dist = _all_pairs_hops(node_count, edges) * length
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
    """Realized points as flat (edge, offset) arrays, ordered by edge index and
    then by offset; a point's position in them is its index in a matching.

    Each side's two arrays are 1D and of equal length, edge indices are
    nonnegative integers and offsets finite and nonnegative; the cost matrix
    and the heuristic read each edge's points as one ordered block, so an
    instance out of that order is rejected with an error naming the field.
    """

    demand_edge: np.ndarray
    demand_offset: np.ndarray
    supply_edge: np.ndarray
    supply_offset: np.ndarray

    def __post_init__(self):
        for side in ("demand", "supply"):
            edge = np.asarray(getattr(self, f"{side}_edge"))
            offset = np.asarray(getattr(self, f"{side}_offset"), dtype=np.float64)
            if edge.ndim != 1 or offset.ndim != 1 or edge.size != offset.size:
                raise ValueError(
                    f"{side}_edge and {side}_offset must be 1D arrays of equal length, "
                    f"got shapes {edge.shape} and {offset.shape}"
                )
            if edge.size == 0:
                edge = edge.astype(np.int64)
            elif not (np.issubdtype(edge.dtype, np.integer) and edge.min() >= 0):
                raise ValueError(f"{side}_edge must hold nonnegative integer edge indices")
            # min and max are NaN if any offset is
            if offset.size and not (offset.min() >= 0.0 and offset.max() < np.inf):
                raise ValueError(f"{side}_offset must be finite and nonnegative")
            edge_step = np.diff(edge)
            if (edge_step < 0).any():
                raise ValueError(f"{side}_edge must be in ascending order")
            if (np.diff(offset)[edge_step == 0] < 0).any():
                raise ValueError(f"{side}_offset must be ascending within each edge")
            object.__setattr__(self, f"{side}_edge", edge)
            object.__setattr__(self, f"{side}_offset", offset)

    @classmethod
    def _trusted(cls, *arrays):
        """An instance of the four arrays, in field order, built without the
        checks: for generated draws already in the checked form (int64
        edges, float64 offsets, ordered by edge and then by offset)."""
        inst = object.__new__(cls)
        for f, value in zip(fields(cls), arrays):
            object.__setattr__(inst, f.name, value)
        return inst

    @property
    def total_demand(self) -> int:
        return int(self.demand_edge.size)

    @property
    def total_supply(self) -> int:
        return int(self.supply_edge.size)


def sample_instance(net: NetworkModel, mu: float, lam: float, seed) -> NetworkInstance:
    """Draw Poisson(mu*L) demand and Poisson(lam*L) supply points per edge.

    ``seed`` may be an integer or a numpy Generator; identical streams give
    identical instances. Each edge in turn draws its demand count, its supply
    count, then one ``random`` block of demand offsets followed by supply
    offsets; each block's demand and supply slices are sorted in place as
    they are drawn, and each side is scaled by the length once. numpy's
    ``uniform(0, length, k)`` is ``0.0 + length * random()``, and scaling by
    a positive length keeps the order, so the offsets have the bits of sorted
    per-edge ``uniform`` draws of demand, then supply. The arrays are built
    in the form ``NetworkInstance`` checks for, so they skip its checks.
    """
    for name, value in (("mu", mu), ("lam", lam)):
        if not 0.0 < value < math.inf:  # False for NaN
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    length = net.length
    demand, supply = [], []  # each edge's sorted slice of its block
    for _ in net.edges:
        m_e = rng.poisson(mu * length)
        n_e = rng.poisson(lam * length)
        block = rng.random(m_e + n_e)
        for side, part in ((demand, block[:m_e]), (supply, block[m_e:])):
            part.sort()
            side.append(part)
    edges = np.arange(net.edge_count)
    points = []
    for side in (demand, supply):
        offset = np.concatenate(side)
        offset *= length
        points += [np.repeat(edges, [part.size for part in side]), offset]
    return NetworkInstance._trusted(*points)


def _check_on_network(net: NetworkModel, inst: NetworkInstance) -> None:
    """Reject a point on an edge the network does not have, or past the
    edge's end, with a ValueError naming its field."""
    for side in ("demand", "supply"):
        edge, offset = getattr(inst, f"{side}_edge"), getattr(inst, f"{side}_offset")
        if edge.size and edge[-1] >= net.edge_count:  # edges ascend
            raise ValueError(f"{side}_edge must index one of the {net.edge_count} edges")
        if offset.size and offset.max() > net.length:
            raise ValueError(f"{side}_offset must not exceed the edge length {net.length}")


def _cost_matrix(net: NetworkModel, inst: NetworkInstance) -> np.ndarray:
    """Demand-by-supply matrix of shortest along-edge distances: the least of
    the four endpoint routes (out of either end of the demand edge, the node
    distance, in at either end of the supply edge) and, on one edge, the
    direct segment |a - b|.

    Each demand point's distance to every node is gathered at either end of
    every supply edge into one of two buffers, which in-place adds of the
    supply offsets and an in-place minimum merge. Rounding is monotone, so
    min(x, y) + b equals min(x + b, y + b) and each entry equals the four-way
    minimum of the summed routes bit for bit. A point off the network raises
    ValueError naming its field.
    """
    _check_on_network(net, inst)
    d_edge, d_off = inst.demand_edge, inst.demand_offset
    s_edge, s_off = inst.supply_edge, inst.supply_offset
    length = net.length
    ends = np.array(net.edges, dtype=np.int64)
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


def exact_network_match(net: NetworkModel, inst: NetworkInstance) -> MatchResult:
    """Optimal matching of all demand to supply under the network metric.

    Pairs index into the instance's flat point arrays.
    """
    if inst.total_demand > inst.total_supply:
        raise ValueError("more demand than supply; instance is infeasible")
    return solve_assignment(CostMatrix(_cost_matrix(net, inst)))


def heuristic_network_match(net: NetworkModel, inst: NetworkInstance) -> MatchResult:
    """Local-first matching: per-edge optimal matching, then a layered search.

    Edges with surplus demand keep the points nearest the edge middle matched
    locally; each leftover demand point, in index order, then searches
    outward layer by layer (layer k holds the edges whose nearer endpoint is
    k*L from its origin node) and takes the nearest free supply point of the
    first layer that has one, the lowest index on ties. A local pair's
    distance is its direct segment, which no detour through the edge's ends
    undercuts, so it equals the ``_cost_matrix`` entry bit for bit; the
    leftover demand rows, still ordered, form a sub-instance whose
    ``_cost_matrix`` gives their distances. Diagnostic companion to the exact
    solver, never below it in total distance.
    """
    if inst.total_demand > inst.total_supply:
        raise ValueError("more demand than supply; instance is infeasible")
    _check_on_network(net, inst)
    length = net.length
    bounds = np.arange(net.edge_count + 1)
    d_bounds = np.searchsorted(inst.demand_edge, bounds)
    s_bounds = np.searchsorted(inst.supply_edge, bounds)
    match = np.full(inst.total_demand, -1)
    dist = np.empty(inst.total_demand)
    free = np.ones(inst.total_supply, dtype=bool)

    for e in range(net.edge_count):
        d0, s0 = d_bounds[e], s_bounds[e]
        dem = inst.demand_offset[d0 : d_bounds[e + 1]]
        sup = inst.supply_offset[s0 : s_bounds[e + 1]]
        local = np.arange(dem.size)
        if dem.size > sup.size:
            # keep the sup.size demand points nearest the edge middle; ties by offset order
            central = np.argsort(np.abs(dem - length / 2.0), kind="stable")[: sup.size]
            local = np.sort(central)
        res = optimal_match_1d(Instance1D(dem[local], sup, length))
        pairs = np.array(res.pairs, dtype=np.int64).reshape(-1, 2)
        rows, cols = local[pairs[:, 0]], pairs[:, 1]
        match[d0 + rows] = s0 + cols
        dist[d0 + rows] = np.abs(dem[rows] - sup[cols])
        free[s0 + cols] = False

    ends = np.array(net.edges, dtype=np.int64)
    nd = net.node_distance
    # search layer of every edge seen from every node: nearer-endpoint hops
    layer = np.rint(np.minimum(nd[:, ends[:, 0]], nd[:, ends[:, 1]]) / length)
    leftover = np.flatnonzero(match < 0)
    d_edge, d_off = inst.demand_edge[leftover], inst.demand_offset[leftover]
    cost = _cost_matrix(net, NetworkInstance(d_edge, d_off, inst.supply_edge, inst.supply_offset))
    origin = np.where(d_off <= length - d_off, ends[d_edge, 0], ends[d_edge, 1])
    for k, (i, node) in enumerate(zip(leftover, origin)):
        supply_layer = layer[node, inst.supply_edge]
        first = free & (supply_layer == supply_layer[free].min())
        j = np.argmin(np.where(first, cost[k], np.inf))
        match[i], dist[i] = j, cost[k, j]
        free[j] = False

    return MatchResult.from_pairs(np.column_stack((np.arange(inst.total_demand), match)), dist)


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
    tail = normal_cdf(-z)  # 1 - Phi(z), stable in the far tail
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


def check_kappa(kappa) -> None:
    """Reject a search-layer truncation that is not an integer of at least 1."""
    if not (isinstance(kappa, numbers.Integral) and kappa >= 1):
        raise ValueError(f"kappa must be an integer of at least 1, got {kappa!r}")


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
    check_kappa(kappa)
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

    local = edge_estimate(params)
    d1 = mean_demand_surplus / (4.0 * mu)
    probs = d2_probabilities(degree, supply_excess_prob, kappa)
    d2 = float(np.arange(kappa + 1) @ probs) * length
    d3 = mu / (4.0 * lam * lam) * mean_supply_surplus
    total = (1.0 - alpha) * local + alpha * (d1 + d2 + d3)
    return NetworkEstimateParts(
        alpha=alpha, local=local, d1=d1, d2=d2, d3=d3, total=total, clamped=clamped
    )

