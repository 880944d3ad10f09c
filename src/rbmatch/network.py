"""Regular networks with Poisson points on edges: construction, sampling,
shortest-path point distances, exact matching, and the local/global
decomposition estimator on a given within-edge estimate.

A network is its degree, edge count and edge length; ``NetworkModel``
derives its edges and node distances from those three. A
``NetworkInstance`` carries the model its points were drawn on, so the
exact matcher takes the instance alone and measures in that model's
metric. Its points are in one canonical order, by edge and then offset:
``_cost_matrix`` needs only the supply grouped by edge, and the rest fixes
which of tied optima the solver picks."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .assignment import _ROW_BLOCK, CostMatrix, solve_assignment
from .combinatorics import normal_cdf, normal_pdf
from .types import (
    EdgeParams,
    MatchResult,
    _readonly,
    _RebuiltWhenCopied,
    _store,
    check_count,
    check_positive,
)

__all__ = [
    "NetworkModel",
    "NetworkInstance",
    "NetworkEstimateParts",
    "build_regular_network",
    "sample_instance",
    "exact_network_match",
    "network_estimate",
]

SUPPORTED_DEGREES = (3, 4, 6)
# Layers 0..10 of the d2 search. A valid point (lam >= mu, whole counts
# >= 1) has supply-excess probability q >= Phi(-1/(2*sqrt(2))) ~ 0.362, at
# mu*length = lam*length = 1. A search passes layer 10 only if all edges of
# layers 0..10 (at least 2 + 4 + ... + 2^11 = 4094) miss, with probability
# <= 0.638^4094, which is 0.0 in float64: the sum is exact.
SEARCH_LAYERS = 10


@dataclass(frozen=True, eq=False)
class NetworkModel(_RebuiltWhenCopied):
    """The connected D-regular layout ``regular_edges(degree, edge_count)``
    whose edges all have the same length, checked and derived when built.

    ``edges[k] = (a, b)``, a < b, joins node ids a and b, and
    ``node_distance[a, b]`` is the shortest-path distance in du between
    nodes, the hop count times the length. Both are read-only arrays, (E, 2)
    int64 and (V, V) float64, derived from the three fields and never handed
    in, so no edge list, node count or distance can contradict them. A
    pickled or copied model is rebuilt from its three fields through the
    constructor, which derives both again.
    """

    degree: int
    edge_count: int
    length: float
    edges: np.ndarray = field(init=False, repr=False)
    node_distance: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        edges = _readonly(regular_edges(self.degree, self.edge_count))
        length = check_positive("length", self.length)
        _store(self, degree=int(self.degree), edge_count=len(edges), length=length, edges=edges)
        _store(self, node_distance=_readonly(_all_pairs_hops(self.node_count, edges) * length))

    @property
    def node_count(self) -> int:
        return 2 * self.edge_count // self.degree


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


def _all_pairs_hops(node_count: int, edges: np.ndarray) -> np.ndarray:
    """Hop counts of a regular layout as floats: a breadth-first search from all nodes at once."""
    adjacent = np.zeros((node_count, node_count), dtype=bool)
    adjacent[edges[:, 0], edges[:, 1]] = adjacent[edges[:, 1], edges[:, 0]] = True
    neighbours = np.nonzero(adjacent)[1].reshape(node_count, -1)  # row v: v's D neighbours
    dist = np.full((node_count, node_count), np.inf)
    frontier, hops = np.eye(node_count, dtype=bool), 0.0  # frontier[s]: nodes `hops` hops from s
    while np.count_nonzero(frontier):
        dist[frontier] = hops
        hops += 1.0
        frontier = frontier[:, neighbours].any(axis=2) & (dist == np.inf)
    return dist


def _check_degree(degree) -> None:
    if check_count("degree", degree, least=min(SUPPORTED_DEGREES)) not in SUPPORTED_DEGREES:
        raise ValueError(f"degree must be one of {SUPPORTED_DEGREES}, got {degree!r}")


def regular_edges(degree: int, edge_count: int) -> np.ndarray:
    """(E, 2) int64 array of the D-regular layout's ``edge_count`` edges, the
    lesser node id first in each row.

    Degree 4 uses a square torus, degree 6 a triangular torus (square torus
    plus one diagonal per cell), and degree 3 a Möbius ladder: a cycle with
    antipodal chords, not the honeycomb lattice. Raises for (degree,
    edge_count) pairs these topologies cannot realize. Every layout it
    returns is connected, D-regular and free of repeated edges (the tests
    check each one up to 300 edges). Cheap: no distances are computed.
    """
    _check_degree(degree)
    check_count("edge_count", edge_count, least=1)
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

    return np.sort(np.array(edges, dtype=np.int64), axis=1)


def build_regular_network(degree: int, edge_count: int, length: float) -> NetworkModel:
    """Construct a vertex-transitive D-regular network with equal-length edges;
    ``NetworkModel`` raises for a layout or a length it cannot take."""
    return NetworkModel(degree, edge_count, length)


@dataclass(frozen=True, eq=False)
class NetworkInstance(_RebuiltWhenCopied):
    """Realized points on the network ``net`` as flat (edge, offset) arrays,
    ordered by edge index and then by offset; a point's position in them is
    its index in a matching.

    ``net`` must be a ``NetworkModel``, else a TypeError names it. Each
    side's two arrays are 1D and of equal length, edge indices are integers
    in [0, E) of ``net``'s E edges and offsets lie in [0, L] of its length
    L; an instance off its network or out of that order is rejected with an
    error naming the field. ``_cost_matrix`` reads only the supply's
    grouping by ascending edge. The rest of the order is a canonical form:
    the assignment kernel picks among tied optima (as at lam = mu) by row
    and column order, which fixes the bits of tied records, and the test
    references read each edge's points as one block. The four arrays it
    stores are frozen in place, as ``CostMatrix`` freezes its matrix: an
    array handed in the stored dtype that owns its data is marked read-only,
    not copied, and a view is copied first, so no write through the array or
    a base it views can reorder a checked instance, though an earlier view
    of it can (see ``types._readonly``). A pickled or copied instance is
    rebuilt with its model through the constructor, checked and frozen
    again.
    """

    net: NetworkModel
    demand_edge: np.ndarray
    demand_offset: np.ndarray
    supply_edge: np.ndarray
    supply_offset: np.ndarray

    def __post_init__(self):
        net = self.net
        if not isinstance(net, NetworkModel):
            raise TypeError(f"net must be a NetworkModel, got {type(net).__name__}")
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
            # the first and last index are the least and greatest once the
            # order check below passes
            elif edge.dtype.kind not in "iu" or not (edge[0] >= 0 and edge[-1] < net.edge_count):
                raise ValueError(f"{side}_edge must hold integer indices in [0, {net.edge_count})")
            # min and max are NaN if any offset is
            if offset.size and not (offset.min() >= 0.0 and offset.max() <= net.length):
                raise ValueError(f"{side}_offset must lie in [0, {net.length}]")
            # neighbours compared, not differenced: a difference wraps for unsigned dtypes
            if (edge[1:] < edge[:-1]).any():
                raise ValueError(f"{side}_edge must be in ascending order")
            if ((offset[1:] < offset[:-1]) & (edge[1:] == edge[:-1])).any():
                raise ValueError(f"{side}_offset must be ascending within each edge")
            _store(self, **{f"{side}_edge": _readonly(edge), f"{side}_offset": _readonly(offset)})

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
    in the form ``NetworkInstance`` checks for, on ``net``.
    """
    mu, lam = check_positive("mu", mu), check_positive("lam", lam)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    length = net.length
    poisson, random = rng.poisson, rng.random
    demand_mean, supply_mean = mu * length, lam * length
    demand, supply = [], []  # each edge's sorted slice of its block
    for _ in range(net.edge_count):
        m_e = poisson(demand_mean)
        n_e = poisson(supply_mean)
        block = random(m_e + n_e)
        for side, part in ((demand, block[:m_e]), (supply, block[m_e:])):
            part.sort()
            side.append(part)
    edges = np.arange(net.edge_count)
    points = []
    for side in (demand, supply):
        offset = np.concatenate(side)
        offset *= length
        points += [np.repeat(edges, [part.size for part in side]), offset]
    return NetworkInstance(net, *points)


def _cost_matrix(inst: NetworkInstance) -> np.ndarray:
    """Demand-by-supply matrix of shortest along-edge distances on
    ``inst.net``: the least of the four endpoint routes (out of either end
    of the demand edge, the node distance, in at either end of the supply
    edge) and, on one edge, the direct segment |a - b|.

    Each demand point's distance to either end of every edge is gathered
    once, as two demand-by-edge arrays, and repeated over each edge's block
    of supply points (the supply side is ordered by edge): the near end into
    the result, the far end into a block of ``_ROW_BLOCK`` rows at a time.
    In-place adds of the supply offsets and an in-place minimum merge them.
    Rounding is monotone, so min(x, y) + b equals min(x + b, y + b) and each
    entry equals the four-way minimum of the summed routes bit for bit.
    """
    net = inst.net
    d_edge, d_off = inst.demand_edge, inst.demand_offset
    s_edge, s_off = inst.supply_edge, inst.supply_offset
    length = net.length
    edges = net.edges
    nd = net.node_distance

    to_node = np.minimum(
        d_off[:, None] + nd[edges[d_edge, 0]],
        (length - d_off)[:, None] + nd[edges[d_edge, 1]],
    )
    s_count = np.bincount(s_edge, minlength=net.edge_count)
    cost = np.repeat(to_node[:, edges[:, 0]], s_count, axis=1)  # a new C-order array
    cost += s_off
    # the far-end routes _ROW_BLOCK rows at a time: the result is the only
    # demand-by-supply array held
    far_node, far_off = to_node[:, edges[:, 1]], length - s_off
    for lo in range(0, d_edge.size, _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        other = np.repeat(far_node[block], s_count, axis=1)
        other += far_off
        np.minimum(cost[block], other, out=cost[block])

    # same-edge pairs: each demand point against its edge's supply block
    s_start = np.cumsum(s_count) - s_count
    per_row = s_count[d_edge]
    rows = np.repeat(np.arange(d_edge.size), per_row)
    first = np.cumsum(per_row) - per_row
    cols = np.arange(rows.size) - np.repeat(first - s_start[d_edge], per_row)
    flat = cost.reshape(-1)  # a view: cost is C-contiguous
    at = rows * s_edge.size + cols
    # no route out through the edge's ends is shorter, and rounding is monotone
    flat[at] = np.abs(d_off[rows] - s_off[cols])
    return cost


def exact_network_match(inst: NetworkInstance, *, costs: np.ndarray | None = None) -> MatchResult:
    """Optimal matching of all demand to supply under the metric of ``inst.net``.

    Pairs index into the instance's flat point arrays. ``costs``, if given,
    is taken as ``_cost_matrix(inst)`` already built, so a caller that
    needs the matrix for another solver builds it once; it is frozen in
    place as ``CostMatrix`` freezes it, and a shape other than (demand,
    supply) of ``inst`` raises a ValueError naming it.
    """
    if inst.total_demand > inst.total_supply:
        raise ValueError("more demand than supply; instance is infeasible")
    if costs is None:
        costs = _cost_matrix(inst)
    elif np.shape(costs) != (inst.total_demand, inst.total_supply):
        raise ValueError(
            f"costs must have the instance's shape "
            f"{(inst.total_demand, inst.total_supply)}, got {np.shape(costs)}"
        )
    return solve_assignment(CostMatrix(costs))


@dataclass(frozen=True)
class NetworkEstimateParts:
    """Decomposed network estimate, ``total`` = (1-alpha)*local + alpha*(d1+d2+d3)
    derived when built; d2 sums 10 search layers, exact at every valid point."""

    alpha: float
    local: float
    d1: float
    d2: float
    d3: float
    total: float = field(init=False)

    def __post_init__(self):
        cross = self.d1 + self.d2 + self.d3
        _store(self, total=(1.0 - self.alpha) * self.local + self.alpha * cross)


def _conditional_surplus(mean_diff: float, sigma: float) -> float:
    """E[X | X above threshold] for X ~ N(mean_diff, sigma^2) truncated just
    below zero (half-unit continuity shift)."""
    z = (-0.5 - mean_diff) / sigma
    tail = normal_cdf(-z)  # 1 - Phi(z), stable in the far tail
    if tail < sys.float_info.min:  # subnormal or zero: its ratio has lost precision
        hazard = z + 1.0 / z - 2.0 / z**3  # the Mills-ratio asymptote
    else:
        hazard = normal_pdf(z) / tail
    return mean_diff + sigma * hazard


def d2_probabilities(degree: int, supply_excess_prob: float) -> np.ndarray:
    """Pr{search ends in layer k} for k = 0..10 with layer sizes (D-1)^(k+1);
    10 layers are the whole search at every valid point. A ValueError names a
    degree outside ``SUPPORTED_DEGREES`` or a probability outside [0, 1]."""
    _check_degree(degree)
    q = supply_excess_prob
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"supply_excess_prob must lie in [0, 1], got {q!r}")
    branch = degree - 1
    probs = np.empty(SEARCH_LAYERS + 1)
    log_miss = math.log1p(-q) if q < 1.0 else -math.inf
    prior = 0.0  # edges exhausted before layer k
    for k in range(SEARCH_LAYERS + 1):
        layer = branch ** (k + 1)
        miss_prior = math.exp(prior * log_miss) if prior else 1.0
        hit_layer = -math.expm1(layer * log_miss)
        probs[k] = miss_prior * hit_layer
        prior += layer
    return probs


def network_estimate(degree: int, params: EdgeParams, local: float) -> NetworkEstimateParts:
    """Expected mean matching distance on a D-regular network.

    Combines ``local``, the within-edge estimate ``edge_estimate(params)``,
    with the layered-search decomposition d1 + d2 + d3 of cross-edge matches,
    weighted by the global-match probability alpha derived from the normal
    approximation of the per-edge count difference. d2 sums 10 search layers,
    exact at every valid point; ``d2_probabilities`` rejects a degree outside
    ``SUPPORTED_DEGREES``.
    alpha <= E[X+]/(mu*length) <= 0.57/sqrt(mu*length) needs no clamp.
    """
    mu, lam, length = params.mu, params.lam, params.length
    sigma = math.sqrt((lam + mu) * length)
    demand_excess_prob = normal_cdf((-0.5 + (mu - lam) * length) / sigma)
    supply_excess_prob = normal_cdf((-0.5 + (lam - mu) * length) / sigma)
    mean_demand_surplus = _conditional_surplus((mu - lam) * length, sigma)
    mean_supply_surplus = _conditional_surplus((lam - mu) * length, sigma)

    alpha = demand_excess_prob * mean_demand_surplus / (mu * length)
    d1 = mean_demand_surplus / (4.0 * mu)
    probs = d2_probabilities(degree, supply_excess_prob)
    d2 = float(np.arange(SEARCH_LAYERS + 1) @ probs) * length
    d3 = mu / (4.0 * lam * lam) * mean_supply_surplus
    return NetworkEstimateParts(alpha=alpha, local=local, d1=d1, d2=d2, d3=d3)
