import copy
import functools
import itertools
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _references import (
    _heuristic_reference,
    all_pairs_hops_floyd_warshall,
    cost_matrix_columnwise,
    network_flow_cost,
    point_distance,
    solve_dense_reference,
)

from rbmatch import assignment
from rbmatch.assignment import CostMatrix, solve_dense
from rbmatch.combinatorics import normal_cdf
from rbmatch.estimators import edge_estimate
from rbmatch.exact1d import optimal_match_1d
from rbmatch.network import (
    SEARCH_LAYERS,
    NetworkInstance,
    NetworkModel,
    _all_pairs_hops,
    _cost_matrix,
    _torus_dims,
    build_regular_network,
    d2_probabilities,
    exact_network_match,
    heuristic_network_match,
    network_estimate,
    regular_edges,
    sample_instance,
)
from rbmatch.types import EdgeParams, Instance1D


def _estimate(degree, mu, lam, length):
    params = EdgeParams(mu, lam, length)
    return network_estimate(degree, params, edge_estimate(params))


@pytest.fixture(scope="module")
def square_torus():
    return build_regular_network(4, 36, 1.0)


def test_build_node_counts():
    assert build_regular_network(4, 36, 1.0).node_count == 18
    assert build_regular_network(3, 36, 1.0).node_count == 24
    assert build_regular_network(6, 36, 1.0).node_count == 12


def test_build_handshake_regularity_connectivity():
    # the builders do not check their own output; this test does, for every
    # layout regular_edges accepts up to 300 edges
    built = 0
    for degree in (3, 4, 6):
        for edge_count in range(1, 301):
            try:
                regular_edges(degree, edge_count)
            except ValueError:
                continue
            net = build_regular_network(degree, edge_count, 1.0)
            built += 1
            assert net.edge_count == edge_count
            assert 2 * net.edge_count == degree * net.node_count
            assert len(set(map(tuple, net.edges.tolist()))) == net.edge_count  # no repeated edge
            assert all(a < b for a, b in net.edges)  # and no loop
            deg = np.bincount(np.ravel(net.edges), minlength=net.node_count)
            assert (deg == degree).all()
            assert np.isfinite(net.node_distance).all()
            assert (net.node_distance == net.node_distance.T).all()
            assert (np.diag(net.node_distance) == 0).all()
            assert np.array_equal(
                net.node_distance, all_pairs_hops_floyd_warshall(net.node_count, net.edges)
            )
    assert built == 249


@pytest.mark.parametrize("degree", [3, 4, 6])
def test_hop_search_equals_floyd_warshall_at_576_edges(degree):
    # the largest layouts the sweeps are measured on; the degree-3 ladder of
    # 384 nodes has diameter 96, so the search runs 97 levels
    edges = regular_edges(degree, 576)
    node_count = 2 * 576 // degree
    hops = _all_pairs_hops(node_count, edges)
    assert np.array_equal(hops, all_pairs_hops_floyd_warshall(node_count, edges))


def test_build_rejects_infeasible_pairs():
    with pytest.raises(ValueError):
        build_regular_network(5, 36, 1.0)  # unsupported degree
    with pytest.raises(ValueError):
        build_regular_network(4, 15, 1.0)  # odd node count
    with pytest.raises(ValueError):
        build_regular_network(4, 14, 1.0)  # 7 nodes: no torus factorization
    with pytest.raises(ValueError):
        build_regular_network(3, 4, 1.0)  # 2*4/3 not integral


def test_point_distance_same_edge(square_torus):
    assert point_distance(square_torus, (0, 0.2), (0, 0.7)) == pytest.approx(0.5)


def test_point_distance_adjacent_edges(square_torus):
    net = square_torus
    shared = net.edges[0][1]
    other = next(
        e for e, (a, b) in enumerate(net.edges) if e != 0 and shared in (a, b)
    )
    offset = 0.2 if net.edges[other][0] == shared else 0.8
    assert point_distance(net, (0, 0.9), (other, offset)) == pytest.approx(0.3)


def test_point_distance_metric_properties(square_torus):
    rng = np.random.default_rng(40)
    pts = [(int(rng.integers(36)), float(rng.uniform(0, 1))) for _ in range(30)]
    for a, b in itertools.combinations(pts, 2):
        assert point_distance(square_torus, a, b) == pytest.approx(
            point_distance(square_torus, b, a), abs=1e-12
        )
    for a, b, c in itertools.combinations(pts[:12], 3):
        dab = point_distance(square_torus, a, b)
        dbc = point_distance(square_torus, b, c)
        dac = point_distance(square_torus, a, c)
        assert dac <= dab + dbc + 1e-9


def test_sampling_determinism_and_counts(square_torus):
    a = sample_instance(square_torus, 5.0, 7.0, 123)
    b = sample_instance(square_torus, 5.0, 7.0, 123)
    for field in ("demand_edge", "demand_offset", "supply_edge", "supply_offset"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    # ordered by edge, then by offset within an edge
    for edge, offset in ((a.demand_edge, a.demand_offset), (a.supply_edge, a.supply_offset)):
        assert (np.diff(edge) >= 0).all()
        assert (np.diff(offset)[np.diff(edge) == 0] >= 0).all()


def _assert_per_edge_draw_order(net, length, mu=5.0, lam=7.0):
    # poisson, poisson, uniform, uniform on each edge fixes every seeded draw
    inst = sample_instance(net, mu, lam, 123)
    rng = np.random.default_rng(123)
    for e in range(net.edge_count):
        m_e, n_e = rng.poisson(mu * length), rng.poisson(lam * length)
        dem = np.sort(rng.uniform(0.0, length, m_e))
        sup = np.sort(rng.uniform(0.0, length, n_e))
        assert np.array_equal(inst.demand_offset[inst.demand_edge == e], dem)
        assert np.array_equal(inst.supply_offset[inst.supply_edge == e], sup)


def test_sampling_keeps_per_edge_draw_order(square_torus):
    _assert_per_edge_draw_order(square_torus, 1.0)


@pytest.mark.parametrize("length", [0.7, 2.5])
def test_sampling_keeps_per_edge_draw_order_non_unit_length(length):
    _assert_per_edge_draw_order(build_regular_network(4, 36, length), length)


@pytest.mark.parametrize("degree", [3, 4, 6])
def test_sampling_keeps_per_edge_draw_order_at_low_density(degree):
    # many edges draw no demand, no supply or neither: empty slices to sort
    # in place and zero repeat counts
    net = build_regular_network(degree, 36, 1.0)
    inst = sample_instance(net, 0.3, 0.5, 123)
    counts = [np.bincount(e, minlength=36) for e in (inst.demand_edge, inst.supply_edge)]
    assert ((counts[0] == 0) & (counts[1] == 0)).any()
    assert ((counts[0] == 0) != (counts[1] == 0)).any()
    _assert_per_edge_draw_order(net, 1.0, mu=0.3, lam=0.5)


@pytest.mark.parametrize("degree,edge_count", [(3, 6), (4, 36), (6, 36)])
@pytest.mark.parametrize("mu,lam", [(0.3, 0.3), (0.3, 25.0), (5.0, 25.0), (25.0, 25.0)])
def test_sampled_instances_pass_the_public_checks(degree, edge_count, mu, lam):
    # a draw is checked once as sample_instance builds it; rebuilding it from
    # its own arrays must pass the same checks again and keep every array
    net = build_regular_network(degree, edge_count, 1.0)
    fields = ("demand_edge", "demand_offset", "supply_edge", "supply_offset")
    empty_sides = 0
    for seed in range(20):
        inst = sample_instance(net, mu, lam, seed)
        rebuilt = NetworkInstance(net, *(getattr(inst, f) for f in fields))
        for f in fields:
            a, b = getattr(inst, f), getattr(rebuilt, f)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        empty_sides += inst.total_demand == 0
    if (edge_count, mu) == (6, 0.3):
        assert empty_sides  # whole sides of no points are among the draws


def test_network_instance_arrays_are_frozen(square_torus):
    # the cost matrix and the heuristic index each edge's block by the order
    # checked at construction; no write may reorder it afterwards
    fields = ("demand_edge", "demand_offset", "supply_edge", "supply_offset")
    arrays = (np.array([0, 2]), np.array([0.1, 0.5]), np.array([0, 0, 2]), np.array([0.2, 0.3, 0.4]))
    hand_built = NetworkInstance(square_torus, *arrays)
    assert all(getattr(hand_built, f) is a for f, a in zip(fields, arrays))  # frozen in place
    for inst in (hand_built, sample_instance(square_torus, 5.0, 25.0, 7)):
        for f in fields:
            with pytest.raises(ValueError, match="read-only"):
                getattr(inst, f)[0] = 0


def test_network_instance_copies_views_before_freezing_them(square_torus):
    # a view frozen in place would still change through its writable base:
    # a write to it could reorder a checked instance
    e, o = np.array([0, 2, 5]), np.array([0.1, 0.5, 0.2])
    inst = NetworkInstance(square_torus, e[:], o[:], e[:], o[:])
    e[0], o[0] = 7, 0.9
    for f in ("demand", "supply"):
        assert getattr(inst, f"{f}_edge").tolist() == [0, 2, 5]
        assert getattr(inst, f"{f}_offset").tolist() == [0.1, 0.5, 0.2]
        assert not getattr(inst, f"{f}_edge").flags.writeable


def test_copies_are_rebuilt_through_the_constructor(square_torus):
    # pickle and deepcopy drop numpy's read-only flag: a copy must pass the
    # checks again and come back frozen
    inst = sample_instance(square_torus, 5.0, 25.0, 7)
    matrix = CostMatrix(_cost_matrix(inst))
    fields = ("demand_edge", "demand_offset", "supply_edge", "supply_offset")
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        inst_copy, matrix_copy = copy_of(inst), copy_of(matrix)
        for f in fields:
            assert np.array_equal(getattr(inst_copy, f), getattr(inst, f))
            assert not getattr(inst_copy, f).flags.writeable
        # the model comes with it, rebuilt through its own constructor
        net_copy = inst_copy.net
        assert (net_copy.degree, net_copy.edge_count, net_copy.length) == (4, 36, 1.0)
        assert np.array_equal(net_copy.node_distance, square_torus.node_distance)
        assert np.array_equal(matrix_copy.costs, matrix.costs)
        assert not matrix_copy.costs.flags.writeable
    # a tampered reduce tuple is checked as a hand-built instance is
    cls, (net, *args) = inst.__reduce__()
    assert net is square_torus
    demand_offset = args[1].copy()
    demand_offset[:2] = demand_offset[1::-1]  # demand 0 and 1 share edge 0
    assert args[0][1] == args[0][0] and demand_offset[0] > demand_offset[1]
    with pytest.raises(ValueError, match="demand_offset must be ascending"):
        cls(net, args[0], demand_offset, *args[2:])
    # and so is one whose model has fewer edges than its points lie on
    assert args[0][-1] >= 6
    with pytest.raises(ValueError, match=r"demand_edge must hold integer indices in \[0, 6\)"):
        cls(NetworkModel(3, 6, 1.0), *args)
    cls, (costs,) = matrix.__reduce__()
    costs = costs.copy()
    costs[0, 0] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        cls(costs)


def test_sampling_law_of_large_numbers(square_torus):
    mu = 5.0
    rng = np.random.default_rng(41)
    draws = []
    for _ in range(2000):
        inst = sample_instance(square_torus, mu, mu, rng)
        draws.extend(np.bincount(inst.demand_edge, minlength=square_torus.edge_count))
    draws = np.asarray(draws, dtype=float)  # 72_000 Poisson(5) draws
    tolerance = 3.0 * math.sqrt(mu) / math.sqrt(draws.size)
    assert abs(draws.mean() - mu) <= tolerance


def test_sampling_rejects_bad_densities(square_torus):
    for bad in (math.nan, math.inf, 0.0, -1.0, True):
        with pytest.raises(ValueError, match=f"mu must be finite and positive, got {bad!r}"):
            sample_instance(square_torus, bad, 1.0, 1)
        with pytest.raises(ValueError, match=f"lam must be finite and positive, got {bad!r}"):
            sample_instance(square_torus, 1.0, bad, 1)


def test_exact_match_single_pair(square_torus):
    inst = _manual_instance(square_torus, {0: [0.2]}, {0: [0.9]})
    res = exact_network_match(inst)
    assert res.total_distance == pytest.approx(0.7)


def _manual_instance(net, demand_by_edge, supply_by_edge) -> NetworkInstance:
    arrays = []
    for by_edge in (demand_by_edge, supply_by_edge):
        per_edge = [np.sort(np.asarray(by_edge.get(e, []), float)) for e in range(net.edge_count)]
        arrays.append(np.repeat(np.arange(net.edge_count), [len(a) for a in per_edge]))
        arrays.append(np.concatenate(per_edge))
    return NetworkInstance(net, *arrays)


def test_instance_rejects_points_out_of_edge_order(square_torus):
    # out of order, _cost_matrix would read the point at 0.5 on edge 3 as lying on edge 0
    demand = (np.array([0]), np.array([0.5]))
    with pytest.raises(ValueError, match="supply_edge"):
        NetworkInstance(square_torus, *demand, np.array([3, 0]), np.array([0.5, 0.9]))
    inst = NetworkInstance(square_torus, *demand, np.array([0, 3]), np.array([0.9, 0.5]))
    assert inst.supply_offset.tolist() == [0.9, 0.5]
    assert exact_network_match(inst).total_distance == pytest.approx(0.4)
    assert _cost_matrix(inst)[0, 1] == point_distance(square_torus, (0, 0.5), (3, 0.5))


@pytest.mark.parametrize(
    "field, fields",
    [
        ("demand_offset", ([0, 0], [0.6, 0.2], [0], [0.5])),
        ("demand_edge", ([1, 0], [0.2, 0.6], [0], [0.5])),
        ("supply_offset", ([0], [0.5], [2, 2, 4], [0.3, 0.1, 0.0])),
        ("supply_offset", ([0], [0.5], [0], [np.nan])),
        ("supply_offset", ([0], [0.5], [0], [np.inf])),
        ("demand_offset", ([0], [-0.1], [0], [0.5])),
        ("demand_edge", ([-1], [0.5], [0], [0.5])),
        ("demand_edge", ([1, -1], [0.2, 0.6], [0], [0.5])),
        ("demand_edge", ([0.0], [0.5], [0], [0.5])),
        ("supply_edge", ([0], [0.5], [0, 1], [0.5])),
        ("supply_edge", ([0], [0.5], [[0]], [[0.5]])),
        # off the 36 unit edges: a point on an edge the network does not
        # have, or past an edge's end, where it would read as a point on the
        # next stretch
        ("demand_edge", ([40], [0.5], [0], [0.5])),
        ("demand_edge", ([0, 36], [0.5, 0.5], [0], [0.5])),
        ("supply_edge", ([0], [0.5], [36], [0.5])),
        ("demand_offset", ([0], [1.5], [0], [0.2])),
        ("supply_offset", ([0], [0.2], [0], [1.5])),
        ("supply_offset", ([0], [0.2], [3, 3], [0.5, np.nextafter(1.0, 2.0)])),
    ],
)
@pytest.mark.parametrize("edge_dtype", [np.int64, np.int8, np.int32, np.uint8, np.uint64])
def test_instance_validation_names_the_field(square_torus, field, fields, edge_dtype):
    arrays = [np.asarray(f) for f in fields]
    for i in (0, 2):  # the edge arrays, in edge_dtype wherever it holds their values
        if arrays[i].dtype.kind == "i" and (arrays[i].astype(edge_dtype) == arrays[i]).all():
            arrays[i] = arrays[i].astype(edge_dtype)
    with pytest.raises(ValueError, match=field):
        NetworkInstance(square_torus, *arrays)


@pytest.mark.parametrize("net", [None, (4, 36, 1.0), regular_edges(4, 36)])
def test_instance_takes_its_network_as_a_model(net):
    # the matchers measure in the instance's own model: a tuple of the
    # model's fields or its edge list is no network
    with pytest.raises(TypeError, match="net must be a NetworkModel"):
        NetworkInstance(net, [0], [0.5], [0], [0.5])


def test_instance_accepts_empty_sides(square_torus):
    inst = NetworkInstance(square_torus, [], [], [4], [0.5])
    assert inst.total_demand == 0 and inst.demand_edge.dtype == np.int64
    assert exact_network_match(inst).pairs.shape == (0, 2)


def test_exact_match_single_edge_matches_segment_dp(square_torus):
    # points kept in the middle third never route around the ends
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 8))
        dem = rng.uniform(1 / 3, 2 / 3, m)
        sup = rng.uniform(1 / 3, 2 / 3, n)
        inst = _manual_instance(square_torus, {3: dem}, {3: sup})
        res = exact_network_match(inst)
        seg = optimal_match_1d(Instance1D(dem, sup, 1.0))
        assert res.total_distance == pytest.approx(seg.total_distance, abs=1e-9)


def _point_distances(inst) -> np.ndarray:
    """The demand-by-supply matrix of scalar ``point_distance`` values."""
    net = inst.net
    demand = list(zip(inst.demand_edge.tolist(), inst.demand_offset.tolist()))
    supply = list(zip(inst.supply_edge.tolist(), inst.supply_offset.tolist()))
    rows = [[point_distance(net, a, b) for b in supply] for a in demand]
    return np.array(rows).reshape(len(demand), len(supply))


def _fig6_sized_instance():
    return sample_instance(build_regular_network(3, 36, 1.0), 5.0, 25.0, 6)


def _sparse_demand_instance():
    net = build_regular_network(4, 36, 1.0)
    inst = sample_instance(net, 0.1, 5.0, 7)
    assert (np.bincount(inst.demand_edge, minlength=36) == 0).mean() > 0.5
    return inst


def _demand_without_supply_instance():
    return _manual_instance(
        build_regular_network(6, 36, 1.0),
        {0: [0.1, 0.5, 0.9], 7: [0.3]},
        {3: [0.2, 0.8], 7: [0.6], 20: [0.0, 1.0]},
    )


@pytest.mark.parametrize(
    "build",
    [
        _fig6_sized_instance,
        _sparse_demand_instance,
        _demand_without_supply_instance,
    ],
    ids=["fig6_sized", "most_edges_without_demand", "edge_with_demand_but_no_supply"],
)
def test_cost_matrix_equals_point_distance(build):
    inst = build()
    costs = _cost_matrix(inst)
    assert costs.shape == (inst.total_demand, inst.total_supply)
    assert np.array_equal(costs, _point_distances(inst))


def test_exact_match_brute_force(square_torus):
    rng = np.random.default_rng(43)
    for _ in range(25):
        while True:
            inst = sample_instance(square_torus, 0.04, 0.06, rng)
            if 0 < inst.total_demand <= 4 and inst.total_demand <= inst.total_supply <= 6:
                break
        res = exact_network_match(inst)
        costs = _point_distances(inst)
        rows = np.arange(inst.total_demand)
        best = min(
            costs[rows, list(perm)].sum()
            for perm in itertools.permutations(range(inst.total_supply), inst.total_demand)
        )
        assert res.total_distance == pytest.approx(float(best), abs=1e-9)


@pytest.mark.parametrize("degree", [3, 4, 6])
@pytest.mark.parametrize("ratio", [1.0, 3.0])
def test_cost_matrix_and_match_against_references(degree, ratio):
    net = build_regular_network(degree, 36, 1.0)
    rng = np.random.default_rng(45 + degree)
    mu = 2.0
    checked = 0
    while checked < 3:
        inst = sample_instance(net, mu, ratio * mu, rng)
        if not 0 < inst.total_demand <= inst.total_supply:
            continue
        checked += 1
        costs = _cost_matrix(inst)
        assert np.array_equal(costs, _point_distances(inst))
        res = exact_network_match(inst)
        ref = solve_dense_reference(costs)
        assert res.total_distance == pytest.approx(ref.total_cost, rel=1e-12, abs=0.0)


# buildable layouts: several edge counts of each degree
_LAYOUTS = [(3, 6), (3, 12), (3, 36), (4, 18), (4, 36), (4, 50), (6, 27), (6, 36), (6, 48)]


@functools.cache
def _network(degree, edge_count, length):
    return build_regular_network(degree, edge_count, length)


def _assert_same_cost_matrix(inst):
    costs, ref = _cost_matrix(inst), cost_matrix_columnwise(inst)
    assert costs.flags.c_contiguous  # the same-edge write goes through reshape(-1)
    assert costs.dtype == ref.dtype and costs.shape == ref.shape
    assert costs.tobytes() == ref.tobytes()


_densities = st.floats(0.01, 30.0)


@settings(max_examples=120, deadline=None)
@given(
    layout=st.sampled_from(_LAYOUTS),
    length=st.sampled_from([1.0, 0.7, 2.5]),
    mu=_densities,
    lam=_densities,
    seed=st.integers(0, 2**32 - 1),
)
@example(layout=(3, 6), length=1.0, mu=0.01, lam=0.01, seed=0)  # both sides empty
@example(layout=(6, 48), length=2.5, mu=0.05, lam=30.0, seed=1)  # most edges without demand
@example(layout=(4, 50), length=0.7, mu=30.0, lam=0.05, seed=2)  # most edges without supply
def test_cost_matrix_of_sampled_instances_equals_reference(layout, length, mu, lam, seed):
    net = _network(*layout, length)
    _assert_same_cost_matrix(sample_instance(net, mu, lam, seed))


def _points(edge_count):
    """Sorted (edge, fraction of the length) pairs; ends of an edge included."""
    fraction = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    point = st.tuples(st.integers(0, edge_count - 1), fraction)
    return st.lists(point, max_size=25).map(sorted)


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    layout=st.sampled_from(_LAYOUTS),
    length=st.sampled_from([1.0, 0.7, 2.5]),
    edge_dtype=st.sampled_from([np.int64, np.int32, np.int16]),
)
def test_cost_matrix_of_public_instances_equals_reference(data, layout, length, edge_dtype):
    net = _network(*layout, length)
    arrays = []
    for side in ("demand", "supply"):
        points = data.draw(_points(net.edge_count), label=side)
        edge = np.array([e for e, _ in points], dtype=edge_dtype)
        arrays += [edge, np.array([f * length for _, f in points], dtype=np.float64)]
    _assert_same_cost_matrix(NetworkInstance(net, *arrays))


def _grid_points(edge_count, size):
    """``size`` sorted (edge, quarter of the length) pairs: many ties."""
    point = st.tuples(st.integers(0, edge_count - 1), st.integers(0, 4))
    return st.lists(point, min_size=size, max_size=size).map(sorted)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    layout=st.sampled_from([layout for layout in _LAYOUTS if layout[1] <= 36]),
    length=st.sampled_from([1.0, 0.7, 2.5]),
    size=st.integers(1, 10),
)
def test_balanced_total_is_unchanged_when_the_sides_swap(data, layout, length, size):
    # at M = N the metric is symmetric, so demand and supply can trade places;
    # the swapped matrix adds its routes in another order, hence the tolerance
    net = _network(*layout, length)
    arrays = []
    for side in ("demand", "supply"):
        points = data.draw(_grid_points(net.edge_count, size), label=side)
        arrays += [np.array([e for e, _ in points]), np.array([q * length / 4 for _, q in points])]
    total = exact_network_match(NetworkInstance(net, *arrays)).total_distance
    swapped = exact_network_match(NetworkInstance(net, *arrays[2:], *arrays[:2])).total_distance
    assert swapped == pytest.approx(total, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(
    layout=st.sampled_from([layout for layout in _LAYOUTS if layout[1] <= 36]),
    length=st.sampled_from([1.0, 0.7, 2.5]),
    mu=st.floats(0.1, 3.0),
    ratio=st.floats(1.0, 5.0),
    balanced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(layout=(6, 36), length=1.0, mu=3.0, ratio=1.0, balanced=True, seed=0)
@example(layout=(3, 6), length=2.5, mu=0.1, ratio=5.0, balanced=False, seed=1)
def test_total_equals_the_min_cost_flow(layout, length, mu, ratio, balanced, seed):
    # the flow walks the network subdivided at the points and reads no
    # distance of the library's, so a route that _cost_matrix gets wrong
    # shows; offsets on a quarter grid put points on one another and on the
    # nodes, and a balanced draw keeps the first M of its supply points
    net = _network(*layout, length)
    rng = np.random.default_rng(seed)
    inst = sample_instance(net, mu, ratio * mu, rng)
    while not 0 < inst.total_demand <= inst.total_supply:
        inst = sample_instance(net, mu, ratio * mu, rng)
    keep = inst.total_demand if balanced else inst.total_supply
    arrays = (inst.demand_edge, inst.demand_offset, inst.supply_edge[:keep], inst.supply_offset[:keep])
    grid = NetworkInstance(
        net, *(a if i % 2 == 0 else np.round(a / length * 4.0) * length / 4.0 for i, a in enumerate(arrays))
    )
    total = exact_network_match(grid).total_distance
    assert total == pytest.approx(network_flow_cost(grid), rel=1e-12, abs=0.0)


def _draw_automorphism(data, degree, node_count):
    """A node map of the layout onto itself: a rotation of the degree-3
    ladder's cycle, reflected or not, or a torus translation with, on the
    square torus, either axis reflected, and on the triangular torus, both
    (a reflection of one axis alone turns its diagonals the other way)."""
    nodes = np.arange(node_count)
    if degree == 3:
        shift = data.draw(st.integers(0, node_count - 1), label="shift")
        sign = data.draw(st.sampled_from([1, -1]), label="sign")
        return (sign * nodes + shift) % node_count
    rows, cols = _torus_dims(node_count)
    x, y = divmod(nodes, cols)
    shift_x = data.draw(st.integers(0, rows - 1), label="shift_x")
    shift_y = data.draw(st.integers(0, cols - 1), label="shift_y")
    sign_x = data.draw(st.sampled_from([1, -1]), label="sign_x")
    sign_y = data.draw(st.sampled_from([1, -1]), label="sign_y") if degree == 4 else sign_x
    return ((sign_x * x + shift_x) % rows) * cols + (sign_y * y + shift_y) % cols


def _mapped_side(net, node_map, edge, offset):
    """One side's points carried by ``node_map``: each edge to its image,
    an offset to L - x where the edge's lesser end maps to the greater, and
    the points sorted by edge and offset again."""
    image = np.sort(node_map[net.edges], axis=1)
    index = {tuple(ends): k for k, ends in enumerate(net.edges.tolist())}
    image_index = np.array([index[tuple(ends)] for ends in image.tolist()])
    assert sorted(image_index) == list(range(net.edge_count))  # edges onto edges
    swapped = node_map[net.edges[edge, 0]] != image[edge, 0]
    new_edge = image_index[edge]
    new_offset = np.where(swapped, net.length - offset, offset)
    order = np.lexsort((new_offset, new_edge))
    return new_edge[order], new_offset[order]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    layout=st.sampled_from([layout for layout in _LAYOUTS if layout[1] <= 36]),
    length=st.sampled_from([1.0, 0.7, 2.5]),
    sizes=st.integers(1, 10).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, 10))),
)
def test_total_is_unchanged_by_a_layout_automorphism(data, layout, length, sizes):
    # a symmetry of the layout maps every route to one of the same length; an
    # orientation or indexing error that depends on edge labels breaks this,
    # though both solvers share it
    net = _network(*layout, length)
    node_map = _draw_automorphism(data, net.degree, net.node_count)
    arrays = []
    for side, size in zip(("demand", "supply"), sizes):
        points = data.draw(_grid_points(net.edge_count, size), label=side)
        arrays += [np.array([e for e, _ in points]), np.array([q * length / 4 for _, q in points])]
    total = exact_network_match(NetworkInstance(net, *arrays)).total_distance
    mapped = NetworkInstance(
        net,
        *_mapped_side(net, node_map, *arrays[:2]), *_mapped_side(net, node_map, *arrays[2:])
    )
    mapped_total = exact_network_match(mapped).total_distance
    assert mapped_total == pytest.approx(total, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("layout", [(3, 6), (4, 18), (6, 27)])
@pytest.mark.parametrize("length", [1.0, 0.7, 2.5, 1e-3, 1e3])
def test_cost_matrix_at_edge_ends_equals_reference(layout, length):
    # the route out through an end ties the direct segment at the ends; the
    # reference takes the least of both, _cost_matrix the segment alone
    net = _network(*layout, length)
    offsets = [0.0, 1e-300, length / 2, np.nextafter(length, 0.0), length]
    by_edge = {e: offsets for e in range(3)}
    _assert_same_cost_matrix(_manual_instance(net, by_edge, by_edge))


@pytest.mark.parametrize("m", [1, 31, 32, 33, 64, 65])
def test_cost_matrix_at_row_block_edges_equals_reference(square_torus, m):
    # the far-end routes are built _ROW_BLOCK demand rows at a time
    inst = sample_instance(square_torus, 5.0, 10.0, m)
    assert inst.total_demand > 65
    head = NetworkInstance(
        square_torus,
        inst.demand_edge[:m], inst.demand_offset[:m], inst.supply_edge, inst.supply_offset
    )
    _assert_same_cost_matrix(head)


@pytest.fixture(scope="module")
def draw_at_144_edges():
    return sample_instance(build_regular_network(4, 144, 1.0), 5.0, 25.0, 0)


def _traced_peak(f, *args, **kwargs):
    tracemalloc.start()
    try:
        out = f(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_cost_matrix_holds_no_second_matrix(draw_at_144_edges):
    costs, peak = _traced_peak(_cost_matrix, draw_at_144_edges)
    # a full-size far-end temporary beside the result would take about 2x
    assert costs.shape[0] > 16 * assignment._ROW_BLOCK  # many blocks
    assert peak < 1.25 * costs.nbytes


def test_certificate_holds_one_matched_column_matrix(draw_at_144_edges):
    inst = draw_at_144_edges
    costs = _cost_matrix(inst)
    m, n = costs.shape
    start = exact_network_match(inst, costs=costs).pairs[:, 1]
    sol, peak = _traced_peak(solve_dense, costs, start=start)
    assert np.array_equal(sol.col_of_row, start)  # certified: not solved again
    # the m x m matched columns, and at most four row blocks of the matrix
    assert peak < m * m * 8 + 4 * assignment._ROW_BLOCK * n * 8


def test_exact_match_rejects_excess_demand(square_torus):
    inst = _manual_instance(square_torus, {0: [0.1, 0.2]}, {1: [0.5]})
    with pytest.raises(ValueError):
        exact_network_match(inst)
    with pytest.raises(ValueError):
        heuristic_network_match(inst)


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_model_holds_its_edge_ends_once(layout):
    net = build_regular_network(*layout, 1.0)
    # a pool worker gets the model by pickle: it must arrive as built
    for model in (net, pickle.loads(pickle.dumps(net))):
        assert model.edges.shape == (net.edge_count, 2) and model.edges.dtype == np.int64
        assert np.array_equal(model.edges, regular_edges(*layout))
        assert np.array_equal(model.node_distance, net.node_distance)
        assert not (model.edges.flags.writeable or model.node_distance.flags.writeable)


def test_model_derives_what_it_holds_from_its_three_fields(square_torus):
    # a node count, an edge list or a distance matrix cannot be handed in,
    # so none can contradict the layout: a 7-node model of the 36-edge
    # square torus with all-zero distances would give a mean below the optimum
    contradiction = {"node_count": 7, "edges": square_torus.edges, "node_distance": np.zeros((7, 7))}
    for name, value in contradiction.items():
        with pytest.raises(TypeError, match=name):
            NetworkModel(degree=3, edge_count=36, length=1.0, **{name: value})
    for degree, edge_count in _LAYOUTS:
        hops = _all_pairs_hops(2 * edge_count // degree, regular_edges(degree, edge_count))
        for length in (1.0, 0.7, 2.5):
            model = NetworkModel(degree, edge_count, length)
            assert model.node_distance.tobytes() == (hops * length).tobytes()


def _fig6_instances():
    """Feasible draws of fig6's shape: 36 edges, mu = 5, lam = 5 and 25."""
    for degree in (3, 4, 6):
        net = _network(degree, 36, 1.0)
        rng = np.random.default_rng(60 + degree)
        for lam in (5.0, 25.0):
            for _ in range(2):
                inst = sample_instance(net, 5.0, lam, rng)
                while not 0 < inst.total_demand <= inst.total_supply:
                    inst = sample_instance(net, 5.0, lam, rng)
                yield inst


def test_exact_match_on_a_given_cost_matrix_equals_the_default_call():
    for inst in _fig6_instances():
        res = exact_network_match(inst)
        given = exact_network_match(inst, costs=_cost_matrix(inst))
        assert np.array_equal(given.pairs, res.pairs)
        assert given.total_distance == res.total_distance  # bit for bit


def test_exact_match_rejects_costs_of_another_shape():
    inst, other = itertools.islice(_fig6_instances(), 2)
    costs = _cost_matrix(inst)
    assert inst.total_demand < inst.total_supply  # so the transpose has another shape
    assert other.total_demand != inst.total_demand
    for wrong in (costs.T, _cost_matrix(other)):
        with pytest.raises(ValueError, match="costs"):
            exact_network_match(inst, costs=wrong)


def test_heuristic_all_local_when_every_edge_balanced(square_torus):
    rng = np.random.default_rng(44)
    demand = {}
    supply = {}
    expected = 0.0
    for e in range(square_torus.edge_count):
        k = int(rng.integers(0, 4))
        dem = rng.uniform(0, 1, k)
        sup = rng.uniform(0, 1, k)
        demand[e] = dem
        supply[e] = sup
        if k:
            expected += optimal_match_1d(Instance1D(dem, sup, 1.0)).total_distance
    inst = _manual_instance(square_torus, demand, supply)
    res = heuristic_network_match(inst)
    assert res.total_distance == pytest.approx(expected, abs=1e-9)


def test_heuristic_keeps_central_demand_local(square_torus):
    # surplus demand: the two points nearest the edge middle match locally,
    # the two near the ends go looking across edges
    inst = _manual_instance(
        square_torus,
        {0: [0.05, 0.45, 0.55, 0.95]},
        {0: [0.4, 0.6], 5: [0.5], 9: [0.5]},
    )
    res = heuristic_network_match(inst)
    local = {(i, j) for i, j in res.pairs.tolist() if j in (0, 1)}
    assert local == {(1, 0), (2, 1)}
    assert len(res.pairs) == 4


def test_heuristic_never_beats_exact(square_torus):
    rng = np.random.default_rng(45)
    for _ in range(40):
        while True:
            inst = sample_instance(square_torus, 1.0, 1.2, rng)
            if 0 < inst.total_demand <= inst.total_supply:
                break
        h = heuristic_network_match(inst)
        ex = exact_network_match(inst)
        assert h.total_distance >= ex.total_distance - 1e-9
        for res in (h, ex):
            assert res.pairs.dtype == np.int64 and not res.pairs.flags.writeable
            assert res.pairs.shape == (inst.total_demand, 2)


def _assert_same_result(res, ref):
    """The two results hold equal pairs, totals and means."""
    assert np.array_equal(res.pairs, ref.pairs)
    assert res.total_distance == ref.total_distance
    assert res.mean_distance == ref.mean_distance


@pytest.mark.parametrize("degree", [3, 4, 6])
def test_heuristic_equals_scalar_reference(degree):
    net = build_regular_network(degree, 36, 1.0)
    rng = np.random.default_rng(47 + degree)
    for mu, lam in ((0.5, 0.5), (1.0, 1.5), (3.0, 3.0), (5.0, 5.0), (5.0, 10.0)):
        checked = 0
        while checked < 4:
            inst = sample_instance(net, mu, lam, rng)
            if inst.total_demand > inst.total_supply:
                continue
            checked += 1
            res = heuristic_network_match(inst)
            ref = _heuristic_reference(inst)
            _assert_same_result(res, ref)


def test_heuristic_search_layer_outranks_distance(square_torus):
    # the demand point at 0.4 on edge (0, 6) searches from node 0: edge (0, 1)
    # touches node 0 (layer 0), edge (6, 12) lies one hop out (layer 1)
    edge = {pair: e for e, pair in enumerate(map(tuple, square_torus.edges.tolist()))}
    inst = _manual_instance(
        square_torus,
        {edge[0, 6]: [0.4]},
        {edge[0, 1]: [0.95], edge[6, 12]: [0.05]},
    )
    near_layer = int(np.flatnonzero(inst.supply_edge == edge[0, 1])[0])
    res = heuristic_network_match(inst)
    assert res.pairs.tolist() == [[0, near_layer]]
    assert res.total_distance == pytest.approx(1.35, abs=1e-12)
    assert exact_network_match(inst).total_distance == pytest.approx(0.65, abs=1e-12)
    _assert_same_result(res, _heuristic_reference(inst))


def test_heuristic_ties_take_lowest_index(square_torus):
    # two layer-0 supply points 0.1 out of node 0 on edges (0, 1) and (0, 5)
    edge = {pair: e for e, pair in enumerate(map(tuple, square_torus.edges.tolist()))}
    assert edge[0, 1] < edge[0, 5]
    inst = _manual_instance(
        square_torus,
        {edge[0, 6]: [0.4]},
        {edge[0, 5]: [0.1], edge[0, 1]: [0.1]},
    )
    res = heuristic_network_match(inst)
    assert res.pairs.tolist() == [[0, 0]]
    _assert_same_result(res, _heuristic_reference(inst))


def test_global_fraction_tracks_alpha(square_torus):
    # fraction of demand matched across edges stays within three per-instance
    # standard deviations of the alpha approximation
    mu = lam = 5.0
    parts = _estimate(4, mu, lam, 1.0)
    rng = np.random.default_rng(46)
    fractions = []
    for _ in range(100):
        while True:
            inst = sample_instance(square_torus, mu, lam, rng)
            if 0 < inst.total_demand <= inst.total_supply:
                break
        local_pairs = 0
        res = heuristic_network_match(inst)
        for i, j in res.pairs.tolist():
            if inst.demand_edge[i] == inst.supply_edge[j]:
                local_pairs += 1
        fractions.append(1.0 - local_pairs / inst.total_demand)
    fractions = np.asarray(fractions)
    assert abs(fractions.mean() - parts.alpha) <= 3.0 * fractions.std(ddof=1)


def test_estimate_parts_identity_and_probability():
    parts = _estimate(4, 5.0, 5.0, 1.0)
    assert parts.total == pytest.approx(
        (1 - parts.alpha) * parts.local + parts.alpha * (parts.d1 + parts.d2 + parts.d3),
        abs=1e-15,
    )
    assert 0.0 <= parts.alpha <= 1.0
    # the normal approximation of the per-edge surplus probability
    assert normal_cdf(-0.5 / math.sqrt(10.0)) == pytest.approx(0.4372, abs=1e-4)


def test_estimate_alpha_vanishes_for_heavy_surplus():
    parts = _estimate(4, 5.0, 500.0, 1.0)
    assert parts.alpha == pytest.approx(0.0, abs=1e-12)
    assert parts.total == pytest.approx(parts.local)


def test_estimate_parts_hold_where_the_surplus_tail_underflows():
    # at mu = L = 1 the demand-surplus tail is subnormal from lam = 1412 and
    # 0.0 from lam = 1485; d1 tends to 1/8 throughout
    lams = (1400, 1450, 1480, 1500, 2000, 5000)
    parts = [_estimate(4, 1.0, float(lam), 1.0) for lam in lams]
    for p in parts:
        assert math.isfinite(p.d1) and p.d1 > 0.0
        assert p.alpha >= 0.0 and math.copysign(1.0, p.alpha) == 1.0  # never -0.0
        # the global part's weight is below the last bit of the local one
        assert p.total == p.local
    for a, b in zip(parts, parts[1:]):
        assert abs(a.d1 - b.d1) < 1e-3


def test_estimate_monotone_in_supply_density():
    for degree in (3, 4, 6):
        totals = [_estimate(degree, 5.0, float(lam), 1.0).total for lam in range(5, 26)]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_search_layer_distribution_tail():
    for degree in (3, 4, 6):
        for lam in (5.0, 10.0, 15.0, 20.0, 25.0):
            q = normal_cdf((-0.5 + (lam - 5.0)) / math.sqrt(lam + 5.0))
            probs = d2_probabilities(degree, q)
            total = probs.sum()
            assert total <= 1.0 + 1e-12
            assert 1.0 - total < 1e-6  # truncation at ten layers loses almost nothing
    # the least supply-excess probability of a valid point, at mu*length =
    # lam*length = 1: no search passes layer 10 in float64 at any degree
    q_least = normal_cdf(-1.0 / (2.0 * math.sqrt(2.0)))
    assert q_least == pytest.approx(0.362, abs=1e-3)
    for degree in (3, 4, 6):
        assert len(d2_probabilities(degree, q_least)) == SEARCH_LAYERS + 1
        searched = sum((degree - 1) ** (k + 1) for k in range(SEARCH_LAYERS + 1))
        assert math.exp(searched * math.log1p(-q_least)) == 0.0


@pytest.mark.parametrize(
    "degree, q, message",
    [
        (5, 0.5, "degree must be one of (3, 4, 6), got 5"),
        (4.0, 0.5, "degree must be an integer of at least 3, got 4.0"),
        (4, 1.5, "supply_excess_prob must lie in [0, 1], got 1.5"),
        (4, -0.2, "supply_excess_prob must lie in [0, 1], got -0.2"),
        (4, math.nan, "supply_excess_prob must lie in [0, 1], got nan"),
    ],
)
def test_search_layer_distribution_rejects_bad_inputs(degree, q, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        d2_probabilities(degree, q)


def test_estimate_alpha_is_a_probability_at_every_valid_point():
    # alpha does not read the local edge estimate; a zero keeps the grid fast
    alphas = [
        network_estimate(
            4, EdgeParams(mu_count / length, (mu_count + excess) / length, length), 0.0
        ).alpha
        for length in (0.5, 1.0, 3.0)
        for mu_count in range(1, 31)
        for excess in range(101)
    ]
    assert 0.0 <= min(alphas) and max(alphas) <= 1.0


def test_estimate_rejects_bad_parameters():
    with pytest.raises(ValueError, match="degree must be one of"):
        network_estimate(5, EdgeParams(1.0, 2.0, 1.0), 0.0)
    # lam < mu is rejected when the edge parameters are built
    with pytest.raises(ValueError, match="lam must be at least mu"):
        _estimate(4, 3.0, 2.0, 1.0)
