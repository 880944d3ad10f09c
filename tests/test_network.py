import itertools
import math

import numpy as np
import pytest

from _references import _heuristic_reference, point_distance
from test_assignment import _solve_dense_reference

from rbmatch.combinatorics import normal_cdf
from rbmatch.exact1d import optimal_match_1d
from rbmatch.network import (
    NetworkInstance,
    _cost_matrix,
    build_regular_network,
    d2_probabilities,
    exact_network_match,
    heuristic_network_match,
    network_estimate,
    regular_edges,
    sample_instance,
)
from rbmatch.types import Instance1D


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
            assert len(set(net.edges)) == net.edge_count  # no repeated edge
            assert all(a < b for a, b in net.edges)  # and no loop
            deg = np.bincount(np.ravel(net.edges), minlength=net.node_count)
            assert (deg == degree).all()
            assert np.isfinite(net.node_distance).all()
            assert (net.node_distance == net.node_distance.T).all()
            assert (np.diag(net.node_distance) == 0).all()
    assert built == 249


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
    # sample_instance skips NetworkInstance's checks; rebuilding each draw
    # through the public constructor must accept it and keep every array
    net = build_regular_network(degree, edge_count, 1.0)
    fields = ("demand_edge", "demand_offset", "supply_edge", "supply_offset")
    empty_sides = 0
    for seed in range(20):
        inst = sample_instance(net, mu, lam, seed)
        rebuilt = NetworkInstance(*(getattr(inst, f) for f in fields))
        for f in fields:
            a, b = getattr(inst, f), getattr(rebuilt, f)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        empty_sides += inst.total_demand == 0
    if (edge_count, mu) == (6, 0.3):
        assert empty_sides  # whole sides of no points are among the draws


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
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"mu must be finite and positive, got {bad!r}"):
            sample_instance(square_torus, bad, 1.0, 1)
        with pytest.raises(ValueError, match=f"lam must be finite and positive, got {bad!r}"):
            sample_instance(square_torus, 1.0, bad, 1)


def test_exact_match_single_pair(square_torus):
    inst = _manual_instance(square_torus, {0: [0.2]}, {0: [0.9]})
    res = exact_network_match(square_torus, inst)
    assert res.total_distance == pytest.approx(0.7)


def _manual_instance(net, demand_by_edge, supply_by_edge) -> NetworkInstance:
    arrays = []
    for by_edge in (demand_by_edge, supply_by_edge):
        per_edge = [np.sort(np.asarray(by_edge.get(e, []), float)) for e in range(net.edge_count)]
        arrays.append(np.repeat(np.arange(net.edge_count), [len(a) for a in per_edge]))
        arrays.append(np.concatenate(per_edge))
    return NetworkInstance(*arrays)


def test_instance_rejects_points_out_of_edge_order(square_torus):
    # out of order, _cost_matrix would read the point at 0.5 on edge 3 as lying on edge 0
    demand = (np.array([0]), np.array([0.5]))
    with pytest.raises(ValueError, match="supply_edge"):
        NetworkInstance(*demand, np.array([3, 0]), np.array([0.5, 0.9]))
    inst = NetworkInstance(*demand, np.array([0, 3]), np.array([0.9, 0.5]))
    assert inst.supply_offset.tolist() == [0.9, 0.5]
    assert exact_network_match(square_torus, inst).total_distance == pytest.approx(0.4)
    assert _cost_matrix(square_torus, inst)[0, 1] == point_distance(square_torus, (0, 0.5), (3, 0.5))


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
        ("demand_edge", ([0.0], [0.5], [0], [0.5])),
        ("supply_edge", ([0], [0.5], [0, 1], [0.5])),
        ("supply_edge", ([0], [0.5], [[0]], [[0.5]])),
    ],
)
def test_instance_validation_names_the_field(field, fields):
    with pytest.raises(ValueError, match=field):
        NetworkInstance(*(np.asarray(f) for f in fields))


@pytest.mark.parametrize(
    "field, fields",
    [
        # an offset past the edge end would read as a point on the next stretch
        ("demand_offset", ([0], [1.5], [0], [0.2])),
        ("supply_offset", ([0], [0.2], [0], [1.5])),
        ("demand_edge", ([40], [0.5], [0], [0.5])),
        ("supply_edge", ([0], [0.5], [36], [0.5])),
    ],
)
def test_matchers_reject_points_off_the_network(square_torus, field, fields):
    inst = NetworkInstance(*(np.asarray(f) for f in fields))
    for matcher in (exact_network_match, heuristic_network_match):
        with pytest.raises(ValueError, match=field):
            matcher(square_torus, inst)


def test_instance_accepts_empty_sides(square_torus):
    inst = NetworkInstance([], [], [4], [0.5])
    assert inst.total_demand == 0 and inst.demand_edge.dtype == np.int64
    assert exact_network_match(square_torus, inst).pairs == ()


def test_exact_match_single_edge_matches_segment_dp(square_torus):
    # points kept in the middle third never route around the ends
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 8))
        dem = rng.uniform(1 / 3, 2 / 3, m)
        sup = rng.uniform(1 / 3, 2 / 3, n)
        inst = _manual_instance(square_torus, {3: dem}, {3: sup})
        res = exact_network_match(square_torus, inst)
        seg = optimal_match_1d(Instance1D(dem, sup, 1.0))
        assert res.total_distance == pytest.approx(seg.total_distance, abs=1e-9)


def _point_distances(net, inst) -> np.ndarray:
    """The demand-by-supply matrix of scalar ``point_distance`` values."""
    demand = list(zip(inst.demand_edge.tolist(), inst.demand_offset.tolist()))
    supply = list(zip(inst.supply_edge.tolist(), inst.supply_offset.tolist()))
    rows = [[point_distance(net, a, b) for b in supply] for a in demand]
    return np.array(rows).reshape(len(demand), len(supply))


def _fig6_sized_instance():
    net = build_regular_network(3, 36, 1.0)
    return net, sample_instance(net, 5.0, 25.0, 6)


def _sparse_demand_instance():
    net = build_regular_network(4, 36, 1.0)
    inst = sample_instance(net, 0.1, 5.0, 7)
    assert (np.bincount(inst.demand_edge, minlength=36) == 0).mean() > 0.5
    return net, inst


def _demand_without_supply_instance():
    net = build_regular_network(6, 36, 1.0)
    inst = _manual_instance(
        net, {0: [0.1, 0.5, 0.9], 7: [0.3]}, {3: [0.2, 0.8], 7: [0.6], 20: [0.0, 1.0]}
    )
    return net, inst


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
    net, inst = build()
    costs = _cost_matrix(net, inst)
    assert costs.shape == (inst.total_demand, inst.total_supply)
    assert np.array_equal(costs, _point_distances(net, inst))


def test_exact_match_brute_force(square_torus):
    rng = np.random.default_rng(43)
    for _ in range(25):
        while True:
            inst = sample_instance(square_torus, 0.04, 0.06, rng)
            if 0 < inst.total_demand <= 4 and inst.total_demand <= inst.total_supply <= 6:
                break
        res = exact_network_match(square_torus, inst)
        costs = _point_distances(square_torus, inst)
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
        costs = _cost_matrix(net, inst)
        assert np.array_equal(costs, _point_distances(net, inst))
        res = exact_network_match(net, inst)
        ref = _solve_dense_reference(costs)
        assert res.total_distance == pytest.approx(ref.total_cost, rel=1e-12, abs=0.0)


def test_exact_match_rejects_excess_demand(square_torus):
    inst = _manual_instance(square_torus, {0: [0.1, 0.2]}, {1: [0.5]})
    with pytest.raises(ValueError):
        exact_network_match(square_torus, inst)
    with pytest.raises(ValueError):
        heuristic_network_match(square_torus, inst)


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
    res = heuristic_network_match(square_torus, inst)
    assert res.total_distance == pytest.approx(expected, abs=1e-9)


def test_heuristic_keeps_central_demand_local(square_torus):
    # surplus demand: the two points nearest the edge middle match locally,
    # the two near the ends go looking across edges
    inst = _manual_instance(
        square_torus,
        {0: [0.05, 0.45, 0.55, 0.95]},
        {0: [0.4, 0.6], 5: [0.5], 9: [0.5]},
    )
    res = heuristic_network_match(square_torus, inst)
    local = {(i, j) for i, j in res.pairs if j in (0, 1)}
    assert local == {(1, 0), (2, 1)}
    assert len(res.pairs) == 4


def test_heuristic_never_beats_exact(square_torus):
    rng = np.random.default_rng(45)
    for _ in range(40):
        while True:
            inst = sample_instance(square_torus, 1.0, 1.2, rng)
            if 0 < inst.total_demand <= inst.total_supply:
                break
        h = heuristic_network_match(square_torus, inst)
        ex = exact_network_match(square_torus, inst)
        assert h.total_distance >= ex.total_distance - 1e-9
        assert len(h.pairs) == inst.total_demand


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
            res = heuristic_network_match(net, inst)
            ref = _heuristic_reference(net, inst)
            assert res.pairs == ref.pairs
            assert res.total_distance == ref.total_distance


def test_heuristic_search_layer_outranks_distance(square_torus):
    # the demand point at 0.4 on edge (0, 6) searches from node 0: edge (0, 1)
    # touches node 0 (layer 0), edge (6, 12) lies one hop out (layer 1)
    edge = {pair: e for e, pair in enumerate(square_torus.edges)}
    inst = _manual_instance(
        square_torus,
        {edge[0, 6]: [0.4]},
        {edge[0, 1]: [0.95], edge[6, 12]: [0.05]},
    )
    near_layer = int(np.flatnonzero(inst.supply_edge == edge[0, 1])[0])
    res = heuristic_network_match(square_torus, inst)
    assert res.pairs == ((0, near_layer),)
    assert res.total_distance == pytest.approx(1.35, abs=1e-12)
    assert exact_network_match(square_torus, inst).total_distance == pytest.approx(0.65, abs=1e-12)
    assert res == _heuristic_reference(square_torus, inst)


def test_heuristic_ties_take_lowest_index(square_torus):
    # two layer-0 supply points 0.1 out of node 0 on edges (0, 1) and (0, 5)
    edge = {pair: e for e, pair in enumerate(square_torus.edges)}
    assert edge[0, 1] < edge[0, 5]
    inst = _manual_instance(
        square_torus,
        {edge[0, 6]: [0.4]},
        {edge[0, 5]: [0.1], edge[0, 1]: [0.1]},
    )
    res = heuristic_network_match(square_torus, inst)
    assert res.pairs == ((0, 0),)
    assert res == _heuristic_reference(square_torus, inst)


def test_global_fraction_tracks_alpha(square_torus):
    # fraction of demand matched across edges stays within three per-instance
    # standard deviations of the alpha approximation
    mu = lam = 5.0
    parts = network_estimate(4, mu, lam, 1.0)
    rng = np.random.default_rng(46)
    fractions = []
    for _ in range(100):
        while True:
            inst = sample_instance(square_torus, mu, lam, rng)
            if 0 < inst.total_demand <= inst.total_supply:
                break
        local_pairs = 0
        res = heuristic_network_match(square_torus, inst)
        for i, j in res.pairs:
            if inst.demand_edge[i] == inst.supply_edge[j]:
                local_pairs += 1
        fractions.append(1.0 - local_pairs / inst.total_demand)
    fractions = np.asarray(fractions)
    assert abs(fractions.mean() - parts.alpha) <= 3.0 * fractions.std(ddof=1)


def test_estimate_parts_identity_and_probability():
    parts = network_estimate(4, 5.0, 5.0, 1.0)
    assert parts.total == pytest.approx(
        (1 - parts.alpha) * parts.local + parts.alpha * (parts.d1 + parts.d2 + parts.d3),
        abs=1e-15,
    )
    assert 0.0 <= parts.alpha <= 1.0
    # the normal approximation of the per-edge surplus probability
    assert normal_cdf(-0.5 / math.sqrt(10.0)) == pytest.approx(0.4372, abs=1e-4)


def test_estimate_alpha_vanishes_for_heavy_surplus():
    parts = network_estimate(4, 5.0, 500.0, 1.0)
    assert parts.alpha == pytest.approx(0.0, abs=1e-12)
    assert parts.total == pytest.approx(parts.local)


def test_estimate_monotone_in_supply_density():
    for degree in (3, 4, 6):
        totals = [network_estimate(degree, 5.0, float(lam), 1.0).total for lam in range(5, 26)]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_search_layer_distribution_tail():
    for degree in (3, 4, 6):
        for lam in (5.0, 10.0, 15.0, 20.0, 25.0):
            q = normal_cdf((-0.5 + (lam - 5.0)) / math.sqrt(lam + 5.0))
            probs = d2_probabilities(degree, q, 10)
            total = probs.sum()
            assert total <= 1.0 + 1e-12
            assert 1.0 - total < 1e-6  # truncation at ten layers loses almost nothing


def test_estimate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        network_estimate(5, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        network_estimate(4, 3.0, 2.0, 1.0)
    for kappa in (0, 2.5, 3.0):
        with pytest.raises(ValueError, match="kappa must be an integer"):
            network_estimate(4, 1.0, 2.0, 1.0, kappa=kappa)
