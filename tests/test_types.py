import math

import numpy as np
import pytest

from rbmatch.estimators import (
    balanced_estimate,
    baseline_estimate,
    closed_unbalanced_estimate,
    recursion_table,
    recursive_estimate,
    recursive_estimates,
)
from rbmatch.network import build_regular_network
from rbmatch.types import EdgeParams, Instance1D, MatchResult, build_supply_curve


def test_two_point_curve():
    curve = build_supply_curve(Instance1D(demand=[0.4], supply=[0.1], length=1.0))
    assert curve.coords.tolist() == [0.1, 0.4]
    assert curve.values.tolist() == [1, -1]
    assert curve.prefix.tolist() == [1, 0]
    assert curve.gaps.tolist() == pytest.approx([0.3])


def test_single_point_curve():
    curve = build_supply_curve(Instance1D(demand=[], supply=[0.5], length=1.0))
    assert curve.prefix.tolist() == [1]
    assert curve.gaps.tolist() == []
    assert curve.total_area == 0.0


def test_four_event_merge():
    curve = build_supply_curve(Instance1D(demand=[0.2, 0.8], supply=[0.5, 0.9]))
    assert curve.prefix.tolist() == [-1, 0, -1, 0]


def test_empty_instance_empty_curve():
    curve = build_supply_curve(Instance1D(demand=[], supply=[]))
    assert len(curve) == 0
    assert curve.total_area == 0.0


def test_tie_breaks_supply_first():
    curve = build_supply_curve(Instance1D(demand=[0.3], supply=[0.3]))
    assert curve.values.tolist() == [1, -1]
    assert curve.prefix.tolist() == [1, 0]


def test_coordinates_sorted_on_construction():
    demand, supply = np.array([0.9, 0.1]), np.array([0.5, 0.2, 0.7])
    inst = Instance1D(demand=demand, supply=supply)
    assert inst.demand.tolist() == [0.1, 0.9]
    assert inst.supply.tolist() == [0.2, 0.5, 0.7]
    assert not inst.demand.flags.writeable
    assert not np.shares_memory(inst.demand, demand)
    assert not np.shares_memory(inst.supply, supply)


def test_construction_validation():
    with pytest.raises(ValueError):
        Instance1D(demand=[0.1, 0.2], supply=[0.3])  # m > n
    with pytest.raises(ValueError, match="demand coordinates must be finite and lie in"):
        Instance1D(demand=[1.5], supply=[0.2, 0.3])  # out of range
    with pytest.raises(ValueError, match="supply coordinates must be finite and lie in"):
        Instance1D(demand=[0.5], supply=[0.2, 2.5], length=2.0)  # above the length
    with pytest.raises(ValueError):
        Instance1D(demand=[0.1], supply=[0.2], length=0.0)
    with pytest.raises(ValueError, match="demand coordinates"):
        Instance1D(demand=[-0.1], supply=[0.2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_construction_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        Instance1D(demand=[0.2, bad], supply=[0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="finite"):
        Instance1D(demand=[0.2], supply=[bad, 0.5, 0.9])


def test_balanced_prefix_ends_at_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        curve = build_supply_curve(Instance1D(rng.uniform(0, 1, n), rng.uniform(0, 1, n)))
        assert curve.prefix[-1] == 0


def test_unbalanced_prefix_ends_at_surplus():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(0, 20))
        n = int(rng.integers(m, 30))
        curve = build_supply_curve(Instance1D(rng.uniform(0, 1, m), rng.uniform(0, 1, n)))
        if len(curve):
            assert curve.prefix[-1] == n - m


def test_match_result_mean():
    res = MatchResult.from_pairs([(0, 1), (1, 2)], [0.1, 0.3])
    assert res.total_distance == pytest.approx(0.4)
    assert res.mean_distance == pytest.approx(0.2)
    empty = MatchResult.from_pairs([], [])
    assert empty.mean_distance == 0.0


@pytest.mark.parametrize(
    "pairs",
    [
        [(0, 1), (1, 3), (2, 2)],
        ((0, 1), (1, 3), (2, 2)),
        np.array([[0, 1], [1, 3], [2, 2]]),
        np.array([[0, 1], [1, 3], [2, 2]], dtype=np.int32),
        np.column_stack((np.arange(3), np.array([1, 3, 2]))),
        [(np.int64(0), np.int64(1)), (1, np.int64(3)), (np.int32(2), 2)],
        lambda: zip(range(3), [1, 3, 2]),
    ],
)
def test_from_pairs_gives_readonly_int64_array(pairs):
    pairs = pairs() if callable(pairs) else pairs  # a fresh iterator per run
    res = MatchResult.from_pairs(pairs, [0.5, 0.25, 0.25])
    assert type(res.pairs) is np.ndarray and res.pairs.dtype == np.int64
    assert res.pairs.tolist() == [[0, 1], [1, 3], [2, 2]]
    assert not res.pairs.flags.writeable
    assert res.total_distance == 1.0 and res.mean_distance == 1.0 / 3.0


def test_from_pairs_freezes_int64_input_in_place():
    pairs = np.array([[0, 1], [1, 0]], dtype=np.int64)
    assert MatchResult.from_pairs(pairs, [0.0, 0.0]).pairs is pairs
    assert not pairs.flags.writeable


@pytest.mark.parametrize("empty", [[], (), np.empty((0, 2), dtype=np.int64), np.array([], dtype=np.int64)])
def test_from_pairs_accepts_empty_input(empty):
    res = MatchResult.from_pairs(empty, [])
    assert res.pairs.shape == (0, 2) and res.pairs.dtype == np.int64
    assert not res.pairs.flags.writeable
    assert res.total_distance == 0.0 and res.mean_distance == 0.0


@pytest.mark.parametrize(
    "pairs",
    [[0, 1], [(0, 1, 2)], np.zeros((2, 3), dtype=np.int64), np.zeros((1, 2, 2), dtype=np.int64), np.arange(4)],
)
def test_from_pairs_rejects_other_shapes(pairs):
    with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
        MatchResult.from_pairs(pairs, [0.0])


def test_edge_params_validation():
    EdgeParams(mu=1.0, lam=2.0, length=3.0)
    with pytest.raises(ValueError):
        EdgeParams(mu=0.0, lam=1.0, length=1.0)
    with pytest.raises(ValueError):
        EdgeParams(mu=2.0, lam=1.0, length=1.0)
    with pytest.raises(ValueError):
        EdgeParams(mu=1.0, lam=2.0, length=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["mu", "lam", "length"])
def test_edge_params_reject_non_finite(field, bad):
    values = {"mu": 1.0, "lam": 2.0, "length": 3.0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        EdgeParams(**values)


def test_edge_params_counts():
    params = EdgeParams(mu=10.0, lam=11.0, length=3.0)
    assert (params.m, params.n) == (30, 33)
    assert type(params.m) is int and type(params.n) is int
    params = EdgeParams(mu=0.1, lam=0.3, length=30.0)  # float rounding
    assert (params.m, params.n) == (3, 9)
    assert params == EdgeParams(mu=0.1, lam=0.3, length=30.0)
    assert repr(params) == "EdgeParams(mu=0.1, lam=0.3, length=30.0)"
    # fractional or zero counts are rejected when the parameters are built
    with pytest.raises(ValueError, match="integral"):
        EdgeParams(mu=1.5, lam=2.5, length=1.1)
    with pytest.raises(ValueError, match="at least 1"):
        EdgeParams(mu=1e-9, lam=1.0, length=1.0)


LENGTH_TAKERS = {
    "EdgeParams": lambda length: EdgeParams(1.0, 2.0, length),
    "Instance1D": lambda length: Instance1D([0.1], [0.2], length),
    "build_regular_network": lambda length: build_regular_network(4, 36, length),
    "balanced_estimate": lambda length: balanced_estimate(3, length),
    "closed_unbalanced_estimate": lambda length: closed_unbalanced_estimate(3, 5, length),
    "baseline_estimate": lambda length: baseline_estimate(3, 5, length),
    "recursion_table": lambda length: recursion_table(3, 5, length),
    "recursive_estimates": lambda length: recursive_estimates(3, [4, 5], length),
    "recursive_estimate": lambda length: recursive_estimate(3, 5, length),
}


@pytest.mark.parametrize("length", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("name", LENGTH_TAKERS)
def test_lengths_not_finite_and_positive_are_rejected(name, length):
    with pytest.raises(ValueError, match=f"length must be finite and positive, got {length!r}"):
        LENGTH_TAKERS[name](length)
