import numpy as np
import pytest

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
    inst = Instance1D(demand=[0.9, 0.1], supply=[0.5, 0.2, 0.7])
    assert inst.demand.tolist() == [0.1, 0.9]
    assert inst.supply.tolist() == [0.2, 0.5, 0.7]
    assert not inst.demand.flags.writeable


def test_construction_validation():
    with pytest.raises(ValueError):
        Instance1D(demand=[0.1, 0.2], supply=[0.3])  # m > n
    with pytest.raises(ValueError):
        Instance1D(demand=[1.5], supply=[0.2, 0.3])  # out of range
    with pytest.raises(ValueError):
        Instance1D(demand=[0.1], supply=[0.2], length=0.0)
    with pytest.raises(ValueError):
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


def test_absolute_area_consistency_and_monotonicity():
    rng = np.random.default_rng(2)
    inst = Instance1D(rng.uniform(0, 1, 15), rng.uniform(0, 1, 15))
    curve = build_supply_curve(inst)
    assert curve.absolute_area(1.0) == pytest.approx(curve.total_area, abs=1e-12)
    xs = np.linspace(0, 1, 50)
    areas = [curve.absolute_area(x) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(areas, areas[1:]))


def test_instance_json_round_trip():
    inst = Instance1D(demand=[0.2, 0.8], supply=[0.5, 0.9, 0.95], length=1.0)
    text = inst.to_json()
    assert '"length"' in text and '"demand"' in text and '"supply"' in text
    back = Instance1D.from_json(text)
    assert back.length == inst.length
    assert back.demand.tolist() == inst.demand.tolist()
    assert back.supply.tolist() == inst.supply.tolist()


def test_match_result_mean():
    res = MatchResult.from_pairs([(0, 1), (1, 2)], [0.1, 0.3])
    assert res.total_distance == pytest.approx(0.4)
    assert res.mean_distance == pytest.approx(0.2)
    empty = MatchResult.from_pairs([], [])
    assert empty.mean_distance == 0.0


def test_edge_params_validation():
    EdgeParams(mu=1.0, lam=2.0, length=3.0)
    with pytest.raises(ValueError):
        EdgeParams(mu=0.0, lam=1.0, length=1.0)
    with pytest.raises(ValueError):
        EdgeParams(mu=2.0, lam=1.0, length=1.0)
    with pytest.raises(ValueError):
        EdgeParams(mu=1.0, lam=2.0, length=0.0)


def test_edge_params_counts():
    assert EdgeParams(mu=10.0, lam=11.0, length=3.0).counts() == (30, 33)
    assert EdgeParams(mu=0.1, lam=0.3, length=30.0).counts() == (3, 9)  # float rounding
    with pytest.raises(ValueError, match="integral"):
        EdgeParams(mu=1.5, lam=2.5, length=1.1).counts()
    with pytest.raises(ValueError, match="at least 1"):
        EdgeParams(mu=1e-9, lam=1.0, length=1.0).counts()
