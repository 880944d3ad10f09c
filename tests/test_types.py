import copy
import dataclasses
import enum
import json
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _references import check_count_isinstance, check_positive_isinstance, merged_events_lexsort

from rbmatch.assignment import CostMatrix
from rbmatch.combinatorics import expected_zero_returns, harel_area, stars_bars_distribution
from rbmatch.estimators import (
    balanced_estimate,
    baseline_estimate,
    closed_unbalanced_estimate,
    closed_unbalanced_estimates,
    recursion_table,
    recursive_estimate,
    recursive_estimates,
)
from rbmatch.montecarlo import (
    EdgePoint,
    ExperimentConfig,
    ExperimentKind,
    NetworkPoint,
    SegmentPoint,
    SummaryRecord,
    records_to_json,
    run_experiment,
)
from rbmatch.network import (
    NetworkEstimateParts,
    NetworkInstance,
    build_regular_network,
    d2_probabilities,
    network_estimate,
    regular_edges,
)
from rbmatch.types import (
    EdgeParams,
    Instance1D,
    MatchResult,
    SupplyCurve,
    check_count,
    check_positive,
)


def test_two_point_curve():
    curve = SupplyCurve(Instance1D(demand=[0.4], supply=[0.1], length=1.0))
    assert curve.coords.tolist() == [0.1, 0.4]
    assert curve.values.tolist() == [1, -1]
    assert curve.prefix.tolist() == [1, 0]
    assert curve.gaps.tolist() == pytest.approx([0.3])


def test_single_point_curve():
    curve = SupplyCurve(Instance1D(demand=[], supply=[0.5], length=1.0))
    assert curve.prefix.tolist() == [1]
    assert curve.gaps.tolist() == []
    assert curve.total_area == 0.0


def test_four_event_merge():
    curve = SupplyCurve(Instance1D(demand=[0.2, 0.8], supply=[0.5, 0.9]))
    assert curve.prefix.tolist() == [-1, 0, -1, 0]


def test_empty_instance_empty_curve():
    curve = SupplyCurve(Instance1D(demand=[], supply=[]))
    assert len(curve) == 0
    assert curve.total_area == 0.0


def test_tie_breaks_supply_first():
    curve = SupplyCurve(Instance1D(demand=[0.3], supply=[0.3]))
    assert curve.values.tolist() == [1, -1]
    assert curve.prefix.tolist() == [1, 0]
    curve = SupplyCurve(Instance1D(demand=[0.3, 0.3, 0.0], supply=[0.5, 0.3, 0.3, 0.0]))
    assert curve.values.tolist() == [1, -1, 1, 1, -1, -1, 1]


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(0, 12),
    surplus=st.integers(0, 12),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_curve_events_equal_the_lexsort_merge(m, surplus, tied, seed):
    rng = np.random.default_rng(seed)
    draw = (lambda k: rng.integers(0, 5, k) / 4) if tied else (lambda k: rng.uniform(0, 1, k))
    inst = Instance1D(draw(m), draw(m + surplus))
    coords, values = merged_events_lexsort(inst)
    curve = SupplyCurve(inst)
    assert curve.coords.tobytes() == coords.tobytes() and curve.coords.dtype == coords.dtype
    assert curve.values.tobytes() == values.tobytes() and curve.values.dtype == values.dtype


def test_a_curve_is_built_only_from_an_instance():
    # events no instance has cannot make a curve
    for events in ([0.1, 0.4], np.array([0.1, 0.4]), None, EdgeParams(1.0, 2.0, 1.0)):
        with pytest.raises(TypeError, match="inst must be an Instance1D"):
            SupplyCurve(events)
    with pytest.raises(TypeError):
        SupplyCurve(np.array([0.1, 0.4]), np.array([1]))


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
        curve = SupplyCurve(Instance1D(rng.uniform(0, 1, n), rng.uniform(0, 1, n)))
        assert curve.prefix[-1] == 0


def test_unbalanced_prefix_ends_at_surplus():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(0, 20))
        n = int(rng.integers(m, 30))
        curve = SupplyCurve(Instance1D(rng.uniform(0, 1, m), rng.uniform(0, 1, n)))
        if len(curve):
            assert curve.prefix[-1] == n - m


def test_match_result_mean():
    res = MatchResult.from_pairs([(0, 1), (1, 2)], [0.1, 0.3])
    assert res.total_distance == pytest.approx(0.4)
    assert res.mean_distance == pytest.approx(0.2)
    empty = MatchResult.from_pairs([], [])
    assert empty.mean_distance == 0.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: MatchResult([], 5.0),
        lambda: MatchResult([[0, 1]], -2.0),
        lambda: MatchResult([[0, 1]], math.nan),
        lambda: MatchResult([[0, 1]], math.inf),
        lambda: MatchResult.from_pairs([[0, 1]], [math.nan]),
        lambda: MatchResult.from_pairs([[0, 1], [1, 0]], [0.5, -0.75]),
    ],
    ids=["no-pairs", "negative", "nan", "inf", "from_pairs-nan", "from_pairs-negative"],
)
def test_match_result_rejects_a_total_its_pairs_cannot_have(build):
    # a mean of 0.0 over no pairs, or of a negative or non-finite total,
    # would describe no matching
    with pytest.raises(ValueError, match="total_distance must be finite, >= 0 and 0.0 for no pairs"):
        build()


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


def test_from_pairs_copies_a_view_before_freezing_it():
    base = np.array([[0, 1], [1, 0], [2, 2]], dtype=np.int64)
    res = MatchResult.from_pairs(base[:2], [0.0, 0.0])
    base[0, 1] = 2
    assert res.pairs.tolist() == [[0, 1], [1, 0]]
    assert res.pairs.flags.owndata and not res.pairs.flags.writeable


def _frozen_cost_matrix(costs):
    return CostMatrix(costs).costs


def _frozen_pairs(pairs):
    return MatchResult.from_pairs(pairs, np.zeros(len(pairs))).pairs


def _frozen_offsets(offsets):
    edges = np.zeros(offsets.size, dtype=np.int64)
    return NetworkInstance(edges, offsets, edges, offsets.copy()).demand_offset


@pytest.mark.parametrize(
    "freeze, array",
    [
        (_frozen_cost_matrix, np.ones((2, 3))),
        (_frozen_pairs, np.array([[0, 1], [1, 0]], dtype=np.int64)),
        (_frozen_offsets, np.array([0.25, 0.5])),
    ],
    ids=["CostMatrix", "MatchResult", "NetworkInstance"],
)
def test_an_earlier_view_still_writes_to_an_array_frozen_in_place(freeze, array):
    # the stated limit of freezing in place, kept so that no construction
    # copies: a writable view taken before the handover stays writable
    earlier = array[:]
    frozen = freeze(array)
    assert frozen is array and not frozen.flags.writeable
    assert frozen.flat[0] != 7
    earlier.flat[0] = 7
    assert frozen.flat[0] == 7 and earlier.flags.writeable


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
    # one distance per row, so that the shape is the only fault
    with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
        MatchResult.from_pairs(pairs, np.zeros(len(pairs)))


@pytest.mark.parametrize(
    "pairs",
    [[(0.5, 1.0)], np.array([[0.7, 1.9]]), [(True, False)], [(0, 1.0)], np.ones((1, 2), dtype=bool)],
)
def test_from_pairs_rejects_indices_that_are_not_integers(pairs):
    # a float or bool index is not truncated or cast to one
    with pytest.raises(ValueError, match="pairs must hold integer indices"):
        MatchResult.from_pairs(pairs, [0.0])


def test_copies_of_instances_and_results_come_back_frozen():
    # pickle and deepcopy drop numpy's read-only flag: a copy must pass the
    # checks again and come back frozen
    inst = Instance1D([0.7, 0.1, 0.4], [0.9, 0.2, 0.5, 0.0], length=1.5)
    res = MatchResult.from_pairs([(0, 1), (1, 3), (2, 0)], [0.1, 0.2, 0.3])
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        inst_copy, res_copy = copy_of(inst), copy_of(res)
        for name in ("demand", "supply"):
            assert np.array_equal(getattr(inst_copy, name), getattr(inst, name))
            assert not getattr(inst_copy, name).flags.writeable
        assert inst_copy.length == inst.length
        assert np.array_equal(res_copy.pairs, res.pairs) and res_copy.pairs.dtype == np.int64
        assert not res_copy.pairs.flags.writeable
        assert res_copy.total_distance == res.total_distance
        assert res_copy.mean_distance == res.mean_distance
        empty = copy_of(MatchResult.from_pairs([], []))
        assert empty.pairs.shape == (0, 2) and not empty.pairs.flags.writeable
        assert empty.total_distance == empty.mean_distance == 0.0
    # a tampered reduce tuple is checked as a hand-built instance is
    cls, (demand, supply, length) = inst.__reduce__()
    with pytest.raises(ValueError, match="demand coordinates"):
        cls(demand, supply, length / 4)
    with pytest.raises(ValueError, match="at least as many supply"):
        cls(demand, supply[:2], length)


_SUM_LENGTHS = (1, 7, 8, 9, 127, 128, 129, 1000)  # around the pairwise-sum blocks


@pytest.mark.parametrize(
    "distances",
    [
        [0.1, 0.2, 0.3],
        [],
        *(np.random.default_rng(k).exponential(size=k) for k in _SUM_LENGTHS),
    ],
    ids=["list", "empty", *(f"1-D-{k}" for k in _SUM_LENGTHS)],
)
def test_from_pairs_total_is_the_np_sum_bit_for_bit(distances):
    k = len(distances)
    pairs = np.column_stack((np.arange(k), np.arange(k)))
    total = MatchResult.from_pairs(pairs, distances).total_distance
    assert total.hex() == float(np.sum(distances)).hex()


@pytest.mark.parametrize(
    "pairs, distances",
    [
        ([[0, 1]], [0.5, 0.7, 9.0]),
        ([[0, 1], [1, 2]], [0.5]),
        ([[0, 1]], np.array(0.7)),
        ([[0, 1]], [[0.7]]),
        ([[0, 1], [1, 2]], np.ones((2, 1))),
        ([], [0.5]),
    ],
    ids=["3-for-1", "1-for-2", "0-d", "2-D", "column", "1-for-0"],
)
def test_from_pairs_rejects_distances_not_one_per_pair(pairs, distances):
    # a total over other distances would make a mean of another matching
    with pytest.raises(ValueError, match="distances must be 1D, one per pair"):
        MatchResult.from_pairs(pairs, distances)


_INIT_FIELDS = {
    MatchResult: ["pairs", "total_distance"],
    SummaryRecord: ["kind", "params", "sim_mean", "sim_std", "estimates", "meta"],
    SupplyCurve: ["inst"],
    NetworkEstimateParts: ["alpha", "local", "d1", "d2", "d3"],
}


@pytest.mark.parametrize("cls", list(_INIT_FIELDS), ids=lambda cls: cls.__name__)
def test_record_types_take_only_what_they_cannot_derive(cls):
    assert [f.name for f in dataclasses.fields(cls) if f.init] == _INIT_FIELDS[cls]


def test_record_types_reject_a_derived_field():
    # each of these contradicts the record's own fields, so none can be handed in
    with pytest.raises(TypeError, match="mean_distance"):
        MatchResult(pairs=np.array([[0, 1]]), total_distance=1.0, mean_distance=7.0)
    record_fields = (ExperimentKind.SEGMENT, {"m": 1, "n": 2}, 0.2, 0.0, {"balanced": 0.3})
    with pytest.raises(TypeError, match="rel_errors"):
        SummaryRecord(*record_fields, rel_errors={"balanced": 9.0})
    derived = {"coords": [0.1, 0.4], "values": [1, 1], "prefix": [150, 0], "gaps": [1.5]}
    for name, events in derived.items():
        with pytest.raises(TypeError, match=name):
            SupplyCurve(Instance1D([0.4], [0.1]), **{name: np.array(events)})
    with pytest.raises(TypeError, match="total"):
        NetworkEstimateParts(0.5, 1.0, 1.0, 1.0, 1.0, total=-3.0)


def test_record_types_derive_the_rest_when_built():
    res = MatchResult(np.array([[0, 1], [1, 0]]), 1.0)
    assert res.mean_distance == 0.5 and not res.pairs.flags.writeable
    assert MatchResult(np.empty((0, 2), dtype=np.int64), 0.0).mean_distance == 0.0
    with pytest.raises(ValueError, match="pairs must hold integer indices"):
        MatchResult(pairs=[(0.5, 1.0)], total_distance=1.0)
    with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
        MatchResult(pairs=[0, 1], total_distance=1.0)
    curve = SupplyCurve(Instance1D([0.4], [0.1]))
    assert curve.coords.tolist() == [0.1, 0.4] and curve.values.tolist() == [1, -1]
    assert curve.prefix.tolist() == [1, 0] and curve.gaps.tolist() == [0.4 - 0.1]
    assert curve.total_area == 0.4 - 0.1
    for name in ("coords", "values", "prefix", "gaps"):
        assert not getattr(curve, name).flags.writeable
    rec = SummaryRecord(ExperimentKind.SEGMENT, {"m": 1, "n": 2}, 0.2, 0.0, {"balanced": 0.3})
    assert rec.rel_errors == {"balanced": (0.3 - 0.2) / 0.2} and rec.meta == {}
    # a mean that is not positive gives no relative error
    assert SummaryRecord(ExperimentKind.SEGMENT, {}, 0.0, 0.0, {"balanced": 0.3}).rel_errors == {}
    assert NetworkEstimateParts(0.5, 1.0, 1.0, 1.0, 1.0).total == 2.0
    parts = network_estimate(4, EdgeParams(5.0, 25.0, 1.0), 0.01)
    expected = (1.0 - parts.alpha) * parts.local + parts.alpha * (parts.d1 + parts.d2 + parts.d3)
    assert parts.total == expected  # bit for bit


def test_a_result_or_curve_built_directly_is_rebuilt_when_copied():
    assert "__reduce__" not in vars(MatchResult)
    res = MatchResult(np.array([[0, 1], [2, 0]]), 0.75)
    curve = SupplyCurve(Instance1D([0.4], [0.1, 0.9]))
    assert curve.__reduce__() == (SupplyCurve, (curve.inst,))  # rebuilt from its instance
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        for record in (res, curve):
            duplicate = copy_of(record)
            assert type(duplicate) is type(record)
            for f in dataclasses.fields(record):
                value, original = getattr(duplicate, f.name), getattr(record, f.name)
                assert type(value) is type(original)
                if isinstance(value, Instance1D):  # the curve's instance, rebuilt too
                    for side in ("demand", "supply"):
                        assert np.array_equal(getattr(value, side), getattr(original, side))
                        assert not getattr(value, side).flags.writeable
                    assert value.length == original.length
                    continue
                assert np.array_equal(value, original)
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable


def test_edge_params_validation():
    EdgeParams(mu=1.0, lam=2.0, length=3.0)
    with pytest.raises(ValueError):
        EdgeParams(mu=0.0, lam=1.0, length=1.0)
    with pytest.raises(ValueError):
        EdgeParams(mu=2.0, lam=1.0, length=1.0)
    with pytest.raises(ValueError):
        EdgeParams(mu=1.0, lam=2.0, length=0.0)
    # finite inputs whose counts overflow are rejected, not left to round(inf)
    with pytest.raises(ValueError, match=r"^mu\*length and lam\*length must be finite, got inf and inf$"):
        EdgeParams(mu=1e200, lam=1e200, length=1e200)


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
    "recursive_estimates": lambda length: recursive_estimates(3, [4, 5], length),
    "recursive_estimate": lambda length: recursive_estimate(3, 5, length),
    "EdgePoint": lambda length: EdgePoint(1.0, 2.0, length),
    "NetworkPoint": lambda length: NetworkPoint(4, 1.0, 2.0, length, 36),
}


@pytest.mark.parametrize("length", [-1.0, 0.0, math.nan, math.inf, True])
@pytest.mark.parametrize("name", LENGTH_TAKERS)
def test_lengths_not_finite_and_positive_are_rejected(name, length):
    with pytest.raises(ValueError, match=f"length must be finite and positive, got {length!r}$"):
        LENGTH_TAKERS[name](length)


_GRID = (SegmentPoint(1, 1),)

# (entry point, parameter) -> (the call with the parameter set to v, its rule):
# "positive", or a count that may be 0 (rule 0) or may not (rule 1). A count
# below its least fails, whether the count rule or a relation between counts
# rejects it. Lengths are in LENGTH_TAKERS above, and sample_instance's
# densities in test_network.py.
INPUT_TAKERS = {
    ("harel_area", "n"): (harel_area, 0),
    ("expected_zero_returns", "m_hat"): (expected_zero_returns, 0),
    ("stars_bars_distribution", "m"): (lambda v: stars_bars_distribution(v, 5), 0),
    ("stars_bars_distribution", "n"): (lambda v: stars_bars_distribution(0, v), 1),
    ("balanced_estimate", "n"): (balanced_estimate, 1),
    ("baseline_estimate", "m"): (lambda v: baseline_estimate(v, 3), 1),
    ("baseline_estimate", "n"): (lambda v: baseline_estimate(1, v), 1),
    ("closed_unbalanced_estimate", "m"): (lambda v: closed_unbalanced_estimate(v, 5), 1),
    ("closed_unbalanced_estimate", "n"): (lambda v: closed_unbalanced_estimate(1, v), 1),
    ("closed_unbalanced_estimates", "m"): (lambda v: closed_unbalanced_estimates(v, [5]), 1),
    ("closed_unbalanced_estimates", "n"): (lambda v: closed_unbalanced_estimates(1, [5, v]), 1),
    ("recursion_table", "m"): (lambda v: recursion_table(v, 5), 1),
    ("recursion_table", "n"): (lambda v: recursion_table(1, v), 1),
    ("recursive_estimates", "m"): (lambda v: recursive_estimates(v, [5]), 1),
    ("recursive_estimates", "n"): (lambda v: recursive_estimates(1, [5, v]), 1),
    ("recursive_estimate", "m"): (lambda v: recursive_estimate(v, 5), 1),
    ("recursive_estimate", "n"): (lambda v: recursive_estimate(1, v), 1),
    ("network_estimate", "degree"): (lambda v: network_estimate(v, EdgeParams(1, 2, 1), 0.1), 1),
    ("d2_probabilities", "degree"): (lambda v: d2_probabilities(v, 0.5), 1),
    ("regular_edges", "degree"): (lambda v: regular_edges(v, 36), 1),
    ("regular_edges", "edge_count"): (lambda v: regular_edges(4, v), 1),
    ("EdgeParams", "mu"): (lambda v: EdgeParams(v, 2.0, 1.0), "positive"),
    ("EdgeParams", "lam"): (lambda v: EdgeParams(1.0, v, 1.0), "positive"),
    ("SegmentPoint", "m"): (lambda v: SegmentPoint(v, 3), 1),
    ("SegmentPoint", "n"): (lambda v: SegmentPoint(1, v), 1),
    ("EdgePoint", "mu"): (lambda v: EdgePoint(v, 2.0, 1.0), "positive"),
    ("EdgePoint", "lam"): (lambda v: EdgePoint(1.0, v, 1.0), "positive"),
    ("NetworkPoint", "degree"): (lambda v: NetworkPoint(v, 1.0, 2.0, 1.0, 36), 1),
    ("NetworkPoint", "mu"): (lambda v: NetworkPoint(4, v, 2.0, 1.0, 36), "positive"),
    ("NetworkPoint", "lam"): (lambda v: NetworkPoint(4, 1.0, v, 1.0, 36), "positive"),
    ("NetworkPoint", "edge_count"): (lambda v: NetworkPoint(4, 1.0, 2.0, 1.0, v), 1),
    ("ExperimentConfig", "replications"): (
        lambda v: ExperimentConfig(ExperimentKind.SEGMENT, _GRID, replications=v),
        1,
    ),
    ("ExperimentConfig", "workers"): (
        lambda v: ExperimentConfig(ExperimentKind.SEGMENT, _GRID, workers=v),
        1,
    ),
    ("ExperimentConfig", "master_seed"): (
        lambda v: ExperimentConfig(ExperimentKind.SEGMENT, _GRID, master_seed=v),
        0,
    ),
}

_BAD_VALUES = {"True": True, "2.5": 2.5, "nan": math.nan, "inf": math.inf, "0": 0, "-1": -1}


def _bad_inputs():
    for (entry, param), (call, rule) in INPUT_TAKERS.items():
        for label, value in _BAD_VALUES.items():
            # 2.5 is a valid density, and 0 a count where the least is 0
            if (rule == "positive" and label == "2.5") or (rule == 0 and label == "0"):
                continue
            yield pytest.param(call, param, value, id=f"{entry}-{param}-{label}")


@pytest.mark.parametrize("call, param, value", _bad_inputs())
def test_bad_inputs_raise_a_value_error_naming_the_parameter(call, param, value):
    # the count or positive rule: "<param> must be ..., got <value>", also
    # after a grid point's "invalid grid point ...: " prefix; a relation
    # between counts: "requires n >= m, got n=<value> for m=<m>"
    got = re.escape(repr(value))
    named = rf"(^|: ){param} must be .*, got {got}$|^requires n >=? m, got {param}={got} for m="
    with pytest.raises(ValueError, match=named):
        call(value)


def test_numpy_scalars_are_accepted_and_stored_as_python_values():
    assert type(check_count("n", np.int64(3))) is int and check_count("n", np.int64(3)) == 3
    assert type(check_positive("mu", np.float64(0.5))) is float
    assert type(check_positive("mu", np.int32(2))) is float
    assert harel_area(np.int64(7)) == harel_area(7)
    value = recursive_estimate(np.int64(3), np.int64(5), np.float64(2.0))
    assert value == recursive_estimate(3, 5, 2.0)
    params = EdgeParams(np.float64(10.0), np.int64(30), np.float32(1.0))
    assert params == EdgeParams(10.0, 30.0, 1.0)
    assert [type(v) for v in (params.mu, params.lam, params.length)] == [float] * 3
    point = NetworkPoint(np.int64(4), np.float64(5.0), 10, 1, np.int64(36))
    assert point == NetworkPoint(4, 5.0, 10.0, 1.0, 36)
    fields = ("degree", "mu", "lam", "length", "edge_count")
    assert [type(getattr(point, f)) for f in fields] == [int, float, float, float, int]
    cfg = ExperimentConfig(ExperimentKind.SEGMENT, _GRID, np.int64(2), np.int64(3), np.int64(1))
    assert (cfg.replications, cfg.master_seed, cfg.workers) == (2, 3, 1)
    assert {type(v) for v in (cfg.replications, cfg.master_seed, cfg.workers)} == {int}


class _Count(enum.IntEnum):
    THREE = 3


class _Int(int):
    pass


class _Float(float):
    pass


_RULE_INPUTS = [
    True, np.True_, _Count.THREE, _Int(3), np.int8(3), np.uint64(3), 2**70, -1, 0,
    _Float(0.5), np.float16(0.5), np.float32(0.5), np.float64(0.5), Fraction(1, 2),
    math.nan, math.inf, -math.inf, -0.0, 5e-324, "3", None,
]


def _answer(rule, *args):
    """The value a rule returns and its type, or the error it raises."""
    try:
        value = rule(*args)
    except ValueError as exc:
        return ValueError, str(exc)
    return type(value), value


@pytest.mark.parametrize("value", _RULE_INPUTS, ids=repr)
def test_input_rules_give_the_isinstance_rules_answers(value):
    for least in (0, 1):
        want = _answer(check_count_isinstance, "n", value, least)
        assert _answer(check_count, "n", value, least) == want
    want = _answer(check_positive_isinstance, "mu", value)
    assert _answer(check_positive, "mu", value) == want


_OUT_OF_FLOAT_RANGE = {
    "Fraction(1, 10**400)": Fraction(1, 10**400),
    "longdouble-1e-4000": np.longdouble("1e-4000"),
    "longdouble-1e4000": np.longdouble("1e4000"),
    "10**400": 10**400,
}


@pytest.mark.parametrize("value", _OUT_OF_FLOAT_RANGE.values(), ids=_OUT_OF_FLOAT_RANGE)
def test_positive_rule_rejects_reals_outside_the_float_range(value):
    # the float of each is 0.0 or inf, or there is none
    got = re.escape(repr(value))
    with pytest.raises(ValueError, match=rf"^mu must be finite and positive, got {got}$"):
        check_positive("mu", value)
    with pytest.raises(ValueError, match=rf"^length must be finite and positive, got {got}$"):
        Instance1D([0.0], [0.0], length=value)
    for field in ("mu", "lam", "length"):
        values = {"mu": 1.0, "lam": 2.0, "length": 3.0, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be finite and positive, got {got}$"):
            EdgeParams(**values)


@pytest.mark.parametrize(
    "kind, point, params",
    [
        (
            ExperimentKind.SEGMENT,
            SegmentPoint(np.int64(2), np.int64(3)),
            {"m": 2, "n": 3},
        ),
        (
            ExperimentKind.NETWORK,
            NetworkPoint(np.int64(4), 5.0, 10.0, 1.0, np.int64(36)),
            {"degree": 4, "mu": 5.0, "lam": 10.0, "length": 1.0, "edges": 36},
        ),
    ],
)
def test_records_of_numpy_counts_are_json(kind, point, params):
    records = run_experiment(ExperimentConfig(kind, (point,), replications=2))
    (parsed,) = json.loads(records_to_json(records))
    assert parsed["params"] == params
    assert [type(v) for v in parsed["params"].values()] == [type(v) for v in params.values()]
