import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _references import match_costs_1d_rowwise, optimal_match_1d_rowwise

from rbmatch.assignment import solve_dense
from rbmatch.exact1d import (
    balanced_area,
    feasible_removal,
    match_costs_1d,
    optimal_match_1d,
    optimal_removal,
)
from rbmatch.types import Instance1D, build_supply_curve


def _random_instance(rng, m, n, length=1.0):
    return Instance1D(rng.uniform(0, length, m), rng.uniform(0, length, n), length)


def _original_prefix_at_removed(inst, removal):
    """Net supply value on the original curve at each removed supply point."""
    curve = build_supply_curve(inst)
    supply_events = np.flatnonzero(curve.values == 1)
    return [int(curve.prefix[supply_events[i]]) for i in removal.removed_supply_indices]


def test_balanced_area_examples():
    assert balanced_area(Instance1D([0.4], [0.1])) == pytest.approx(0.3)
    # merged curve {-1, 0, -1, 0} with gaps {0.3, 0.3, 0.1}
    assert balanced_area(Instance1D([0.2, 0.8], [0.5, 0.9])) == pytest.approx(0.4)


def test_balanced_area_rejects_unbalanced():
    with pytest.raises(ValueError):
        balanced_area(Instance1D([0.1], [0.2, 0.3]))


def test_optimal_match_nearest_feasible():
    res = optimal_match_1d(Instance1D([0.5], [0.2, 0.6]))
    assert res.pairs == ((0, 1),)
    assert res.total_distance == pytest.approx(0.1)


def test_optimal_match_tie_prefers_lower_supply_index():
    res = optimal_match_1d(Instance1D([0.5], [0.4, 0.6]))
    assert res.pairs == ((0, 0),)


def test_optimal_match_empty_demand():
    res = optimal_match_1d(Instance1D([], [0.2, 0.6]))
    assert res.pairs == ()
    assert res.total_distance == 0.0


def test_area_identity_on_balanced_instances():
    rng = np.random.default_rng(10)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        inst = _random_instance(rng, n, n)
        res = optimal_match_1d(inst)
        assert abs(res.total_distance - balanced_area(inst)) <= 1e-9


def test_balanced_match_is_identity_on_sorted_order():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        length = float(rng.uniform(0.5, 4.0))
        inst = _random_instance(rng, n, n, length)
        res = optimal_match_1d(inst)
        assert res.pairs == tuple((i, i) for i in range(n))
        assert res.total_distance == pytest.approx(balanced_area(inst), rel=1e-12, abs=0.0)
        assert res.mean_distance == res.total_distance / n


@settings(max_examples=80, deadline=None)
@given(
    reps=st.integers(1, 8),
    m=st.integers(1, 40),
    excess=st.integers(0, 40),
    length=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_match_costs_match_per_instance_dp(reps, m, excess, length, seed):
    rng = np.random.default_rng(seed)
    demand = np.sort(rng.uniform(0, length, (reps, m)), axis=1)
    supply = np.sort(rng.uniform(0, length, (reps, m + excess)), axis=1)
    totals = match_costs_1d(demand, supply)
    assert totals.shape == (reps,)
    for r in range(reps):
        expected = optimal_match_1d(Instance1D(demand[r], supply[r], length)).total_distance
        if excess == 0:
            assert totals[r] == expected  # the same pairwise sum, bit for bit
        else:
            # the DP adds right to left, the reference sums pairwise
            assert totals[r] == pytest.approx(expected, rel=1e-12, abs=0.0)


def _coords(rng, tied, shape):
    # the k/10 grid makes many equal distances, so the tie rules decide
    return rng.integers(0, 11, shape) / 10 if tied else rng.uniform(0, 1, shape)


_BAND_SHAPES = st.integers(0, 30).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, 60)))


@settings(max_examples=200, deadline=None)
@given(shape=_BAND_SHAPES, tied=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(shape=(0, 4), tied=False, seed=0)
@example(shape=(1, 1), tied=True, seed=1)
@example(shape=(1, 9), tied=True, seed=2)
@example(shape=(12, 12), tied=True, seed=3)
@example(shape=(12, 13), tied=True, seed=4)
@example(shape=(30, 60), tied=True, seed=5)
def test_optimal_match_equals_rowwise_dp_bit_for_bit(shape, tied, seed):
    m, n = shape
    rng = np.random.default_rng(seed)
    inst = Instance1D(_coords(rng, tied, m), _coords(rng, tied, n))
    res, ref = optimal_match_1d(inst), optimal_match_1d_rowwise(inst)
    assert res.pairs == ref.pairs
    assert res.total_distance == ref.total_distance


@settings(max_examples=200, deadline=None)
@given(
    reps=st.integers(1, 6),
    shape=_BAND_SHAPES.filter(lambda s: s[0] >= 1),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(reps=3, shape=(1, 1), tied=True, seed=1)
@example(reps=1, shape=(1, 8), tied=False, seed=2)
@example(reps=4, shape=(12, 12), tied=True, seed=3)
@example(reps=4, shape=(12, 13), tied=True, seed=4)
@example(reps=2, shape=(30, 60), tied=True, seed=5)
def test_match_costs_equal_rowwise_dp_bit_for_bit(reps, shape, tied, seed):
    m, n = shape
    rng = np.random.default_rng(seed)
    demand = np.sort(_coords(rng, tied, (reps, m)), axis=1)
    supply = np.sort(_coords(rng, tied, (reps, n)), axis=1)
    assert np.array_equal(match_costs_1d(demand, supply), match_costs_1d_rowwise(demand, supply))


def test_match_costs_shapes():
    with pytest.raises(ValueError):
        match_costs_1d(np.empty((3, 0)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        match_costs_1d(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        match_costs_1d(np.zeros((2, 3)), np.zeros((3, 3)))


def _brute_force_total(inst):
    """Exhaustive minimum over supply subsets paired in sorted order."""
    best = math.inf
    for subset in itertools.combinations(range(inst.n), inst.m):
        total = float(np.abs(inst.demand - inst.supply[list(subset)]).sum())
        best = min(best, total)
    return best


def test_optimal_match_against_exhaustive_subsets():
    rng = np.random.default_rng(11)
    for _ in range(120):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 11))
        inst = _random_instance(rng, m, n)
        res = optimal_match_1d(inst)
        assert res.total_distance == pytest.approx(_brute_force_total(inst), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 12),
    length=st.floats(0.5, 4.0),
)
def test_optimal_match_agrees_with_assignment_solver(data, m, length):
    # the sorted-order DP is a fast path; the general assignment solver on
    # the full |x - y| cost matrix is its slow reference
    n = data.draw(st.integers(m, 12), label="n")
    coords = st.floats(0.0, length, allow_nan=False, allow_infinity=False)
    x = np.array(data.draw(st.lists(coords, min_size=m, max_size=m), label="x"))
    y = np.array(data.draw(st.lists(coords, min_size=n, max_size=n), label="y"))
    fast = optimal_match_1d(Instance1D(x, y, length)).total_distance
    slow = solve_dense(np.abs(x[:, None] - y[None, :])).total_cost
    assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)


def test_optimal_match_non_crossing():
    rng = np.random.default_rng(12)
    for _ in range(60):
        m = int(rng.integers(1, 20))
        n = int(rng.integers(m, 35))
        res = optimal_match_1d(_random_instance(rng, m, n))
        cols = [j for _, j in res.pairs]
        assert cols == sorted(cols)
        assert len(set(cols)) == len(cols)


def test_optimal_removal_trivial_all_removed():
    removal = optimal_removal(Instance1D([], [0.5]))
    assert removal.removed_supply_indices == (0,)
    assert removal.post_removal_area == 0.0


def test_optimal_removal_rejects_balanced():
    with pytest.raises(ValueError):
        optimal_removal(Instance1D([0.1], [0.2]))
    with pytest.raises(ValueError):
        feasible_removal(Instance1D([0.1], [0.2]))


def test_removal_identity_and_level_condition():
    rng = np.random.default_rng(13)
    for _ in range(300):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(m + 1, 21))
        inst = _random_instance(rng, m, n)
        removal = optimal_removal(inst)
        match = optimal_match_1d(inst)
        assert abs(removal.post_removal_area - match.total_distance) <= 1e-9
        assert _original_prefix_at_removed(inst, removal) == list(range(1, n - m + 1))


def test_removal_level_condition_large_seeded_sample():
    # necessary optimality condition: the k-th removed point sits at net supply k
    rng = np.random.default_rng(14)
    for _ in range(10_000):
        m = int(rng.integers(0, 9))
        n = int(rng.integers(m + 1, 15))
        inst = _random_instance(rng, m, n)
        removal = optimal_removal(inst)
        assert _original_prefix_at_removed(inst, removal) == list(range(1, n - m + 1))


def test_balanced_segments_between_removed_points():
    # between consecutive removed points the post-removal prefix starts and
    # ends at zero
    rng = np.random.default_rng(15)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(m + 1, 20))
        inst = _random_instance(rng, m, n)
        removal = optimal_removal(inst)
        keep = np.ones(inst.n, dtype=bool)
        keep[list(removal.removed_supply_indices)] = False
        reduced = build_supply_curve(Instance1D(inst.demand, inst.supply[keep]))
        removed_coords = inst.supply[list(removal.removed_supply_indices)]
        for x in removed_coords:
            before = reduced.prefix[reduced.coords <= x]
            assert before.size == 0 or before[-1] == 0


def test_post_removal_area_matches_recomputed_curve():
    rng = np.random.default_rng(16)
    for _ in range(50):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(m + 1, 18))
        inst = _random_instance(rng, m, n)
        removal = optimal_removal(inst)
        keep = np.ones(inst.n, dtype=bool)
        keep[list(removal.removed_supply_indices)] = False
        curve = build_supply_curve(Instance1D(inst.demand, inst.supply[keep]))
        assert abs(removal.post_removal_area - curve.total_area) <= 1e-9


def test_feasible_removal_is_feasible_and_marked():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(0, 12))
        n = int(rng.integers(m + 1, 20))
        inst = _random_instance(rng, m, n)
        opt = optimal_removal(inst)
        feas = feasible_removal(inst, do_swaps=False)
        assert len(feas.removed_supply_indices) == n - m
        assert list(feas.removed_supply_indices) == sorted(set(feas.removed_supply_indices))
        assert feas.post_removal_area >= opt.post_removal_area - 1e-9
        assert _original_prefix_at_removed(inst, feas) == list(range(1, n - m + 1))


def test_feasible_removal_curve_nonnegative_right_of_selections():
    rng = np.random.default_rng(18)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(m + 1, 20))
        inst = _random_instance(rng, m, n)
        feas = feasible_removal(inst, do_swaps=False)
        keep = np.ones(inst.n, dtype=bool)
        keep[list(feas.removed_supply_indices)] = False
        reduced = build_supply_curve(Instance1D(inst.demand, inst.supply[keep]))
        first_removed = inst.supply[feas.removed_supply_indices[0]]
        assert (reduced.prefix[reduced.coords > first_removed] >= 0).all()


def test_swaps_single_surplus_is_noop():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m = int(rng.integers(1, 10))
        inst = _random_instance(rng, m, m + 1)
        a = feasible_removal(inst, do_swaps=False)
        b = feasible_removal(inst, do_swaps=True)
        assert a.removed_supply_indices == b.removed_supply_indices


def test_swaps_reduce_area_on_average():
    rng = np.random.default_rng(20)
    deltas = np.empty(1000)
    for i in range(1000):
        inst = _random_instance(rng, 20, 25)
        without = feasible_removal(inst, do_swaps=False).post_removal_area
        with_swaps = feasible_removal(inst, do_swaps=True).post_removal_area
        deltas[i] = without - with_swaps
    mean = deltas.mean()
    se = deltas.std(ddof=1) / math.sqrt(len(deltas))
    assert mean >= -2 * se  # swaps help in expectation
