import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from _references import (
    expected_rank_area,
    feasible_removal_scan,
    match_costs_1d_rowwise,
    optimal_match_1d_rowwise,
    optimal_removal_recompute,
    optimal_removals_exact,
    removal_area_exact,
)

from rbmatch.assignment import solve_dense
from rbmatch.exact1d import (
    _GAP_BLOCK_CELLS,
    balanced_area,
    feasible_removal,
    match_costs_1d,
    optimal_match_1d,
    optimal_removal,
)
from rbmatch.types import Instance1D, SupplyCurve


def _random_instance(rng, m, n, length=1.0):
    return Instance1D(rng.uniform(0, length, m), rng.uniform(0, length, n), length)


def _original_prefix_at_removed(inst, removal):
    """Net supply value on the original curve at each removed supply point."""
    curve = SupplyCurve(inst)
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
    assert res.pairs.tolist() == [[0, 1]]
    assert res.total_distance == pytest.approx(0.1)


def test_optimal_match_tie_prefers_lower_supply_index():
    res = optimal_match_1d(Instance1D([0.5], [0.4, 0.6]))
    assert res.pairs.tolist() == [[0, 0]]


def test_optimal_match_empty_demand():
    res = optimal_match_1d(Instance1D([], [0.2, 0.6]))
    assert res.pairs.shape == (0, 2)
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
        assert res.pairs.tolist() == [[i, i] for i in range(n)]
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
    assert res.pairs.dtype == np.int64 and not res.pairs.flags.writeable
    assert np.array_equal(res.pairs, ref.pairs) and res.pairs.shape == (m, 2)
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


# (reps, m, width) at the edges of match_costs_1d's gap blocks
_BLOCK_EDGE_SHAPES = [
    # reps x width below, at and above one block: one step a block
    (64, 3, _GAP_BLOCK_CELLS // 64 - 1),
    (64, 3, _GAP_BLOCK_CELLS // 64),
    (64, 3, _GAP_BLOCK_CELLS // 64 + 1),
    # below, at and above half a block: two steps a block, two, then one;
    # m = 5 ends on a block of one step
    (32, 5, _GAP_BLOCK_CELLS // 64 - 1),
    (32, 4, _GAP_BLOCK_CELLS // 64),
    (32, 5, _GAP_BLOCK_CELLS // 64 + 1),
    # m not a multiple of the block's steps: 102, 102, then 46 at 8192 cells
    (8, 250, 10),
    # m smaller than one block
    (2, 30, 5),
    # one replication and the narrowest band: a block of half the cells' steps,
    # then one step
    (1, _GAP_BLOCK_CELLS // 2 + 1, 2),
]


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize(("reps", "m", "width"), _BLOCK_EDGE_SHAPES)
def test_match_costs_equal_rowwise_dp_bit_for_bit_at_block_edges(reps, m, width, tied):
    rng = np.random.default_rng(reps * m + width)
    demand = np.sort(_coords(rng, tied, (reps, m)), axis=1)
    supply = np.sort(_coords(rng, tied, (reps, m + width - 1)), axis=1)
    assert np.array_equal(match_costs_1d(demand, supply), match_costs_1d_rowwise(demand, supply))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["demand", "supply"])
def test_match_costs_reject_a_non_finite_coordinate(side, bad):
    # row 0 reaches Instance1D's check on a sweep, row 1 only this one; on the
    # integer image a NaN would order above +inf and drop out unseen
    rng = np.random.default_rng(8)
    rows = {
        "demand": np.sort(rng.uniform(0, 1, (3, 4)), axis=1),
        "supply": np.sort(rng.uniform(0, 1, (3, 6)), axis=1),
    }
    rows[side][1, -1] = bad
    with pytest.raises(ValueError, match=side):
        match_costs_1d(rows["demand"], rows["supply"])


_NON_NEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, array_shapes(max_dims=2, max_side=12), elements=_NON_NEGATIVE))
@example(values=np.array([np.inf, 1.0, 5e-324, 0.0, 2.2250738585072014e-308, 5e-324, np.inf]))
@example(values=np.array([[3.0, 0.0], [5e-324, np.inf], [1e308, 1e-310]]))
def test_minimum_accumulate_on_the_uint64_image_keeps_every_bit(values):
    # both band DPs take their suffix minima on the uint64 view of band
    # values, which are never -0.0 or NaN
    assert not np.signbit(values).any()
    for axis in range(values.ndim):
        floats = np.minimum.accumulate(values, axis=axis)
        bits = np.minimum.accumulate(values.view(np.uint64), axis=axis)
        assert np.array_equal(floats.view(np.uint64), bits)


@settings(max_examples=200, deadline=None)
@given(
    reps=st.integers(1, 4),
    shape=_BAND_SHAPES.filter(lambda s: s[0] >= 1),
    tied=st.booleans(),
    length=st.sampled_from([1.0, 0.7, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(reps=3, shape=(1, 42), tied=False, length=0.7, seed=54)
def test_match_costs_are_unchanged_by_mirroring(reps, shape, tied, length, seed):
    # x -> L - x reverses each row and keeps every distance up to rounding:
    # each L - x rounds by at most half an ulp of L <= eps * L / 2, so each
    # matched distance moves by at most eps * L and a total, and so its
    # minimum, by at most m * eps * L, however much its terms cancel; atol is
    # twice that, and rtol covers the rounding of the sums themselves
    m, n = shape
    rng = np.random.default_rng(seed)
    demand = np.sort(_coords(rng, tied, (reps, m)) * length, axis=1)
    supply = np.sort(_coords(rng, tied, (reps, n)) * length, axis=1)
    totals = match_costs_1d(demand, supply)
    mirrored = match_costs_1d((length - demand)[:, ::-1], (length - supply)[:, ::-1])
    atol = 2 * m * np.finfo(float).eps * length
    np.testing.assert_allclose(mirrored, totals, rtol=1e-12, atol=atol)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 127, 128, 129])  # around the pairwise-sum blocks
def test_balanced_match_costs_are_the_row_sums_bit_for_bit(m):
    rng = np.random.default_rng(m)
    demand = np.sort(rng.uniform(0, 1, (5, m)), axis=1)
    supply = np.sort(rng.uniform(0, 1, (5, m)), axis=1)
    assert np.array_equal(match_costs_1d(demand, supply), np.abs(demand - supply).sum(axis=1))


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
        cols = res.pairs[:, 1].tolist()
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


def test_rank_instances_removal_area_equals_matching_cost():
    # ranks 0..m+n-1 of a random interleaving: unit gaps, so both are integers
    rng = np.random.default_rng(16)
    for _ in range(200):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(m + 1, 18))
        ranks = rng.permutation(m + n).astype(np.float64)
        demand, supply = np.sort(ranks[:m]), np.sort(ranks[m:])
        area = optimal_removal(Instance1D(demand, supply, m + n - 1)).post_removal_area
        cost = match_costs_1d(demand[None], supply[None])[0]
        assert area == cost == int(cost)


@pytest.mark.parametrize(
    "m, n, expected",
    [(2, 3, Fraction(6, 5)), (3, 5, Fraction(9, 7)), (5, 10, Fraction(3917, 3003))],
)
def test_expected_rank_area_exact_values(m, n, expected):
    """Exact mean least unit-step area per demand point, over every
    interleaving. The recursion's unit-step area per demand point,
    ``recursive_estimates(m, [n])[n] * (m + n)``, lies +5.6% from it at
    (2, 3), +1.7% at (3, 5) and -1.7% at (5, 10): a record of the walk
    model's error at small sizes, not a tolerance."""
    assert expected_rank_area(m, n) == expected


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
        reduced = SupplyCurve(Instance1D(inst.demand, inst.supply[keep]))
        removed_coords = inst.supply[list(removal.removed_supply_indices)]
        for x in removed_coords:
            before = reduced.prefix[reduced.coords <= x]
            assert before.size == 0 or before[-1] == 0


def test_post_removal_area_is_the_reduced_curves_bit_for_bit():
    # each removal reads its area off the instance's own curve; the curve of
    # the instance without the removed points must give the same float, on
    # 20,000 small instances and then 500 of up to 9 demand and 17 supply
    rng = np.random.default_rng(16)
    for trial in range(20_500):
        small = trial < 20_000
        m = int(rng.integers(0, 7 if small else 10))
        n = int(rng.integers(m + 1, 12 if small else 18))
        tied = trial % 2 == 1
        inst = Instance1D(_coords(rng, tied, m), _coords(rng, tied, n))
        removals = (optimal_removal(inst), feasible_removal(inst), feasible_removal(inst, False))
        for removed in {r.removed_supply_indices for r in removals}:
            keep = np.ones(n, dtype=bool)
            keep[list(removed)] = False
            area = SupplyCurve(Instance1D(inst.demand, inst.supply[keep])).total_area
            for r in removals:
                if r.removed_supply_indices == removed:
                    assert r.post_removal_area.hex() == area.hex()


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
        reduced = SupplyCurve(Instance1D(inst.demand, inst.supply[keep]))
        first_removed = inst.supply[feas.removed_supply_indices[0]]
        assert (reduced.prefix[reduced.coords > first_removed] >= 0).all()


@settings(max_examples=300, deadline=None)
@given(
    shape=_BAND_SHAPES.filter(lambda s: s[1] > s[0]),
    tied=st.booleans(),
    do_swaps=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(0, 1), tied=False, do_swaps=True, seed=0)
@example(shape=(0, 7), tied=True, do_swaps=True, seed=1)
@example(shape=(5, 6), tied=True, do_swaps=False, seed=2)
@example(shape=(12, 13), tied=True, do_swaps=True, seed=3)
@example(shape=(20, 40), tied=True, do_swaps=True, seed=4)
@example(shape=(20, 40), tied=True, do_swaps=False, seed=5)
def test_feasible_removal_equals_the_scan(shape, tied, do_swaps, seed):
    m, n = shape
    rng = np.random.default_rng(seed)
    inst = Instance1D(_coords(rng, tied, m), _coords(rng, tied, n))
    res = feasible_removal(inst, do_swaps=do_swaps)
    ref = feasible_removal_scan(inst, do_swaps=do_swaps)
    assert res.removed_supply_indices == ref.removed_supply_indices
    assert res.post_removal_area == ref.post_removal_area


@settings(max_examples=300, deadline=None)
@given(
    shape=_BAND_SHAPES.filter(lambda s: s[1] > s[0]),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(0, 1), tied=False, seed=0)
@example(shape=(0, 7), tied=False, seed=1)
@example(shape=(5, 6), tied=True, seed=2)
@example(shape=(20, 40), tied=True, seed=3)
def test_optimal_removal_equals_the_removal_dp_up_to_ties(shape, tied, seed):
    # the removal read off the matching and the (event, removals-used) DP are
    # two routes to the least area; untied, both find the one optimal set and
    # its area through _removal_set, bit for bit; tied, each keeps its own
    # tie rule, so only their areas must agree
    m, n = shape
    rng = np.random.default_rng(seed)
    inst = Instance1D(_coords(rng, tied, m), _coords(rng, tied, n))
    res = optimal_removal(inst)
    ref = optimal_removal_recompute(inst)
    if tied:
        assert res.post_removal_area == pytest.approx(ref.post_removal_area, rel=1e-12, abs=0.0)
    else:
        assert res.removed_supply_indices == ref.removed_supply_indices
        assert res.post_removal_area == ref.post_removal_area


def _assert_among_exact_optima(demand_tenths, supply_tenths):
    least, optimal_sets = optimal_removals_exact(demand_tenths, supply_tenths)
    inst = Instance1D(np.asarray(demand_tenths) / 10, np.asarray(supply_tenths) / 10)
    res = optimal_removal(inst)
    assert res.removed_supply_indices in optimal_sets
    # with abs=0, an exact least area of 0 must read 0.0
    assert res.post_removal_area == pytest.approx(float(least), rel=1e-12, abs=0.0)
    return res, least, optimal_sets


def test_optimal_removal_is_an_exact_optimum_on_a_tied_instance():
    # 24 removals reach the least area 1/5; the float DP that optimal_removal
    # once was returned (2, 6, 7, 9, 10, 11, 13), not the least (0, 6, ...)
    res, least, optimal_sets = _assert_among_exact_optima(
        [1, 3, 4, 5, 5, 6, 9], [2, 2, 4, 4, 5, 5, 6, 6, 6, 7, 8, 9, 9, 10]
    )
    assert least == Fraction(1, 5) and len(optimal_sets) == 24
    assert optimal_sets[0] == (0, 6, 7, 9, 10, 11, 13)
    assert res.removed_supply_indices == (3, 7, 8, 9, 10, 12, 13)


def test_optimal_removal_is_an_exact_optimum_on_tied_draws():
    # 600 draws on the k/10 grid, where many removals tie in exact rationals;
    # the set returned must be one of them whatever tie rule picked it
    rng = np.random.default_rng(20)
    for _ in range(600):
        m = int(rng.integers(0, 6))
        n = int(rng.integers(m + 1, 11))
        _assert_among_exact_optima(rng.integers(0, 11, m).tolist(), rng.integers(0, 11, n).tolist())


def test_feasible_removal_is_valid_and_never_below_the_exact_least_area():
    # 300 draws on the k/10 grid, with and without swaps: n-m distinct sorted
    # supply indices, a float area within 1e-12 of that set's exact area, and
    # an exact area no removal undercuts
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(0, 6))
        n = int(rng.integers(m + 1, 11))
        demand_tenths = rng.integers(0, 11, m).tolist()
        supply_tenths = rng.integers(0, 11, n).tolist()
        least, _ = optimal_removals_exact(demand_tenths, supply_tenths)
        inst = Instance1D(np.asarray(demand_tenths) / 10, np.asarray(supply_tenths) / 10)
        for do_swaps in (False, True):
            res = feasible_removal(inst, do_swaps=do_swaps)
            removed = res.removed_supply_indices
            assert len(removed) == n - m and list(removed) == sorted(set(removed))
            assert 0 <= removed[0] and removed[-1] < n
            area = removal_area_exact(demand_tenths, supply_tenths, removed)
            assert res.post_removal_area == pytest.approx(float(area), rel=1e-12, abs=0.0)
            assert area >= least


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
