import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from rbmatch.combinatorics import (
    ballot_segment_prob,
    expected_zero_returns,
    harel_area,
    stars_bars_distribution,
)
from rbmatch.estimators import (
    EstimatorMethod,
    balanced_estimate,
    baseline_estimate,
    closed_unbalanced_estimate,
    closed_unbalanced_estimates,
    dispatch_estimate,
    edge_estimate,
    recursion_table,
    recursive_estimate,
    recursive_estimates,
    step_length_correction,
)
from rbmatch.exact1d import optimal_match_1d
from rbmatch.types import EdgeParams, Instance1D


def _simulated_mean(m, n, reps, seed, length=1.0):
    rng = np.random.default_rng(seed)
    means = np.empty(reps)
    for r in range(reps):
        inst = Instance1D(rng.uniform(0, length, m), rng.uniform(0, length, n), length)
        means[r] = optimal_match_1d(inst).mean_distance
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(reps))


def test_balanced_small_and_large():
    assert balanced_estimate(1).value == pytest.approx(0.5)
    stirling_limit = 0.25 * math.sqrt(math.pi / 100)
    assert balanced_estimate(100).value == pytest.approx(stirling_limit, rel=3e-3)


def test_balanced_relative_error_at_n1():
    # the closed form overshoots the true mean 1/3 badly for a single pair
    err = (balanced_estimate(1).value - 1.0 / 3.0) / (1.0 / 3.0)
    assert 0.45 <= err <= 0.60


def test_balanced_strictly_decreasing():
    values = [balanced_estimate(n).value for n in range(1, 501)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_balanced_length_scaling_is_linear_at_fixed_counts():
    assert balanced_estimate(40, 4.0).value == pytest.approx(
        4.0 * balanced_estimate(40, 1.0).value, abs=1e-12
    )


def test_sqrt_length_law_at_fixed_density():
    # with counts n = lam * L, values at L in {1, 4, 9} approach ratios {1, 2, 3}
    lam = 50
    base = balanced_estimate(lam, 1.0).value
    for L, expected in ((4.0, 2.0), (9.0, 3.0)):
        ratio = balanced_estimate(int(lam * L), L).value / base
        assert ratio == pytest.approx(expected, rel=0.02)


def test_closed_unbalanced_hand_value():
    est = closed_unbalanced_estimate(1, 2, apply_correction=False)
    assert est.value == pytest.approx(1.0 / 3.0)
    assert est.method is EstimatorMethod.CLOSED_UNBALANCED
    assert not est.corrected


def test_correction_gap_identity():
    for m, n, length in ((1, 2, 1.0), (10, 17, 1.0), (30, 80, 2.5)):
        raw = closed_unbalanced_estimate(m, n, length, apply_correction=False).value
        corr = closed_unbalanced_estimate(m, n, length, apply_correction=True).value
        assert corr <= raw
        assert raw - corr == pytest.approx(step_length_correction(m, n, length), abs=1e-12)
        raw = recursive_estimate(m, n, length, apply_correction=False).value
        corr = recursive_estimate(m, n, length, apply_correction=True).value
        assert raw - corr == pytest.approx(step_length_correction(m, n, length), abs=1e-12)


def test_correction_vanishes_when_balanced():
    assert step_length_correction(7, 7) == 0.0
    assert step_length_correction(7, 7, 5.0) == 0.0


def test_closed_rejects_balanced():
    with pytest.raises(ValueError):
        closed_unbalanced_estimate(5, 5)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 200),
    excesses=st.lists(st.integers(1, 200), min_size=1, max_size=8),
)
def test_closed_estimates_equal_per_n_sums(m, excesses):
    # reference: the per-n sum, with its own walk-area and log-factorial tables
    ns = [m + x for x in excesses]
    values = closed_unbalanced_estimates(m, ns)
    assert set(values) == set(ns)
    areas = np.array([harel_area(i) for i in range(m + 1)])
    for n in ns:
        expected = (n - m + 1) / (m * (m + n)) * float(stars_bars_distribution(m, n) @ areas)
        assert values[n] == expected
        assert closed_unbalanced_estimate(m, n, apply_correction=False).value == expected
        corrected = closed_unbalanced_estimate(m, n).value
        assert closed_unbalanced_estimate(m, n, uncorrected=expected).value == corrected


def test_closed_estimates_reject_bad_counts():
    with pytest.raises(ValueError, match="nonempty"):
        closed_unbalanced_estimates(5, [])
    with pytest.raises(ValueError, match="n=5"):
        closed_unbalanced_estimates(5, [9, 5, 12])
    with pytest.raises(ValueError, match="m must be at least 1"):
        closed_unbalanced_estimates(0, [3])


def test_closed_matches_simulation_in_surplus_regime():
    sim, _ = _simulated_mean(50, 200, reps=100, seed=20240811)
    est = closed_unbalanced_estimate(50, 200).value
    assert abs(est - sim) / sim < 0.15


def test_closed_corrected_approaches_half_supply_spacing():
    # with m fixed and n large the corrected estimate approaches 1/(2n)
    for m in (1, 2):
        n = 100 * m
        est = closed_unbalanced_estimate(m, n).value
        assert est / (1.0 / (2.0 * n)) == pytest.approx(1.0, abs=0.05)


def test_recursive_hand_value():
    est = recursive_estimate(1, 2, apply_correction=False)
    assert est.value == pytest.approx(1.0 / 3.0)
    corrected = recursive_estimate(1, 2, apply_correction=True)
    assert corrected.value == pytest.approx(1.0 / 3.0 - 1.0 / 12.0)


def test_recursion_table_base_row():
    for m, n, length in ((4, 7, 1.0), (10, 13, 2.0)):
        table = recursion_table(m, n, length)
        gap = length / (m + n)
        for a in range(m + 1):
            assert table.values[n - m, a] == gap * harel_area(a)
        assert (table.values >= 0.0).all()
        assert table.expected_area(n - m, m) == pytest.approx(gap * harel_area(m))


def _log_binom(n, k):
    """log C(n, k) through scipy's log-gamma, independent of the code under test."""
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _ballot_matrix(m, e):
    """Row a, column m_hat: probability of m_hat demand points in the current
    segment given a remain, with e removals still to make (e >= 1)."""
    a = np.arange(m + 1)[:, None].astype(np.float64)
    mh = np.arange(m + 1)[None, :].astype(np.float64)
    valid = mh <= a
    mh_c = np.minimum(mh, a)  # clamp invalid cells so every log term is finite
    log_p = (
        _log_binom(a, mh_c)
        + _log_binom(a + e, mh_c)
        - _log_binom(2 * a + e, 2 * mh_c)
    )
    probs = np.exp(log_p) * e / (2 * a + e - 2 * mh_c)
    return np.where(valid, probs, 0.0)


def _loop_recursion_table(m, n, length=1.0):
    """Reference: the recursion with one ballot matrix and one dot product
    per (row, a) cell."""
    excess = n - m
    gap = length / (m + n)
    areas = np.array([harel_area(i) for i in range(m + 1)])
    zero_returns = np.array([expected_zero_returns(i) for i in range(m + 1)])
    swap_reduction = gap * (2.0 * np.arange(m + 1) - 2.0 * zero_returns)
    values = np.zeros((excess + 1, m + 1))
    values[excess] = gap * areas
    for k in range(excess - 1, -1, -1):
        probs = _ballot_matrix(m, excess - k)
        segment = gap * areas if k == 0 else gap * areas - swap_reduction
        nxt = values[k + 1]
        for a in range(m + 1):
            values[k, a] = probs[a, : a + 1] @ (segment[: a + 1] + nxt[a::-1])
    return values


def test_ballot_matrix_reference_matches_scalar_probability():
    m, excess, k = 6, 5, 2
    probs = _ballot_matrix(m, excess - k)
    for a in range(m + 1):
        for mh in range(m + 1):
            expected = ballot_segment_prob(mh, k, a, excess)
            assert probs[a, mh] == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 40),
    excess=st.integers(1, 40),
    length=st.floats(0.5, 4.0),
)
def test_recursion_table_matches_loop_reference(m, excess, length):
    table = recursion_table(m, m + excess, length)
    expected = _loop_recursion_table(m, m + excess, length)
    np.testing.assert_allclose(table.values, expected, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 40),
    excesses=st.lists(st.integers(1, 60), min_size=1, max_size=6),
    length=st.floats(0.5, 4.0),
)
def test_recursive_estimates_match_per_n_tables(m, excesses, length):
    ns = [m + x for x in excesses]
    values = recursive_estimates(m, ns, length)
    assert set(values) == set(ns)
    for n in ns:
        expected = recursion_table(m, n, length).values[0, m] / m
        assert values[n] == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 60),
    excesses=st.lists(st.integers(1, 80), min_size=1, max_size=8),
    length=st.floats(0.5, 4.0),
)
def test_recursive_estimates_do_not_depend_on_grouping(m, excesses, length):
    ns = [m + x for x in excesses]
    grouped = recursive_estimates(m, ns, length)
    half = recursive_estimates(m, ns[: (len(ns) + 1) // 2], length)
    for n in ns:
        alone = recursive_estimates(m, [n], length)[n]
        assert grouped[n] == alone
        assert half.get(n, alone) == alone
        assert recursive_estimate(m, n, length, apply_correction=False).value == alone


def test_recursive_estimates_reject_bad_counts():
    with pytest.raises(ValueError, match="nonempty"):
        recursive_estimates(5, [])
    with pytest.raises(ValueError, match="n=5"):
        recursive_estimates(5, [9, 5, 12])
    with pytest.raises(ValueError, match="n=3"):
        recursive_estimates(5, [3])
    with pytest.raises(ValueError, match="m must be at least 1"):
        recursive_estimates(0, [3])


def test_recursive_upper_bound_before_correction():
    # the removal-and-swap recursion upper-bounds the simulated optimum
    for m, n in ((5, 8), (12, 16), (20, 25)):
        sim, se = _simulated_mean(m, n, reps=1000, seed=100 + m)
        est = recursive_estimate(m, n, apply_correction=False).value
        assert est >= sim - 2 * se


def test_recursive_rejects_balanced():
    with pytest.raises(ValueError):
        recursive_estimate(3, 3)


def test_baseline_values():
    assert baseline_estimate(1, 1).value == pytest.approx(0.25)
    assert baseline_estimate(1, 99).value == pytest.approx(1.0 / 200.0, rel=0.01)


def _double_sum_baseline(m, n, length=1.0):
    """Reference: the prior-work double sum, term by term."""
    total = 0.0
    for i in range(1, m + 1):
        r = (i - 1) / n
        ks = np.arange(1, i + 1, dtype=np.float64)
        total += float(np.sum(ks * r ** (ks - 1) * (1.0 - r))) + i * r**i
    return length * total / (2.0 * m * (n + 1))


def _exact_baseline(m, n):
    total = Fraction(0)
    for i in range(1, m + 1):
        r = Fraction(i - 1, n)
        total += sum(k * r ** (k - 1) * (1 - r) for k in range(1, i + 1)) + i * r**i
    return total / (2 * m * (n + 1))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 300), surplus=st.integers(0, 299), length=st.floats(0.5, 4.0))
def test_baseline_closed_form_matches_double_sum(m, surplus, length):
    n = min(m + surplus, 300)
    assert baseline_estimate(m, n, length).value == pytest.approx(
        _double_sum_baseline(m, n, length), rel=1e-13, abs=0.0
    )


def test_baseline_against_exact_fractions():
    for m in range(1, 13):
        for n in range(m, 16):
            exact = _exact_baseline(m, n)
            assert baseline_estimate(m, n).value == pytest.approx(float(exact), rel=2e-15, abs=0.0)


def test_baseline_rejects_bad_counts():
    with pytest.raises(ValueError):
        baseline_estimate(0, 5)
    with pytest.raises(ValueError):
        baseline_estimate(5, 4)


def test_dispatch_balanced_route():
    est = dispatch_estimate(EdgeParams(mu=10.0, lam=10.0, length=4.0))
    assert est.method is EstimatorMethod.EDGE_SCALED
    assert est.value == pytest.approx(balanced_estimate(40, 4.0).value, abs=1e-12)
    assert not est.corrected


def test_dispatch_asymptotic_route():
    params = EdgeParams(mu=10.0, lam=30.0, length=1.0)
    est = dispatch_estimate(params)
    assert est.value == pytest.approx(1.0 / 60.0)
    assert not est.corrected
    # a known edge value does not apply above the cutoff
    assert dispatch_estimate(params, edge_value=0.5) == est
    # independent of length in this regime
    est9 = dispatch_estimate(EdgeParams(mu=10.0, lam=30.0, length=9.0))
    assert est9.value == est.value


def test_dispatch_recursive_route():
    params = EdgeParams(mu=10.0, lam=11.0, length=1.0)
    est = dispatch_estimate(params)
    expected = recursive_estimate(10, 11, 1.0, apply_correction=True).value
    assert est.value == pytest.approx(expected, abs=1e-12)
    # below the cutoff a known edge value is taken as it is
    edge = edge_estimate(params).value
    assert est.value == edge
    assert dispatch_estimate(params, edge_value=edge) == est
    assert est.corrected


def test_edge_estimate_routes():
    balanced = edge_estimate(EdgeParams(mu=10.0, lam=10.0, length=4.0))
    assert balanced == balanced_estimate(40, 4.0)
    unbalanced = edge_estimate(EdgeParams(mu=10.0, lam=30.0, length=1.0))
    assert unbalanced == recursive_estimate(10, 30, 1.0, apply_correction=True)
    # a value from a shared pass gives the same estimate; m = n ignores it
    shared = recursive_estimates(10, [11, 30, 45])[30]
    assert edge_estimate(EdgeParams(mu=10.0, lam=30.0, length=1.0), shared) == unbalanced
    assert edge_estimate(EdgeParams(mu=10.0, lam=10.0, length=4.0), 0.5) == balanced
    with pytest.raises(ValueError, match="integral"):
        edge_estimate(EdgeParams(mu=1.5, lam=2.5, length=1.1))


def test_dispatch_rejects_fractional_or_zero_counts():
    with pytest.raises(ValueError):
        dispatch_estimate(EdgeParams(mu=1.5, lam=2.5, length=1.1))
    with pytest.raises(ValueError):
        dispatch_estimate(EdgeParams(mu=0.2, lam=1.0, length=1.0))
    with pytest.raises(ValueError, match="integral"):
        dispatch_estimate(EdgeParams(mu=1.5, lam=5.5, length=1.1))  # asymptotic route


def test_estimates_are_nonnegative_and_bounded_by_length():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = int(rng.integers(1, 40))
        n = int(rng.integers(m + 1, 80))
        length = float(rng.uniform(0.5, 4.0))
        for est in (
            closed_unbalanced_estimate(m, n, length),
            recursive_estimate(m, n, length),
            baseline_estimate(m, n, length),
        ):
            assert 0.0 <= est.value <= length
    for n in (1, 7, 120):
        assert 0.0 <= balanced_estimate(n).value <= 1.0
