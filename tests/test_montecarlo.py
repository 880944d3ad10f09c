import concurrent.futures
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import re
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbmatch import assignment, estimators, montecarlo, network
from rbmatch.cli import _preset_config
from rbmatch.estimators import (
    closed_unbalanced_estimate,
    closed_unbalanced_estimates,
    dispatch_estimate,
    edge_estimate,
    recursive_estimate,
    recursive_estimates,
    step_length_correction,
)
from rbmatch.exact1d import match_costs_1d, optimal_match_1d
from rbmatch.network import (
    build_regular_network,
    exact_network_match,
    network_estimate,
    sample_instance,
)
from rbmatch.types import EdgeParams, Instance1D
from rbmatch.montecarlo import (
    EdgePoint,
    ExperimentConfig,
    ExperimentKind,
    NetworkPoint,
    SegmentPoint,
    SummaryRecord,
    records_to_csv,
    records_to_json,
    relative_error_table,
    run_experiment,
)


def test_single_pair_mean_matches_analytic_third():
    cfg = ExperimentConfig(
        kind=ExperimentKind.SEGMENT,
        grid=(SegmentPoint(m=1, n=1),),
        replications=10_000,
        master_seed=7,
    )
    rec = run_experiment(cfg)[0]
    tolerance = 3.0 * rec.sim_std / math.sqrt(cfg.replications)
    assert abs(rec.sim_mean - 1.0 / 3.0) <= tolerance


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ExperimentKind.SEGMENT, ())
    with pytest.raises(ValueError):
        ExperimentConfig(ExperimentKind.SEGMENT, (EdgePoint(1.0, 2.0, 1.0),))
    with pytest.raises(ValueError, match=r"replications must be an integer of at least 1, got 0"):
        ExperimentConfig(ExperimentKind.SEGMENT, (SegmentPoint(1, 1),), replications=0)
    # counts that are not integers are rejected when the config is built
    grid = (SegmentPoint(1, 1), SegmentPoint(2, 3))
    with pytest.raises(ValueError, match=r"replications must be an integer of at least 1, got 2.5"):
        ExperimentConfig(ExperimentKind.SEGMENT, grid, replications=2.5)
    with pytest.raises(ValueError, match=r"workers must be an integer of at least 1, got 1.5"):
        ExperimentConfig(ExperimentKind.SEGMENT, grid, workers=1.5)
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, grid, replications=np.int64(2), workers=np.int64(1)
    )
    assert [rec.meta["replications"] for rec in run_experiment(cfg)] == [2, 2]


def test_master_seed_must_be_a_nonnegative_integer():
    grid = (SegmentPoint(1, 1),)
    for seed in (-1, 1.5, 2.0, "3", None):
        message = rf"master_seed must be an integer of at least 0, got {re.escape(repr(seed))}"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(ExperimentKind.SEGMENT, grid, master_seed=seed)
    cfg = ExperimentConfig(ExperimentKind.SEGMENT, grid, master_seed=np.int64(5))
    assert type(cfg.master_seed) is int and cfg.master_seed == 5
    assert ExperimentConfig(ExperimentKind.SEGMENT, grid, master_seed=2**100).master_seed == 2**100


def test_config_stores_any_grid_iterable_as_a_tuple():
    points = [SegmentPoint(1, 1), SegmentPoint(2, 3)]
    for grid in (points, (p for p in points), iter(points), map(lambda p: p, points)):
        cfg = ExperimentConfig(ExperimentKind.SEGMENT, grid, replications=1)
        assert cfg.grid == tuple(points)
        assert len(run_experiment(cfg)) == 2
    # an empty iterator is an empty grid, however it is given
    for grid in (iter([]), (p for p in ()), []):
        with pytest.raises(ValueError, match="grid must be nonempty"):
            ExperimentConfig(ExperimentKind.SEGMENT, grid)


def test_config_rejects_a_kind_that_is_not_an_experiment_kind():
    grid = (SegmentPoint(1, 1),)
    for kind in ("segment", None, 0, ExperimentKind):
        message = "kind must be an ExperimentKind, got " + re.escape(repr(kind))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(kind, grid)


def test_counts_and_config_integers_reject_bool():
    # a bool is an Integral, but no count: SegmentPoint(True, 2) would reach
    # the sweep as m = 1 and fail there
    for m, n in ((True, 2), (True, True), (1, True), (2, False)):
        message = r"SegmentPoint\(.*: [mn] must be an integer of at least \d, got (True|False)$"
        with pytest.raises(ValueError, match=message):
            SegmentPoint(m, n)
    grid = (SegmentPoint(1, 1),)
    for name in ("replications", "workers"):
        for value in (True, False):
            message = rf"{name} must be an integer of at least 1, got {value}"
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(ExperimentKind.SEGMENT, grid, **{name: value})
    for seed in (True, False):
        with pytest.raises(ValueError, match=rf"master_seed must be an integer of at least 0, got {seed}"):
            ExperimentConfig(ExperimentKind.SEGMENT, grid, master_seed=seed)


_INDEX = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(
    master_seed=st.integers(0, 2**160 - 1),
    grid=st.lists(_INDEX, min_size=1, max_size=3),
    reps=st.lists(_INDEX, min_size=1, max_size=3),
)
@example(master_seed=0, grid=[0], reps=[0])
@example(master_seed=2**32 - 1, grid=[2**32 - 1], reps=[2**32 - 1])
@example(master_seed=2**64, grid=[0, 2**32 - 1], reps=[2**32 - 1, 0])
@example(master_seed=2**128, grid=[1], reps=[2])
@example(master_seed=2**160, grid=[3], reps=[0, 4])  # 6 words: 2 past the pool
@example(master_seed=2**256 + 1, grid=[0, 7], reps=[5])  # 9 words: 5 past the pool
def test_stream_states_match_seed_sequence(master_seed, grid, reps):
    states = montecarlo._stream_states(master_seed, grid, reps)
    assert states.shape == (len(grid), len(reps), 4) and states.dtype == np.uint64
    for i, g in enumerate(grid):
        for j, r in enumerate(reps):
            seq = np.random.SeedSequence(master_seed, spawn_key=(g, r))
            np.testing.assert_array_equal(states[i, j], seq.generate_state(4, np.uint64))
            ours, numpys = montecarlo._rep_stream(states[i, j]), np.random.default_rng(seq)
            np.testing.assert_array_equal(ours.uniform(0, 2.5, 7), numpys.uniform(0, 2.5, 7))
            np.testing.assert_array_equal(ours.poisson(6.0, 5), numpys.poisson(6.0, 5))
            assert ours.uniform() == numpys.uniform()


def test_stream_states_reject_multiword_indices():
    with pytest.raises(ValueError, match="grid index"):
        montecarlo._stream_states(0, [2**32], [0])
    with pytest.raises(ValueError, match="replication"):
        montecarlo._stream_states(0, [0], [0, 2**32])
    with pytest.raises(ValueError, match="replication"):
        montecarlo._stream_states(0, [0], [-1])
    # a negative master seed is rejected by numpy's own SeedSequence
    with pytest.raises(ValueError, match="non-negative"):
        montecarlo._stream_states(-1, [0], [0])


def test_stored_seed_words_serve_pcg64_only():
    words = montecarlo._stream_states(3, [0], [0])[0, 0]
    seq = montecarlo._stored_words_type()(words)
    assert seq.generate_state(4, np.uint64) is words
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match="4 uint64"):
            seq.generate_state(n_words, dtype)


def test_grid_points_validate_and_name_the_point():
    with pytest.raises(ValueError, match=r"SegmentPoint\(m=3, n=2\)"):
        SegmentPoint(3, 2)
    with pytest.raises(ValueError, match=r"SegmentPoint\(m=2, n=3.5\): n must be an integer .*, got 3.5"):
        SegmentPoint(2, 3.5)
    with pytest.raises(ValueError, match=r"SegmentPoint\(m=0, n=3\): m must be an integer .*, got 0"):
        SegmentPoint(0, 3)
    with pytest.raises(ValueError, match=r"EdgePoint\(mu=1.5, lam=2.5, length=1.1\).*integral"):
        EdgePoint(mu=1.5, lam=2.5, length=1.1)
    with pytest.raises(ValueError, match=r"EdgePoint\(.*lam must be at least mu"):
        EdgePoint(mu=3.0, lam=2.0, length=1.0)
    # demand above supply would leave the network redraw loop without an exit
    with pytest.raises(ValueError, match=r"NetworkPoint\(degree=4, mu=10.*lam must be at least mu"):
        NetworkPoint(degree=4, mu=10.0, lam=5.0, length=1.0, edge_count=36)
    with pytest.raises(ValueError, match=r"NetworkPoint\(.*mu must be finite and positive, got 0.0"):
        NetworkPoint(degree=4, mu=0.0, lam=5.0, length=1.0, edge_count=36)
    with pytest.raises(ValueError, match=r"NetworkPoint\(degree=5.*degree must be one of"):
        NetworkPoint(degree=5, mu=1.0, lam=2.0, length=1.0, edge_count=36)
    with pytest.raises(ValueError, match=r"NetworkPoint\(.*integral"):
        NetworkPoint(degree=4, mu=1.5, lam=2.0, length=1.0, edge_count=36)
    # layouts no degree-d topology has are rejected before any sweep runs
    with pytest.raises(ValueError, match=r"NetworkPoint\(degree=4, .*edge_count=7.*divisible"):
        NetworkPoint(degree=4, mu=5.0, lam=5.0, length=1.0, edge_count=7)
    with pytest.raises(ValueError, match=r"NetworkPoint\(degree=4, .*edge_count=10.*torus"):
        NetworkPoint(degree=4, mu=5.0, lam=5.0, length=1.0, edge_count=10)
    with pytest.raises(ValueError, match=r"NetworkPoint\(degree=3, .*edge_count=3.*even node count"):
        NetworkPoint(degree=3, mu=5.0, lam=5.0, length=1.0, edge_count=3)
    with pytest.raises(ValueError, match=r"NetworkPoint\(.*lam=inf.*lam must be finite"):
        NetworkPoint(degree=4, mu=5.0, lam=float("inf"), length=1.0, edge_count=36)
    # a layout needs whole numbers; a float passes the membership and
    # divisibility tests, so it is rejected by type
    with pytest.raises(ValueError, match=r"NetworkPoint\(degree=4.0, .*degree must be an integer of at least 3, got 4.0"):
        NetworkPoint(degree=4.0, mu=5.0, lam=5.0, length=1.0, edge_count=36)
    with pytest.raises(ValueError, match=r"NetworkPoint\(.*edge_count=36.0\).*edge_count must be an integer .*, got 36.0"):
        NetworkPoint(degree=4, mu=5.0, lam=5.0, length=1.0, edge_count=36.0)


@pytest.mark.parametrize(
    "kind, point",
    [
        (ExperimentKind.SEGMENT, SegmentPoint(2, 3)),
        (ExperimentKind.EDGE, EdgePoint(mu=2.0, lam=3.0, length=1.0)),
        (ExperimentKind.NETWORK, NetworkPoint(degree=4, mu=1.0, lam=2.0, length=1.0, edge_count=36)),
    ],
)
def test_every_point_field_is_a_record_param(kind, point):
    # an input that can change a record's numbers must be named in the record
    (rec,) = run_experiment(ExperimentConfig(kind, (point,), replications=1))
    column = {"edge_count": "edges"}
    for f in dataclasses.fields(point):
        if f.init:  # ``params`` is derived from the others
            assert rec.params[column.get(f.name, f.name)] == getattr(point, f.name)


def test_recursive_columns_share_one_table():
    # m = 10 appears at three n, so those points share one recursion pass
    grid = (
        SegmentPoint(3, 7),
        SegmentPoint(10, 13),
        SegmentPoint(50, 121),
        SegmentPoint(10, 11),
        SegmentPoint(10, 40),
    )
    cfg = ExperimentConfig(ExperimentKind.SEGMENT, grid, replications=2, master_seed=1)
    for point, rec in zip(grid, run_experiment(cfg)):
        m, n = point.m, point.n
        est = rec.estimates
        assert est["recursive"] == est["recursive_uncorrected"] - step_length_correction(m, n)
        assert est["recursive"] == recursive_estimate(m, n)
        assert est["recursive_uncorrected"] == recursive_estimates(m, [n])[n]


def test_closed_columns_share_one_sum():
    grid = (SegmentPoint(1, 2), SegmentPoint(3, 7), SegmentPoint(50, 121), SegmentPoint(200, 390))
    cfg = ExperimentConfig(ExperimentKind.SEGMENT, grid, replications=2, master_seed=1)
    for point, rec in zip(grid, run_experiment(cfg)):
        m, n = point.m, point.n
        est = rec.estimates
        assert est["closed"] == closed_unbalanced_estimate(m, n)
        assert est["closed_uncorrected"] == closed_unbalanced_estimates(m, [n])[n]


def test_deterministic_reruns_and_worker_invariance():
    grid = (SegmentPoint(2, 4), SegmentPoint(3, 3), SegmentPoint(5, 9))
    kwargs = dict(kind=ExperimentKind.SEGMENT, grid=grid, replications=40, master_seed=99)
    first = records_to_csv(run_experiment(ExperimentConfig(**kwargs)))
    second = records_to_csv(run_experiment(ExperimentConfig(**kwargs)))
    parallel = records_to_csv(run_experiment(ExperimentConfig(**kwargs, workers=2)))
    assert first == second
    assert first == parallel


def test_edge_grid_worker_invariance():
    grid = (
        EdgePoint(mu=10.0, lam=10.0, length=1.0),
        EdgePoint(mu=10.0, lam=15.0, length=3.0),
        EdgePoint(mu=5.0, lam=20.0, length=1.0),
    )
    kwargs = dict(kind=ExperimentKind.EDGE, grid=grid, replications=20, master_seed=5)
    serial = records_to_csv(run_experiment(ExperimentConfig(**kwargs)))
    parallel = records_to_csv(run_experiment(ExperimentConfig(**kwargs, workers=2)))
    assert serial == parallel


def _per_replication_means(m, n, length, reps, master_seed, grid_index):
    """Reference: one Instance1D and one optimal_match_1d per replication,
    demand then supply drawn from the replication's own stream."""
    means = []
    for rep in range(reps):
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(grid_index, rep))
        )
        inst = Instance1D(rng.uniform(0, length, m), rng.uniform(0, length, n), length)
        means.append(optimal_match_1d(inst).mean_distance)
    return np.array(means)


def test_batched_means_match_per_replication_reference():
    reps, seed = 12, 8
    segment_grid = (SegmentPoint(6, 6), SegmentPoint(30, 30), SegmentPoint(4, 9), SegmentPoint(25, 40))
    records = run_experiment(ExperimentConfig(ExperimentKind.SEGMENT, segment_grid, reps, seed))
    for gi, (point, rec) in enumerate(zip(segment_grid, records)):
        means = _per_replication_means(point.m, point.n, 1.0, reps, seed, gi)
        if point.m == point.n:
            assert rec.sim_mean == float(means.mean())
            assert rec.sim_std == float(means.std(ddof=1))
        else:
            assert rec.sim_mean == pytest.approx(float(means.mean()), rel=1e-12, abs=0.0)
            assert rec.sim_std == pytest.approx(float(means.std(ddof=1)), rel=1e-9, abs=0.0)
    edge_grid = (EdgePoint(mu=4.0, lam=4.0, length=2.5), EdgePoint(mu=3.0, lam=7.0, length=3.0))
    records = run_experiment(ExperimentConfig(ExperimentKind.EDGE, edge_grid, reps, seed))
    for gi, (point, rec) in enumerate(zip(edge_grid, records)):
        params = EdgeParams(point.mu, point.lam, point.length)
        means = _per_replication_means(params.m, params.n, point.length, reps, seed, gi)
        assert rec.sim_mean == pytest.approx(float(means.mean()), rel=1e-12, abs=0.0)


def _uniform_draw_means(m, n, length, states):
    """Reference: each replication draws ``uniform(0, length, m)`` demand,
    then ``uniform(0, length, n)`` supply, from its own stream."""
    demand, supply = np.empty((len(states), m)), np.empty((len(states), n))
    for rep, words in enumerate(states):
        rng = montecarlo._rep_stream(words)
        demand[rep] = rng.uniform(0, length, m)
        supply[rep] = rng.uniform(0, length, n)
    demand.sort(axis=1)
    supply.sort(axis=1)
    return match_costs_1d(demand, supply) / m


def test_grouped_band_points_keep_every_record_bit_for_bit():
    # two grids whose groups each budget splits once: 50 reps of m = 40 fill
    # the (m + 1) x columns state after three points, and 50 reps of m = 6
    # at n up to 200 fill the N x columns padded supply after three
    reps, seed = 50, 11
    segment_grid = tuple(
        SegmentPoint(m, n) for m, n in [(40, 45), (7, 12), (40, 60), (7, 7), (40, 41), (7, 30), (40, 90)]
    )
    edge_grid = (
        EdgePoint(mu=6.0, lam=120.0, length=1.0),
        EdgePoint(mu=3.0, lam=100.0, length=2.0),
        EdgePoint(mu=2.0, lam=50.0, length=3.0),
        EdgePoint(mu=1.5, lam=22.5, length=4.0),
    )
    assert (40 + 1) * 4 * reps > montecarlo._GROUP_STATE_CELLS >= (40 + 1) * 3 * reps
    assert 200 * 4 * reps > montecarlo._GROUP_SUPPLY_CELLS >= 200 * 3 * reps
    assert (6 + 1) * 4 * reps <= montecarlo._GROUP_STATE_CELLS
    for kind, grid, tasks in (
        (ExperimentKind.SEGMENT, segment_grid, [[0, 2, 4], [1, 5], [3], [6]]),
        (ExperimentKind.EDGE, edge_grid, [[0, 1, 2], [3]]),
    ):
        assert montecarlo._tasks(kind, grid, reps) == tasks
        records = run_experiment(ExperimentConfig(kind, grid, reps, seed))
        pooled = run_experiment(ExperimentConfig(kind, grid, reps, seed, workers=2))
        assert records_to_csv(pooled) == records_to_csv(records)
        states = montecarlo._stream_states(seed, np.arange(len(grid)), np.arange(reps))
        for point, rec, point_states in zip(grid, records, states):
            m, n, length = montecarlo._shape(kind, point)
            means = _uniform_draw_means(m, n, length, point_states)
            assert rec.sim_mean == float(means.mean())
            assert rec.sim_std == float(means.std(ddof=1))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 12),
    extra=st.integers(0, 8),
    wider=st.integers(1, 8),
    lengths=st.lists(st.sampled_from([1.0, 0.5, 0.7, 2.5, 3.0]), min_size=2, max_size=2),
    edge=st.booleans(),
    reps=st.integers(1, 20),
    master_seed=st.integers(0, 2**64),
    grid_index=st.integers(0, 50),
)
def test_segment_means_equal_per_side_uniform_draws(
    m, extra, wider, lengths, edge, reps, master_seed, grid_index
):
    # one random block per replication, scaled once, has the bits of two
    # uniform calls; so has a band point's block right-aligned behind +inf,
    # next to a wider point of the same m at its own length
    shapes = [(m, m + extra), (m, m + extra + wider)]
    if edge:
        points = [EdgePoint(mu=m / ln, lam=n / ln, length=ln) for (m, n), ln in zip(shapes, lengths)]
        kind = ExperimentKind.EDGE
    else:
        points, kind, lengths = [SegmentPoint(*shape) for shape in shapes], ExperimentKind.SEGMENT, [1.0, 1.0]
    states = montecarlo._stream_states(master_seed, [grid_index, grid_index + 1], np.arange(reps))
    got = montecarlo._segment_means(kind, points[0], states[0])
    assert np.array_equal(got, _uniform_draw_means(m, m + extra, lengths[0], states[0]))
    if extra:
        got = montecarlo._group_means(kind, points[::-1], states[::-1])
        for p, ((_, n), length) in enumerate(zip(shapes[::-1], lengths[::-1])):
            assert np.array_equal(got[p], _uniform_draw_means(m, n, length, states[::-1][p]))


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 300),
    scale=st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8]),
    shapes=st.lists(st.sampled_from(["spread", "constant", "tied"]), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=1, scale=1.0, shapes=["spread", "constant"], seed=0)
@example(size=2, scale=1e-8, shapes=["constant"], seed=1)
@example(size=300, scale=1e8, shapes=["tied", "spread", "constant"], seed=2)
def test_moments_equal_numpy_mean_and_std(size, scale, shapes, seed):
    # one (G, R) block of G rows against each row's own numpy calls
    rng = np.random.default_rng(seed)
    rows = []
    for shape in shapes:
        x = rng.random(size) * scale
        if shape == "constant":
            x[:] = x[0]
        elif shape == "tied":
            x = rng.choice(x[:3], size)
        rows.append(x)
    block = np.stack(rows)
    assert block.flags.c_contiguous
    expected = [(float(x.mean()), float(x.std(ddof=1)) if size > 1 else 0.0) for x in rows]
    means, stds = montecarlo._moments(block)
    assert list(zip(means, stds)) == expected
    assert all(type(v) is float for v in means + stds)


def test_one_replication_records_agree_across_workers_with_zero_std():
    # numpy's std of one value warns, which the test config turns into an error
    for kind, grid in (
        (ExperimentKind.SEGMENT, (SegmentPoint(2, 3), SegmentPoint(3, 3), SegmentPoint(1, 4))),
        (ExperimentKind.EDGE, (EdgePoint(2.0, 3.0, 1.0), EdgePoint(2.0, 2.0, 2.0))),
        (
            ExperimentKind.NETWORK,
            (NetworkPoint(3, 5.0, 5.0, 1.0, 6), NetworkPoint(4, 2.0, 4.0, 1.0, 18)),
        ),
    ):
        serial = run_experiment(ExperimentConfig(kind, grid, replications=1, master_seed=6))
        pooled = run_experiment(ExperimentConfig(kind, grid, replications=1, master_seed=6, workers=2))
        assert pooled == serial
        assert all(rec.sim_std == 0.0 and rec.meta["replications"] == 1 for rec in serial)


def test_network_record_meta_keeps_its_key_order():
    cfg = ExperimentConfig(ExperimentKind.NETWORK, (NetworkPoint(3, 5.0, 5.0, 1.0, 6),), 2)
    (record,) = json.loads(records_to_json(run_experiment(cfg)))
    assert list(record["meta"]) == ["replications", "alpha", "resampled"]


def test_pool_has_at_most_one_worker_per_grid_point(monkeypatch):
    started = []

    class InlinePool:
        """Records its worker count and chunk size and maps in this process."""

        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            started.append((self.workers, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    small = (SegmentPoint(2, 3), SegmentPoint(3, 3), SegmentPoint(1, 4))
    balanced = tuple(SegmentPoint(n, n) for n in range(1, 21))
    # (1, 1) alone, then one group of the 19 band points that share m = 1
    shared = tuple(SegmentPoint(1, n) for n in range(1, 21))
    # chunks of ceil(tasks / (4 * workers)): 20 tasks go 3 at a time to 2 workers
    cases = {
        small: ((64, 3, 1), (2, 2, 1)),
        balanced: ((2, 2, 3), (3, 3, 2), (5, 5, 1)),
        shared: ((2, 2, 1), (5, 2, 1)),
    }
    for grid, expected in cases.items():
        kwargs = dict(kind=ExperimentKind.SEGMENT, grid=grid, replications=3, master_seed=4)
        serial = records_to_csv(run_experiment(ExperimentConfig(**kwargs)))
        for workers, pool_workers, chunksize in expected:
            pooled = records_to_csv(run_experiment(ExperimentConfig(**kwargs, workers=workers)))
            assert pooled == serial
            assert started.pop() == (pool_workers, chunksize)


def test_replication_zero_check_names_the_point(monkeypatch):
    # band points that share m go through one _band_costs call, and n = m
    # points through match_costs_1d's sorted-pair sum: skew both
    for name in ("_band_costs", "match_costs_1d"):
        kernel = getattr(montecarlo, name)
        monkeypatch.setattr(montecarlo, name, lambda d, s, kernel=kernel: kernel(d, s) * 1.01)
    grid = (SegmentPoint(3, 5), SegmentPoint(3, 7))
    assert montecarlo._tasks(ExperimentKind.SEGMENT, grid, 4) == [[0, 1]]
    cfg = ExperimentConfig(ExperimentKind.SEGMENT, grid, replications=4)
    with pytest.raises(RuntimeError, match=r"SegmentPoint\(m=3, n=5\).*optimal_match_1d"):
        run_experiment(cfg)
    cfg = ExperimentConfig(
        ExperimentKind.EDGE, (EdgePoint(mu=2.0, lam=2.0, length=2.0),), replications=4
    )
    with pytest.raises(RuntimeError, match=r"EdgePoint\(mu=2.0, lam=2.0, length=2.0\)"):
        run_experiment(cfg)


def test_network_replication_zero_check_names_the_point(monkeypatch):
    # a valid but non-optimal assignment: the kernel's most expensive one
    lsap = assignment._kernel()
    worst = types.SimpleNamespace(
        linear_sum_assignment=lambda costs: lsap.linear_sum_assignment(costs, maximize=True)
    )
    monkeypatch.setattr(assignment, "_kernel", lambda: worst)
    point = NetworkPoint(degree=4, mu=5.0, lam=10.0, length=1.0, edge_count=36)
    cfg = ExperimentConfig(ExperimentKind.NETWORK, (point,), replications=2)
    with pytest.raises(RuntimeError, match=re.escape(repr(point)) + ".*solve_dense"):
        run_experiment(cfg)


def test_network_replication_zero_check_catches_a_near_miss(monkeypatch):
    # the kernel's optimum with two rows' columns swapped: solve_dense must
    # refuse to certify it, which stops the sweep
    lsap = assignment._kernel()

    def swapped(costs):
        rows, cols = lsap.linear_sum_assignment(costs)
        cols = cols.copy()
        cols[[0, 1]] = cols[[1, 0]]
        return rows, cols

    near_miss = types.SimpleNamespace(linear_sum_assignment=swapped)
    monkeypatch.setattr(assignment, "_kernel", lambda: near_miss)
    point = NetworkPoint(degree=4, mu=5.0, lam=10.0, length=1.0, edge_count=36)
    cfg = ExperimentConfig(ExperimentKind.NETWORK, (point,), replications=2)
    with pytest.raises(RuntimeError, match=re.escape(repr(point)) + ".*solve_dense"):
        run_experiment(cfg)


def _certified_starts(monkeypatch, configs) -> int:
    """Replication-0 starts that the sweeps of ``configs`` certify: a start
    that fails the certificate stops its sweep with a RuntimeError."""
    certify = assignment._certify
    results = []

    def spy(costs, start):
        results.append(certify(costs, start))
        return results[-1]

    monkeypatch.setattr(assignment, "_certify", spy)
    for cfg in configs:
        run_experiment(cfg)
    assert not any(result is None for result in results)
    return len(results)


def test_fig6_replication_zero_starts_are_all_certified(monkeypatch):
    # network distances tie often, so rounding makes cycles of length 0
    # slightly negative: the tolerance must still certify every kernel
    # start, at every replication-0 start of master seeds 0-15
    configs = [_preset_config("fig6", 1, seed, 1) for seed in range(16)]
    assert _certified_starts(monkeypatch, configs) == 16 * 15  # one per point and seed


def test_dense_tie_replication_zero_starts_are_all_certified(monkeypatch):
    # at 144 edges and lam = mu, demand nearly fills supply: ties are densest
    grid = tuple(NetworkPoint(degree, 5.0, 5.0, 1.0, 144) for degree in (3, 4, 6))
    configs = [
        ExperimentConfig(ExperimentKind.NETWORK, grid, replications=1, master_seed=seed)
        for seed in range(16)
    ]
    assert _certified_starts(monkeypatch, configs) == 16 * 3


# two degrees and two lengths, so layouts differ in each part of their key;
# two supply densities, so each layout serves two points
_LAYOUT_GRID = tuple(
    NetworkPoint(degree, 1.0, lam, length, 18)
    for degree in (3, 4)
    for lam in (2.0, 3.0)
    for length in (1.0, 2.0)
)


def test_network_sweep_builds_each_layout_once_and_each_matrix_once(monkeypatch):
    parent, builds, matrices = os.getpid(), [], []
    build, cost_matrix = network.build_regular_network, network._cost_matrix

    def counting_build(*key):
        assert os.getpid() == parent, "a worker built a layout"
        builds.append(key)
        return build(*key)

    def counting_matrix(inst):
        matrices.append(inst.total_demand)
        return cost_matrix(inst)

    monkeypatch.setattr(montecarlo, "build_regular_network", counting_build)
    for module in (network, montecarlo):
        monkeypatch.setattr(module, "_cost_matrix", counting_matrix)
    cfg = ExperimentConfig(ExperimentKind.NETWORK, _LAYOUT_GRID, replications=2, master_seed=5)
    run_experiment(cfg)
    assert builds == list(dict.fromkeys((p.degree, 18, p.length) for p in _LAYOUT_GRID))
    assert len(matrices) == len(_LAYOUT_GRID) * 2  # one per accepted draw
    builds.clear()
    run_experiment(dataclasses.replace(cfg, workers=2))
    assert len(builds) == 4


def test_network_records_equal_each_point_run_on_its_own_network():
    reps, seed = 2, 5
    cfg = ExperimentConfig(ExperimentKind.NETWORK, _LAYOUT_GRID, reps, seed)
    serial = run_experiment(cfg)
    assert run_experiment(dataclasses.replace(cfg, workers=2)) == serial
    for gi, (point, rec) in enumerate(zip(_LAYOUT_GRID, serial)):
        net = build_regular_network(point.degree, point.edge_count, point.length)
        means = []
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(gi, rep)))
            inst = sample_instance(net, point.mu, point.lam, rng)
            while not 0 < inst.total_demand <= inst.total_supply:
                inst = sample_instance(net, point.mu, point.lam, rng)
            means.append(exact_network_match(inst).mean_distance)
        assert rec.sim_mean == float(np.mean(means))
        assert rec.sim_std == float(np.std(means, ddof=1))


def test_one_recursion_table_per_edge_point(monkeypatch):
    calls = []
    table = estimators.recursion_table

    def counting_table(m, n):
        calls.append((m, n))
        return table(m, n)

    monkeypatch.setattr(estimators, "recursion_table", counting_table)
    # ratios 1, 1.1, 1.5 and 3: the three unbalanced points share m = 10 and
    # length 1, so one unit-gap table, at the largest n, serves them all
    grid = tuple(EdgePoint(mu=10.0, lam=lam, length=1.0) for lam in (10.0, 11.0, 15.0, 30.0))
    records = run_experiment(ExperimentConfig(ExperimentKind.EDGE, grid, replications=1))
    assert calls == [(10, 30)]
    for point, rec in zip(grid, records):
        params = EdgeParams(point.mu, point.lam, point.length)
        assert rec.estimates["dispatch"] == dispatch_estimate(params, edge_estimate(params))
        assert rec.estimates["edge"] == edge_estimate(params)
    calls.clear()
    net_grid = (NetworkPoint(degree=4, mu=1.0, lam=2.0, length=1.0, edge_count=36),)
    run_experiment(ExperimentConfig(ExperimentKind.NETWORK, net_grid, replications=1))
    assert calls == [(1, 2)]
    calls.clear()
    # the fig6 grid (degrees 3/4/6, lam 5..25, mu 5, length 1, 36 edges): its
    # 15 points share m = 5 and length 1, so one table serves them all
    fig6 = _preset_config("fig6", 1, 0, 1).grid
    estimates = montecarlo._sweep_estimates(ExperimentKind.NETWORK, fig6)
    assert calls == [(5, 25)]
    for point, (values, meta) in zip(fig6, estimates):
        params = EdgeParams(point.mu, point.lam, point.length)
        parts = network_estimate(point.degree, params, edge_estimate(params))
        assert values == {
            "edge": parts.local,
            "dispatch": dispatch_estimate(params, edge_estimate(params)),
            "network": parts.total,
        }
        assert meta == {"alpha": parts.alpha}


def test_edge_sweep_estimates_equal_direct_calls(monkeypatch):
    calls = []
    table = estimators.recursion_table

    def counting_table(m, n):
        calls.append((m, n))
        return table(m, n)

    monkeypatch.setattr(estimators, "recursion_table", counting_table)
    # the fig5 grid: one table per length, at m = 10 * length and n = 30 * length
    grid = tuple(
        EdgePoint(mu=10.0, lam=lam, length=float(ln))
        for lam in (10.0, 11.0, 15.0, 30.0)
        for ln in (1, 3, 5, 7, 9)
    )
    records = run_experiment(ExperimentConfig(ExperimentKind.EDGE, grid, replications=1))
    assert sorted(calls) == [(10 * ln, 30 * ln) for ln in (1, 3, 5, 7, 9)]
    monkeypatch.undo()
    for point, rec in zip(grid, records):
        params = EdgeParams(point.mu, point.lam, point.length)
        assert rec.estimates["edge"] == edge_estimate(params)
        assert rec.estimates["dispatch"] == dispatch_estimate(params, edge_estimate(params))
        if params.n > params.m:
            recursive = recursive_estimate(params.m, params.n, point.length)
            assert rec.estimates["edge"] == recursive


def test_one_within_segment_rule_for_every_kind(monkeypatch):
    calls = []
    table = estimators.recursion_table

    def counting_table(m, n):
        calls.append((m, n))
        return table(m, n)

    monkeypatch.setattr(estimators, "recursion_table", counting_table)
    # balanced points of any kind take the closed form and build no table
    balanced = (
        (ExperimentKind.SEGMENT, (SegmentPoint(4, 4),)),
        (ExperimentKind.EDGE, (EdgePoint(mu=4.0, lam=4.0, length=1.0),)),
        (ExperimentKind.NETWORK, (NetworkPoint(4, 5.0, 5.0, 1.0, 36),)),
    )
    for kind, grid in balanced:
        montecarlo._sweep_estimates(kind, grid)
    assert calls == []
    # a segment point and a unit-length edge point of the same counts get
    # the same within-segment value, bit for bit
    for m, n in ((4, 4), (4, 5), (10, 30), (1, 2)):
        ((seg, _),) = montecarlo._sweep_estimates(ExperimentKind.SEGMENT, (SegmentPoint(m, n),))
        edge_point = EdgePoint(mu=float(m), lam=float(n), length=1.0)
        ((edge, _),) = montecarlo._sweep_estimates(ExperimentKind.EDGE, (edge_point,))
        assert edge["edge"] == seg["balanced" if n == m else "recursive"]


# sha256 of repr(_sweep_estimates(kind, grid)) over each preset grid: every
# estimate's bits and each dict's key order, which records_to_json writes;
# computed with numpy 2.4.6 and scipy 1.17.1
_SWEEP_ESTIMATE_DIGESTS = {
    "fig4a": "a9877336919076e942a3079ea8eceb3cf442f14eacea102c28387938f76061f5",
    "fig4b": "11f5fee8a1c0225fc683676493c5a238c5acad687ff50ce821c71d079fe53106",
    "fig4c": "455e1f924b196a1f825252ee9cd33185ee5aabeefdedeb0c5ca2e4eb7dfb553f",
    "fig4d": "b218ec4928f6f50e0ee6baf95c06b813f0eae9bfb2a9e1afd5759172d4c6342f",
    "fig5": "ded26d138cb41a5d02aa9de8c5266729fa23042ca2f01b0f6495e20ed6047bbb",
    "fig6": "0cea678036ae46ad1d0b26db261ae844bd68250a73696856a5b8598e76e19cfe",
}


@pytest.mark.parametrize("preset", sorted(_SWEEP_ESTIMATE_DIGESTS))
def test_sweep_estimates_are_pinned_bit_for_bit(preset):
    cfg = _preset_config(preset, 1, 0, 1)
    text = repr(montecarlo._sweep_estimates(cfg.kind, cfg.grid))
    assert hashlib.sha256(text.encode()).hexdigest() == _SWEEP_ESTIMATE_DIGESTS[preset]


# sha256 of each preset grid's CSV at 2 reps and seed 3, computed with numpy
# 2.4.6 and scipy 1.17.1: how a sweep is run, checked or split among workers
# must not move a byte of any record
_PRESET_CSV_DIGESTS = {
    "fig4a": "29a892ffaf680bbf1aedbeb831bbc87b7841a6b6a4df9e0d8cd3beee6ee259c9",
    "fig4b": "be000caab4414801faf8dd402e47ceb661dbb73936a23c2edcb2f0619fb8c05c",
    "fig4c": "6f291f52effb00dd93dbc0c76eb6e5a9c73f1c45876ed3b1029df342061f44bd",
    "fig4d": "74e6774e2cc734696b4f22d3ca7fafae090129d074473bd81435ff783b49fcfc",
    "fig5": "137b5aa84399260f97f14027878de2d5619b8b23bb32a5058053b5c70668db22",
    "fig6": "cc2bd27af4008fe09ee739a05846dba060030ee272092cb6bec2c50a655f6a99",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("preset", sorted(_PRESET_CSV_DIGESTS))
def test_preset_records_are_pinned_byte_for_byte(preset, workers):
    text = records_to_csv(run_experiment(_preset_config(preset, 2, 3, workers)))
    assert hashlib.sha256(text.encode()).hexdigest() == _PRESET_CSV_DIGESTS[preset]


def _length_scaled_grid(kind, c):
    """fig6-shaped network or fig5-shaped edge points, the length times c and
    the densities over c."""
    if kind is ExperimentKind.NETWORK:
        lams = (5.0, 10.0, 25.0)
        return [NetworkPoint(d, 5.0 / c, lam / c, c, 36) for d in (3, 4, 6) for lam in lams]
    lams, lengths = (10.0, 11.0, 15.0, 30.0), (1.0, 3.0, 5.0)
    return [EdgePoint(10.0 / c, lam / c, c * length) for lam in lams for length in lengths]


@pytest.mark.parametrize("kind", [ExperimentKind.EDGE, ExperimentKind.NETWORK])
def test_scaling_the_length_scales_every_record_exactly(kind):
    # every Poisson mean and every stream stay the same and every distance,
    # the networks' hops times the length among them, scales by c: exactly,
    # bit for bit, at c = 2**k
    def run(c):
        return run_experiment(ExperimentConfig(kind, _length_scaled_grid(kind, c), 2, 3))

    base = run(1.0)
    for c in (0.5, 2.0, 4.0):
        for rec, ref in zip(run(c), base, strict=True):
            assert (rec.sim_mean, rec.sim_std) == (c * ref.sim_mean, c * ref.sim_std)
            assert rec.estimates == {name: c * value for name, value in ref.estimates.items()}


def test_estimator_attachment_by_kind():
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, (SegmentPoint(2, 2), SegmentPoint(2, 5)), replications=5,
        master_seed=0,
    )
    balanced, unbalanced = run_experiment(cfg)
    assert set(balanced.estimates) == {"balanced", "baseline"}
    assert set(unbalanced.estimates) == {
        "baseline",
        "closed",
        "closed_uncorrected",
        "recursive",
        "recursive_uncorrected",
    }
    edge_cfg = ExperimentConfig(
        ExperimentKind.EDGE, (EdgePoint(mu=2.0, lam=3.0, length=1.0),), replications=5,
        master_seed=0,
    )
    (edge_rec,) = run_experiment(edge_cfg)
    assert set(edge_rec.estimates) == {"edge", "dispatch"}
    net_cfg = ExperimentConfig(
        ExperimentKind.NETWORK,
        (NetworkPoint(degree=4, mu=1.0, lam=2.0, length=1.0, edge_count=36),),
        replications=3,
        master_seed=0,
    )
    (net_rec,) = run_experiment(net_cfg)
    assert set(net_rec.estimates) == {"edge", "dispatch", "network"}
    params = EdgeParams(1.0, 2.0, 1.0)
    parts = network_estimate(4, params, edge_estimate(params))
    assert net_rec.estimates["edge"] == parts.local
    assert net_rec.estimates["network"] == parts.total
    assert "resampled" in net_rec.meta and "alpha" in net_rec.meta


def test_relative_errors_definition():
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, (SegmentPoint(4, 4),), replications=20, master_seed=3
    )
    rec = run_experiment(cfg)[0]
    for name, value in rec.estimates.items():
        assert rec.rel_errors[name] == pytest.approx(
            (value - rec.sim_mean) / rec.sim_mean
        )
        assert math.isfinite(rec.rel_errors[name])


def test_relative_error_table_trivial_and_aggregate():
    rec = SummaryRecord(
        kind=ExperimentKind.SEGMENT,
        params={"m": 1, "n": 1},
        sim_mean=0.25,
        sim_std=0.0,
        estimates={"balanced": 0.25},
    )
    assert relative_error_table([rec]) == {"balanced": 0.0}
    rec2 = SummaryRecord(
        kind=ExperimentKind.SEGMENT,
        params={"m": 1, "n": 2},
        sim_mean=0.2,
        sim_std=0.0,
        estimates={"balanced": 0.3},
    )
    # (0.3 - 0.2) / 0.2 is 0.5 only up to rounding
    assert relative_error_table([rec, rec2]) == {"balanced": pytest.approx(0.25)}
    with pytest.raises(ValueError):
        relative_error_table([])


def test_replace_recomputes_relative_errors():
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, (SegmentPoint(3, 5),), replications=5, master_seed=2
    )
    rec = run_experiment(cfg)[0]
    doubled = dataclasses.replace(rec, sim_mean=2 * rec.sim_mean)
    assert set(doubled.rel_errors) == set(rec.estimates)
    for name, value in rec.estimates.items():
        assert doubled.rel_errors[name] == (value - 2 * rec.sim_mean) / (2 * rec.sim_mean)
        assert doubled.rel_errors[name] != rec.rel_errors[name]
    table = relative_error_table([doubled])
    assert table == {name: abs(err) for name, err in doubled.rel_errors.items()}


def test_balanced_estimator_beats_baseline_at_moderate_size():
    # the closed form tracks simulation closely at n = m = 100 while the
    # prior-work double sum lands roughly 40-50% low
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, (SegmentPoint(100, 100),), replications=100, master_seed=11
    )
    rec = run_experiment(cfg)[0]
    assert abs(rec.rel_errors["balanced"]) < 0.10
    assert 0.30 <= abs(rec.rel_errors["baseline"]) <= 0.55


def test_csv_and_json_schemas():
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, (SegmentPoint(2, 2), SegmentPoint(2, 4)), replications=5,
        master_seed=1,
    )
    records = run_experiment(cfg)
    text = records_to_csv(records)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["kind", "m", "n", "sim_mean", "sim_std"]
    assert "est_balanced" in header and "relerr_balanced" in header
    assert "est_recursive" in header and "replications" in header
    assert len(lines) == 3
    # empty cells where an estimator does not apply
    first = dict(zip(header, lines[1].split(",")))
    assert first["est_recursive"] == ""
    import json

    payload = json.loads(records_to_json(records))
    assert len(payload) == 2
    fields = [f.name for f in dataclasses.fields(SummaryRecord)]
    assert all(list(entry) == fields for entry in payload)
    assert all(isinstance(entry["kind"], str) for entry in payload)
    assert payload[0]["kind"] == "segment"
    assert payload[1]["estimates"]["recursive"] > 0


BENCH_REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.py"


@pytest.mark.parametrize("seed", [3, 12])
def test_fig6_replay_matches_stored_reference(monkeypatch, seed):
    # the fig6 grid at 5 reps against the benchmark's stored records, at the
    # benchmark's 1e-9 relative gate: sampling, cost matrices and solver must
    # keep every network record's value (the stored CSV hashes are not read)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("_bench_reference", BENCH_REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    records = run_experiment(_preset_config("fig6", 5, seed, 1))
    checked = reference.check(json.loads(records_to_json(records)), reference.load("fig6_r5"), seed)
    assert len(checked) == 15 and all(checked)


def test_network_records_report_resampling():
    cfg = ExperimentConfig(
        ExperimentKind.NETWORK,
        (NetworkPoint(degree=4, mu=5.0, lam=5.0, length=1.0, edge_count=36),),
        replications=10,
        master_seed=4,
    )
    rec = run_experiment(cfg)[0]
    assert rec.meta["resampled"] >= 0
    assert rec.sim_mean > 0
