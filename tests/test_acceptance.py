"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or ``-rA``)
and asserts the criterion, including its runtime budget where one is stated.
"""

import itertools
import time

import numpy as np

from _references import (
    ballot_segment_prob,
    enumerate_balanced_walks,
    optimal_removal_recompute,
    stars_bars_prob,
    walk_area_oracle,
)

from rbmatch.assignment import solve_dense
from rbmatch.combinatorics import expected_zero_returns, harel_area, stars_bars_distribution
from rbmatch.exact1d import optimal_match_1d, optimal_removal, balanced_area
from rbmatch.montecarlo import (
    EdgePoint,
    ExperimentConfig,
    ExperimentKind,
    NetworkPoint,
    SegmentPoint,
    records_to_csv,
    relative_error_table,
    run_experiment,
)
from rbmatch.types import Instance1D, SupplyCurve

import pytest


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def test_criterion_01_balanced_identity():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 101))
        inst = Instance1D(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        gap = abs(optimal_match_1d(inst).total_distance - balanced_area(inst))
        worst = max(worst, gap)
    elapsed = time.time() - start
    _report(
        1,
        "balanced area identity",
        worst <= 1e-9 and elapsed < 30.0,
        f"max |match - area| = {worst:.2e} over 1e4 instances, {elapsed:.1f}s",
    )


def test_criterion_02_removal_identity():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    prop1_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        n = int(rng.integers(51, 81))
        inst = Instance1D(rng.uniform(0, 1, m), rng.uniform(0, 1, n))
        removal = optimal_removal(inst)
        match = optimal_match_1d(inst)
        # optimal_removal reads its set off the matching DP; the removal DP
        # shares no step with it, so its area is the identity's second route
        reference = optimal_removal_recompute(inst)
        worst = max(
            worst,
            abs(removal.post_removal_area - match.total_distance),
            abs(reference.post_removal_area - match.total_distance),
        )
        curve = SupplyCurve(inst)
        supply_events = np.flatnonzero(curve.values == 1)
        levels = [
            int(curve.prefix[supply_events[i]]) for i in removal.removed_supply_indices
        ]
        prop1_ok = prop1_ok and levels == list(range(1, n - m + 1))
    elapsed = time.time() - start
    _report(
        2,
        "removal area identity + necessary condition",
        worst <= 1e-9 and prop1_ok and elapsed < 60.0,
        f"max gap = {worst:.2e}, removal levels exact: {prop1_ok}, {elapsed:.1f}s",
    )


def test_criterion_03_combinatorics_oracles():
    start = time.time()
    area_ok = all(
        abs(harel_area(n) - walk_area_oracle(n)) <= 1e-12 * max(1.0, walk_area_oracle(n))
        for n in range(9)
    )
    zero_ok = True
    for m_hat in range(1, 9):
        heights = np.cumsum(enumerate_balanced_walks(m_hat), axis=1)
        enumerated = float((heights == 0).sum(axis=1).mean())
        zero_ok = zero_ok and abs(expected_zero_returns(m_hat) - enumerated) <= 1e-10

    ballot_gap = 0.0
    for a in range(51):
        for e in range(1, 21):
            total = sum(ballot_segment_prob(mh, 0, a, e) for mh in range(a + 1))
            ballot_gap = max(ballot_gap, abs(total - 1.0))

    stars_gap = 0.0
    for m in range(1, 101):
        for n in range(m + 1, 301):
            stars_gap = max(stars_gap, abs(stars_bars_distribution(m, n).sum() - 1.0))
    # the vectorized rows agree with the scalar operation
    rng = np.random.default_rng(103)
    row_ok = True
    for _ in range(300):
        m = int(rng.integers(1, 101))
        n = int(rng.integers(m + 1, 301))
        mp = int(rng.integers(0, m + 1))
        row_ok = row_ok and abs(
            stars_bars_distribution(m, n)[mp] - stars_bars_prob(mp, m, n)
        ) <= 1e-12

    elapsed = time.time() - start
    passed = (
        area_ok and zero_ok and ballot_gap <= 1e-9 and stars_gap <= 1e-9
        and row_ok and elapsed < 10.0
    )
    _report(
        3,
        "combinatorics oracles",
        passed,
        f"areas exact: {area_ok}, zero returns exact: {zero_ok}, "
        f"ballot sum gap {ballot_gap:.1e}, partition sum gap {stars_gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_balanced_estimator_accuracy():
    start = time.time()
    grid = tuple(SegmentPoint(m=n, n=n) for n in range(10, 201, 10))
    cfg = ExperimentConfig(ExperimentKind.SEGMENT, grid, replications=100, master_seed=104)
    records = run_experiment(cfg)
    errors = relative_error_table(records)
    elapsed = time.time() - start
    passed = (
        errors["balanced"] <= 0.10
        and errors["balanced"] < errors["baseline"]
        and elapsed < 300.0
    )
    _report(
        4,
        "balanced estimator accuracy",
        passed,
        f"closed form {errors['balanced']:.1%} vs prior baseline {errors['baseline']:.1%}, "
        f"{elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def unbalanced_sweep():
    grid = []
    for m in (50, 100):
        grid.extend(SegmentPoint(m=m, n=n) for n in range(m + 1, 2 * m + 101, 10))
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, tuple(grid), replications=100, master_seed=105
    )
    start = time.time()
    records = run_experiment(cfg)
    return records, time.time() - start


def test_criterion_05_recursive_estimator_accuracy(unbalanced_sweep):
    records, elapsed = unbalanced_sweep
    errors = relative_error_table(records)
    passed = errors["recursive"] <= 0.15 and elapsed < 900.0
    _report(
        5,
        "recursive estimator accuracy",
        passed,
        f"mean relative error {errors['recursive']:.1%} over {len(records)} sweep points, "
        f"{elapsed:.1f}s",
    )


def test_criterion_06_closed_form_regime(unbalanced_sweep):
    records, _ = unbalanced_sweep
    surplus = [rec for rec in records if rec.params["n"] >= 2 * rec.params["m"]]
    errors = relative_error_table(surplus)
    passed = errors["closed"] <= 0.15 and errors["closed"] < errors["baseline"]
    _report(
        6,
        "closed-form estimator in the surplus regime",
        passed,
        f"closed {errors['closed']:.1%} vs baseline {errors['baseline']:.1%} "
        f"on {len(surplus)} points with n >= 2m",
    )


def test_criterion_07_scaling_law():
    start = time.time()
    lengths = (1.0, 3.0, 5.0, 7.0, 9.0)
    grid = tuple(
        EdgePoint(mu=10.0, lam=lam, length=ln)
        for lam in (10.0, 11.0, 15.0, 30.0)
        for ln in lengths
    )
    cfg = ExperimentConfig(ExperimentKind.EDGE, grid, replications=100, master_seed=107)
    records = run_experiment(cfg)
    by_ratio = {}
    for rec in records:
        by_ratio.setdefault(rec.params["lam"] / rec.params["mu"], []).append(rec)

    # balanced densities follow c * sqrt(L)
    balanced = by_ratio[1.0]
    y = np.array([rec.sim_mean for rec in balanced])
    x = np.sqrt([rec.params["length"] for rec in balanced])
    c = float(x @ y) / float(x @ x)
    r2 = 1.0 - float(((y - c * x) ** 2).sum()) / float(((y - y.mean()) ** 2).sum())

    # threefold supply surplus is flat in length
    flat = np.array([rec.sim_mean for rec in by_ratio[3.0]])
    spread = (flat.max() - flat.min()) / flat.mean()

    worst_error = max(
        relative_error_table(recs)["edge"] for recs in by_ratio.values()
    )
    elapsed = time.time() - start
    passed = r2 >= 0.95 and spread < 0.25 and worst_error <= 0.15
    _report(
        7,
        "length scaling law",
        passed,
        f"sqrt fit R^2 = {r2:.3f}, flat-regime spread {spread:.1%}, "
        f"worst per-ratio estimator error {worst_error:.1%}, {elapsed:.1f}s",
    )


def test_criterion_08_network_estimator_accuracy():
    start = time.time()
    grid = tuple(
        NetworkPoint(degree=d, mu=5.0, lam=float(lam), length=1.0, edge_count=36)
        for d in (3, 4, 6)
        for lam in (5, 10, 15, 20, 25)
    )
    cfg = ExperimentConfig(ExperimentKind.NETWORK, grid, replications=100, master_seed=108)
    records = run_experiment(cfg)
    per_degree = {}
    for rec in records:
        per_degree.setdefault(rec.params["degree"], []).append(rec)
    errors = {
        d: relative_error_table(recs)["network"] for d, recs in sorted(per_degree.items())
    }
    elapsed = time.time() - start
    passed = all(err <= 0.15 for err in errors.values()) and elapsed < 1200.0
    detail = ", ".join(f"D={d}: {err:.1%}" for d, err in errors.items())
    _report(8, "network estimator accuracy", passed, f"{detail}, {elapsed:.1f}s")


def test_criterion_09_assignment_solver():
    start = time.time()
    rng = np.random.default_rng(109)
    exact = True
    certified = True
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 8))
        costs = rng.uniform(0, 1, (m, n))
        sol = solve_dense(costs)
        best = min(
            float(costs[np.arange(m), list(perm)].sum())
            for perm in itertools.permutations(range(n), m)
        )
        exact = exact and abs(sol.total_cost - best) <= 1e-9
        reduced = costs - sol.row_potentials[:, None] - sol.col_potentials[None, :]
        certified = (
            certified
            and reduced.min() >= -1e-9
            and np.abs(reduced[np.arange(m), sol.col_of_row]).max() <= 1e-9
        )
    elapsed = time.time() - start
    _report(
        9,
        "assignment solver exactness + certificate",
        exact and certified,
        f"1000 brute-force comparisons, duals certified: {certified}, {elapsed:.1f}s",
    )


def test_criterion_10_determinism():
    seg = tuple(SegmentPoint(m=m, n=n) for m, n in ((3, 3), (5, 9), (20, 30)))
    net = (NetworkPoint(degree=4, mu=2.0, lam=3.0, length=1.0, edge_count=36),)
    outputs = []
    for workers in (1, 3, 1):
        seg_cfg = ExperimentConfig(
            ExperimentKind.SEGMENT, seg, replications=25, master_seed=110, workers=workers
        )
        net_cfg = ExperimentConfig(
            ExperimentKind.NETWORK, net, replications=10, master_seed=110, workers=workers
        )
        outputs.append(
            records_to_csv(run_experiment(seg_cfg)) + records_to_csv(run_experiment(net_cfg))
        )
    passed = outputs[0] == outputs[1] == outputs[2]
    _report(
        10,
        "seeded determinism across worker counts",
        passed,
        f"{len(outputs[0].splitlines())} CSV lines byte-identical over reruns and workers 1/3",
    )
