import itertools
import os
import re
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _references import certify_unblocked

import rbmatch
from rbmatch import assignment
from rbmatch.assignment import AssignmentSolution, CostMatrix, solve_assignment, solve_dense
from rbmatch.exact1d import optimal_match_1d
from rbmatch.types import Instance1D


def _brute_force(costs):
    m, n = costs.shape
    best = np.inf
    for perm in itertools.permutations(range(n), m):
        best = min(best, float(costs[np.arange(m), list(perm)].sum()))
    return best


def _solve_dense_reference(costs) -> AssignmentSolution:
    """The previous solver, kept as the reference: from zero potentials, one
    Dijkstra pass per row that shifts every used potential at every step."""
    costs = np.asarray(costs, dtype=np.float64)
    m, n = costs.shape
    u = np.zeros(m)
    v = np.zeros(n)
    row_of_col = np.full(n, -1, dtype=np.int64)
    for i in range(m):
        min_reduced = np.full(n, np.inf)
        predecessor = np.full(n, -2, dtype=np.int64)  # -1 marks the tree root
        used = np.zeros(n, dtype=bool)
        current_row = i
        previous_col = -1
        while True:
            reduced = costs[current_row] - u[current_row] - v
            better = ~used & (reduced < min_reduced)
            min_reduced[better] = reduced[better]
            predecessor[better] = previous_col
            available = np.where(used, np.inf, min_reduced)
            next_col = int(np.argmin(available))
            delta = float(available[next_col])
            # shift potentials so every tree edge becomes tight
            u[i] += delta
            used_cols = np.flatnonzero(used)
            if used_cols.size:
                u[row_of_col[used_cols]] += delta
                v[used_cols] -= delta
            min_reduced[~used] -= delta
            used[next_col] = True
            previous_col = next_col
            if row_of_col[next_col] == -1:
                break
            current_row = row_of_col[next_col]
        # augment: pull each column's row from its predecessor on the path
        col = previous_col
        while True:
            prev = int(predecessor[col])
            if prev == -1:
                row_of_col[col] = i
                break
            row_of_col[col] = row_of_col[prev]
            col = prev

    col_of_row = np.full(m, -1, dtype=np.int64)
    matched = np.flatnonzero(row_of_col >= 0)
    col_of_row[row_of_col[matched]] = matched
    total = float(costs[np.arange(m), col_of_row].sum()) if m else 0.0
    return AssignmentSolution(
        col_of_row=col_of_row, row_potentials=u, col_potentials=v, total_cost=total
    )


def _assert_certificate(costs, sol: AssignmentSolution):
    reduced = costs - sol.row_potentials[:, None] - sol.col_potentials[None, :]
    assert reduced.min() >= -1e-9
    matched = reduced[np.arange(costs.shape[0]), sol.col_of_row]
    assert np.abs(matched).max() <= 1e-9


def test_single_row_example():
    res = solve_assignment(CostMatrix([[0.3, 0.1]]))
    assert res.pairs.tolist() == [[0, 1]]
    assert res.total_distance == pytest.approx(0.1)


def test_cost_matrix_freezes_float64_input_in_place():
    costs = np.random.default_rng(5).uniform(0, 1, (3, 4))
    matrix = CostMatrix(costs)
    assert matrix.costs is costs
    assert not costs.flags.writeable


def test_cost_matrix_copies_a_view_before_freezing_it():
    # a view frozen in place would still change through its writable base
    base = np.random.default_rng(6).uniform(0, 1, (3, 4))
    for view in (base[:, :], base[:, :3], base.T[:3, :]):
        matrix = CostMatrix(view)
        before = matrix.costs.copy()
        base[0, 0] = np.nan
        assert np.array_equal(matrix.costs, before)
        assert matrix.costs.flags.owndata and not matrix.costs.flags.writeable
        base[0, 0] = 0.5
    assert base.flags.writeable


def _check_costs_two_pass(costs):
    """The two-pass rule ``_check_costs`` replaced, kept as its reference."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError(f"costs must be a 2D array, got shape {costs.shape}")
    if costs.shape[0] > costs.shape[1]:
        raise ValueError(f"need rows <= cols, got {costs.shape[0]} x {costs.shape[1]}")
    if costs.size and not (costs.min() >= 0.0 and costs.max() < np.inf):
        if not np.isfinite(costs).all():
            raise ValueError("costs must be finite")
        raise ValueError("costs must be nonnegative")
    return costs


def _verdict(check, costs):
    try:
        checked = check(costs)
    except ValueError as exc:
        return "raises", str(exc)
    return "passes", checked.dtype, checked.shape, checked.tobytes()


_ENTRIES = [0.0, -0.0, 5e-324, sys.float_info.max, np.inf, -np.inf, np.nan, -1e-300, 0.25]


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("form", ["float64", "float32", "transposed", "only"])
def test_one_pass_check_gives_the_two_pass_verdict(entry, form):
    costs = np.array([[0.5, entry, 1.0], [0.25, 2.0, 0.0]])
    if form == "float32":
        with np.errstate(over="ignore"):  # the largest float64 is inf in float32
            costs = costs.astype(np.float32)
    elif form == "transposed":
        costs = np.ascontiguousarray(costs.T).T  # a non-contiguous view
    elif form == "only":
        costs = np.array([[entry]])
    expected = _verdict(_check_costs_two_pass, costs)
    assert _verdict(assignment._check_costs, costs) == expected
    if expected[0] == "passes":
        assert CostMatrix(costs).costs.tobytes() == expected[3]


@pytest.mark.parametrize(
    "costs", [np.empty((0, 3)), np.empty((1, 0)), np.empty((0, 0)), np.ones(3), np.ones((3, 2))]
)
def test_one_pass_check_on_empty_and_misshapen_arrays(costs):
    assert _verdict(assignment._check_costs, costs) == _verdict(_check_costs_two_pass, costs)


def test_kernel_reads_the_frozen_matrix_in_place(monkeypatch):
    c = CostMatrix(np.random.default_rng(7).uniform(0, 1, (3, 5)))
    seen = []

    class FakeKernel:
        @staticmethod
        def linear_sum_assignment(arg):
            # the kernel's conversion: a C-contiguous, aligned, writeable array
            view = np.require(arg, np.float64, ["C", "A", "W"])
            seen.append((np.shares_memory(view, c.costs), c.costs.flags.writeable))
            if len(seen) == 2:
                raise RuntimeError("kernel failed")
            return np.arange(3), np.array([4, 0, 2])

    monkeypatch.setattr(assignment, "_kernel", lambda: FakeKernel)
    assert not c.costs.flags.writeable
    res = solve_assignment(c)
    assert res.pairs.tolist() == [[0, 4], [1, 0], [2, 2]]
    assert res.total_distance == np.add.reduce(c.costs[[0, 1, 2], [4, 0, 2]])
    assert not c.costs.flags.writeable
    with pytest.raises(RuntimeError, match="kernel failed"):
        solve_assignment(c)
    assert seen == [(True, False), (True, False)]
    assert not c.costs.flags.writeable


def test_kernel_solves_without_copying_the_matrix():
    costs = np.random.default_rng(8).uniform(0, 1, (200, 900))
    expected_rows, expected_cols = assignment._kernel().linear_sum_assignment(costs.copy())
    c = CostMatrix(costs)
    before = c.costs.tobytes()
    tracemalloc.start()
    try:
        res = solve_assignment(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a copy would hold c.costs.nbytes (1.44 MB); pairs and indices take ~11 KB
    assert peak < c.costs.nbytes / 20
    assert np.array_equal(res.pairs, np.column_stack((expected_rows, expected_cols)))
    assert c.costs.tobytes() == before and not c.costs.flags.writeable


def test_kernel_suffix_names_the_file_sysconfig_names():
    package = os.path.dirname(os.path.dirname(assignment._kernel_path()))
    by_sysconfig = os.path.join(package, "optimize", "_lsap" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert assignment._kernel_path() == by_sysconfig
    assert os.path.isfile(by_sysconfig)


def test_first_solve_loads_no_sysconfig_data():
    # sysconfig's config module costs ~0.6 ms to import: a sweep's first
    # exact solve must not load it to find the kernel's file
    src = str(Path(rbmatch.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "before = {m for m in sys.modules if m.startswith('_sysconfigdata')}\n"
        "import rbmatch\n"
        "net = rbmatch.build_regular_network(4, 36, 1.0)\n"
        "inst = rbmatch.sample_instance(net, 5.0, 10.0, 0)\n"
        "assert rbmatch.exact_network_match(net, inst).total_distance > 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('_sysconfigdata') and m not in before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        CostMatrix(np.ones((3, 2)))  # more rows than cols
    with pytest.raises(ValueError):
        CostMatrix([[0.1, -0.2]])
    with pytest.raises(ValueError):
        CostMatrix([[np.inf, 0.2]])
    with pytest.raises(ValueError):
        CostMatrix(np.ones(4))
    # the public solver runs the same check, so none of these can hang it
    with pytest.raises(ValueError, match="rows <= cols"):
        solve_dense(np.ones((3, 2)))
    with pytest.raises(ValueError, match="finite"):
        solve_dense([[np.inf, np.inf]])
    with pytest.raises(ValueError, match="finite"):
        solve_dense([[0.1, np.nan], [0.3, 0.2]])
    with pytest.raises(ValueError, match="nonnegative"):
        solve_dense([[0.1, -0.2]])
    with pytest.raises(ValueError, match="2D"):
        solve_dense(np.ones(4))


def test_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(30)
    for _ in range(300):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 8))
        costs = rng.uniform(0, 1, (m, n))
        sol = solve_dense(costs)
        assert sol.total_cost == pytest.approx(_brute_force(costs), abs=1e-9)
        _assert_certificate(costs, sol)


def test_certificate_on_rectangular_solves():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = int(rng.integers(1, 40))
        n = int(rng.integers(m, 80))
        costs = rng.uniform(0, 3, (m, n))
        _assert_certificate(costs, solve_dense(costs))


def test_permutation_invariance():
    rng = np.random.default_rng(32)
    costs = rng.uniform(0, 1, (6, 9))
    base = solve_dense(costs).total_cost
    for _ in range(10):
        rp = rng.permutation(6)
        cp = rng.permutation(9)
        permuted = costs[np.ix_(rp, cp)]
        sol = solve_dense(permuted)
        assert sol.total_cost == pytest.approx(base, abs=1e-12)
        # the permuted solution maps back to a valid assignment of the original
        back = {int(rp[i]): int(cp[j]) for i, j in enumerate(sol.col_of_row)}
        total = sum(costs[i, j] for i, j in back.items())
        assert total == pytest.approx(base, abs=1e-12)


def test_matches_segment_dp_on_distance_matrices():
    rng = np.random.default_rng(33)
    for _ in range(60):
        m = int(rng.integers(1, 15))
        n = int(rng.integers(m, 25))
        inst = Instance1D(rng.uniform(0, 1, m), rng.uniform(0, 1, n))
        costs = np.abs(inst.demand[:, None] - inst.supply[None, :])
        res = solve_assignment(CostMatrix(costs))
        assert res.total_distance == pytest.approx(
            optimal_match_1d(inst).total_distance, abs=1e-9
        )


def test_deterministic_tie_break_prefers_low_columns():
    res = solve_assignment(CostMatrix([[0.5, 0.5, 0.5]]))
    assert res.pairs.tolist() == [[0, 0]]
    res2 = solve_assignment(CostMatrix([[0.2, 0.1, 0.1], [0.1, 0.1, 0.4]]))
    sol_total = res2.total_distance
    assert sol_total == pytest.approx(0.2)


def test_empty_matrix():
    res = solve_assignment(CostMatrix(np.empty((0, 4))))
    assert res.pairs.shape == (0, 2)
    assert res.total_distance == 0.0


@settings(max_examples=150, deadline=None)
@given(
    shape=st.integers(1, 30).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, 60))),
    kind=st.sampled_from(["uniform", "ties", "rank_one"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_reference_solver(shape, kind, seed):
    m, n = shape
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        costs = rng.uniform(0, 1, (m, n))
    elif kind == "ties":
        costs = rng.integers(0, 3, (m, n)).astype(float)
    else:  # every assignment of a rank-one matrix is optimal
        costs = rng.uniform(0, 1, m)[:, None] + rng.uniform(0, 1, n)[None, :]
    sol = solve_dense(costs)
    ref = _solve_dense_reference(costs)
    assert sol.total_cost == pytest.approx(ref.total_cost, rel=1e-12, abs=1e-12)
    assert len(set(sol.col_of_row.tolist())) == m
    assert ((sol.col_of_row >= 0) & (sol.col_of_row < n)).all()
    _assert_certificate(costs, sol)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.integers(0, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(max(m, 1), 20))),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(0, 5), seed=0)
@example(shape=(1, 1), seed=1)
@example(shape=(1, 7), seed=2)
@example(shape=(9, 9), seed=3)
def test_kernel_totals_match_reference_on_tied_costs(shape, seed):
    # costs on the grid k/10 tie often, so both solvers face many optima
    m, n = shape
    costs = np.random.default_rng(seed).integers(0, 11, (m, n)) / 10
    res = solve_assignment(CostMatrix(costs))
    assert res.total_distance == pytest.approx(solve_dense(costs).total_cost, rel=1e-12)
    assert res.pairs.dtype == np.int64 and res.pairs.shape == (m, 2)
    assert not res.pairs.flags.writeable
    rows, cols = res.pairs[:, 0].tolist(), res.pairs[:, 1].tolist()
    assert rows == list(range(m))
    assert len(set(cols)) == m and all(0 <= j < n for j in cols)


# solve_dense's stated bound on a certified start's excess over the optimum
_CERTIFY_RTOL = 4.6e-13


def _assert_same_solution(sol, ref):
    assert np.array_equal(sol.col_of_row, ref.col_of_row)
    assert np.array_equal(sol.row_potentials, ref.row_potentials)
    assert np.array_equal(sol.col_potentials, ref.col_potentials)
    assert sol.total_cost == ref.total_cost


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 30),
    extra=st.one_of(st.just(0), st.integers(1, 30)),
    kind=st.sampled_from(["uniform", "ties"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=1, extra=0, kind="uniform", seed=0)
@example(m=9, extra=0, kind="ties", seed=1)
@example(m=30, extra=30, kind="ties", seed=2)
def test_solve_dense_certifies_the_kernels_start_and_no_worse_one(m, extra, kind, seed):
    n = m + extra
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        costs = rng.uniform(0, 1, (m, n))
    else:  # integer costs tie often
        costs = rng.integers(0, 4, (m, n)).astype(float)
    optimum = solve_dense(costs)
    start = solve_assignment(CostMatrix(costs.copy())).pairs[:, 1]
    sol = solve_dense(costs, start=start)
    assert np.array_equal(sol.col_of_row, start)  # certified: not solved again
    assert sol.total_cost == float(costs[np.arange(m), start].sum())
    assert sol.total_cost == pytest.approx(optimum.total_cost, rel=1e-12, abs=0.0)
    _assert_certificate(costs, sol)
    # worse starts: two rows swap their columns, or a row moves to a free one
    free = np.setdiff1d(np.arange(n), start)
    for _ in range(4):
        worse = start.copy()
        if m >= 2 and (not free.size or rng.random() < 0.5):
            a, b = rng.choice(m, 2, replace=False)
            worse[[a, b]] = worse[[b, a]]
        elif free.size:
            worse[rng.integers(m)] = rng.choice(free)
        total = float(costs[np.arange(m), worse].sum())
        sol = solve_dense(costs, start=worse)
        if total - optimum.total_cost > _CERTIFY_RTOL * total:
            _assert_same_solution(sol, optimum)
        else:  # a tie: certified or solved again, the total is the optimum's
            assert sol.total_cost == pytest.approx(optimum.total_cost, rel=1e-12, abs=0.0)
            _assert_certificate(costs, sol)


@pytest.mark.parametrize("size", [1, 31, 32, 33, 64, 65])
@pytest.mark.parametrize("start", ["inf", "uniform"])
def test_blocked_pass_lowers_reach_as_one_whole_pass(size, start):
    # random entries: every row's least entry is at a random matched column
    rng = np.random.default_rng(size)
    through, w = rng.uniform(0, 1, (70, 40)), rng.uniform(0, 1, 70)
    ks = np.sort(rng.choice(70, size, replace=False))
    reach = np.full(40, np.inf) if start == "inf" else rng.uniform(0, 1, 40)
    expected = np.minimum(reach, (through[ks] + w[ks, None]).min(axis=0))
    assert assignment._lower_reach(reach, through, w, ks).tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", [1, 31, 32, 33, 64, 65])
@pytest.mark.parametrize("kind", ["uniform", "ties"])
def test_certificate_at_row_block_edges_equals_unblocked_reference(m, kind, monkeypatch):
    passes = []
    lower_reach = assignment._lower_reach

    def counted(reach, through, w, ks):
        passes.append(ks.size)
        return lower_reach(reach, through, w, ks)

    monkeypatch.setattr(assignment, "_lower_reach", counted)
    rng = np.random.default_rng(m)
    for n in (m, m + 1, 2 * m + 3):
        if kind == "uniform":
            costs = rng.uniform(0, 1, (m, n))
        else:  # costs on the grid k/10 tie often
            costs = rng.integers(0, 11, (m, n)) / 10
        start = solve_assignment(CostMatrix(costs.copy())).pairs[:, 1]
        swapped = start.copy()
        swapped[[0, -1]] = swapped[[-1, 0]]
        for s in (start, swapped, rng.permutation(n)[:m]):
            expected = certify_unblocked(costs, s)
            if expected is None:  # not certified: solved from scratch
                expected = solve_dense(costs)
            _assert_same_solution(solve_dense(costs, start=s), expected)
    # some passes read only the columns that fell, over more than one block
    assert m == 1 or any(0 < size < m for size in passes)
    assert m <= assignment._ROW_BLOCK or max(passes) > assignment._ROW_BLOCK


def test_solve_dense_refuses_a_start_on_a_negative_cycle():
    # swapped, the two rows cost 0.002 more than the optimum; the free
    # column is far, so the cycle's potentials stay positive at the cap
    costs = np.array([[1.0, 1.001, 3.0], [1.001, 1.0, 3.0]])
    assert solve_dense(costs, start=np.array([0, 1])).col_of_row.tolist() == [0, 1]
    _assert_same_solution(solve_dense(costs, start=np.array([1, 0])), solve_dense(costs))


@pytest.mark.parametrize(
    "start, message",
    [
        ([0, 1], "1D integer array of 3 columns"),
        ([[0], [1], [2]], "1D integer array of 3 columns"),
        ([0.0, 1.0, 2.0], "1D integer array of 3 columns"),
        ([True, False, True], "1D integer array of 3 columns"),
        ([0, 1, 4], r"start columns must lie in \[0, 4\)"),
        ([-1, 1, 2], r"start columns must lie in \[0, 4\)"),
        ([0, 2, 2], "start must give every row a distinct column"),
    ],
)
def test_solve_dense_rejects_a_bad_start(start, message):
    costs = np.random.default_rng(34).uniform(0, 1, (3, 4))
    with pytest.raises(ValueError, match=message):
        solve_dense(costs, start=np.array(start))


def test_solve_dense_with_an_empty_start():
    sol = solve_dense(np.empty((0, 3)), start=np.empty(0, dtype=np.int64))
    assert sol.col_of_row.shape == (0,) and sol.total_cost == 0.0
    assert sol.col_potentials.tolist() == [0.0, 0.0, 0.0]


def test_missing_kernel_file_raises_import_error(monkeypatch, tmp_path):
    missing = str(tmp_path / "_lsap.so")
    monkeypatch.setattr(assignment, "_kernel_path", lambda: missing)
    assignment._kernel.cache_clear()
    try:
        with pytest.raises(ImportError, match=re.escape(missing)):
            solve_assignment(CostMatrix([[0.3, 0.1]]))
    finally:
        monkeypatch.undo()
        assignment._kernel.cache_clear()
    assert solve_assignment(CostMatrix([[0.3, 0.1]])).pairs.tolist() == [[0, 1]]
