"""Seeded, reproducible experiment harness: parameter sweeps, replication,
exact-solver ground truth, and estimator comparison records."""

from __future__ import annotations

import csv
import functools
import io
import json
import numbers
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .assignment import solve_dense
from .estimators import (
    _check_counts as _check_segment_counts,
    balanced_estimate,
    baseline_estimate,
    closed_unbalanced_estimate,
    closed_unbalanced_estimates,
    dispatch_estimate,
    edge_estimate,
    recursive_estimates,
    step_length_correction,
)
from .exact1d import match_costs_1d, optimal_match_1d
from .network import (
    DEFAULT_SEARCH_LAYERS,
    _cost_matrix,
    build_regular_network,
    check_kappa,
    exact_network_match,
    network_estimate,
    regular_edges,
    sample_instance,
)
from .types import EdgeParams, Instance1D

__all__ = [
    "ExperimentKind",
    "SegmentPoint",
    "EdgePoint",
    "NetworkPoint",
    "ExperimentConfig",
    "SummaryRecord",
    "run_experiment",
    "relative_error_table",
    "records_to_csv",
    "records_to_json",
]


# relative tolerance between replication 0's mean and its reference solver's
_REFERENCE_RTOL = 1e-12


class ExperimentKind(Enum):
    SEGMENT = "segment"
    EDGE = "edge"
    NETWORK = "network"


@dataclass(frozen=True)
class SegmentPoint:
    """Fixed integer point counts 1 <= m <= n on the unit segment."""

    m: int
    n: int

    def __post_init__(self):
        try:
            _check_segment_counts(self.m, [self.n], least_excess=0)
        except ValueError as exc:
            raise _point_error(self, exc) from None


@dataclass(frozen=True)
class EdgePoint:
    """Densities on a line of the given length; counts are mu*length, lam*length."""

    mu: float
    lam: float
    length: float

    def __post_init__(self):
        _check_counts(self)


@dataclass(frozen=True)
class NetworkPoint:
    """A D-regular network sweep point with per-edge Poisson densities.

    The network estimate's local part needs whole per-edge counts mu*length
    and lam*length. With lam < mu almost every realization has more demand
    than supply, and the harness would redraw it forever. The layout
    (degree, edge_count) must be one ``regular_edges`` can build, and the
    search-layer truncation ``kappa`` an integer of at least 1.
    """

    degree: int
    mu: float
    lam: float
    length: float
    edge_count: int
    kappa: int = DEFAULT_SEARCH_LAYERS

    def __post_init__(self):
        try:
            regular_edges(self.degree, self.edge_count)
            check_kappa(self.kappa)
        except ValueError as exc:
            raise _point_error(self, exc) from None
        _check_counts(self)


def _point_error(point, reason) -> ValueError:
    return ValueError(f"invalid grid point {point!r}: {reason}")


def _check_counts(point) -> None:
    """Densities and length must be valid and give whole point counts >= 1."""
    try:
        EdgeParams(point.mu, point.lam, point.length)
    except ValueError as exc:
        raise _point_error(point, exc) from None


_POINT_TYPES = {
    ExperimentKind.SEGMENT: SegmentPoint,
    ExperimentKind.EDGE: EdgePoint,
    ExperimentKind.NETWORK: NetworkPoint,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A parameter grid with replication count, master seed, and worker count.

    Replication r of grid point g always draws from the RNG stream seeded by
    (master_seed, g, r), so outputs are identical for any worker count. The
    master seed is a nonnegative integer.
    """

    kind: ExperimentKind
    grid: tuple
    replications: int = 100
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.grid:
            raise ValueError("grid must be nonempty")
        expected = _POINT_TYPES[self.kind]
        if not all(isinstance(p, expected) for p in self.grid):
            raise ValueError(f"{self.kind.value} grid entries must be {expected.__name__}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        seed = self.master_seed
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"master_seed must be a nonnegative integer, got {seed!r}")
        object.__setattr__(self, "master_seed", int(seed))
        object.__setattr__(self, "grid", tuple(self.grid))


@dataclass(frozen=True)
class SummaryRecord:
    """One grid point's simulated mean/std and every estimator's value.

    ``rel_errors[name] = (estimates[name] - sim_mean) / sim_mean``.
    """

    kind: ExperimentKind
    params: dict
    sim_mean: float
    sim_std: float
    estimates: dict
    rel_errors: dict
    meta: dict = field(default_factory=dict)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool size 4
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash(value, const: list, mult: int):
    """One hash step of SeedSequence on a Python int or a uint32 array;
    ``const[0]`` is the running hash constant, advanced by ``mult`` at each
    step whatever the value, as numpy's one-element ``hash_const`` array is."""
    value = value ^ const[0]
    const[0] = const[0] * mult & _MASK32
    value = value * const[0] & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _stream_states(master_seed: int, grid_indices, rep_indices) -> np.ndarray:
    """PCG64 seed words of every (grid point, replication) stream at once.

    Entry [i, j] of the (G, R, 4) uint64 result equals
    ``SeedSequence(master_seed, spawn_key=(g, r)).generate_state(4, np.uint64)``
    with g = grid_indices[i] and r = rep_indices[j], word for word: this is
    numpy's hash, with the entropy words master_seed (padded to the pool
    size) then g then r. The master-seed part is the same for every stream
    and is hashed once in Python ints; only the g and r words are hashed as
    uint32 arrays, g over G entries and r over G*R. Each index must lie in
    [0, 2**32), so that it is a single entropy word.
    """
    if master_seed < 0:
        raise ValueError(f"master_seed must be nonnegative, got {master_seed}")
    spawn = []
    for name, indices in (("grid index", grid_indices), ("replication", rep_indices)):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and not (indices.min() >= 0 and indices.max() <= _MASK32):
            raise ValueError(f"every {name} must lie in [0, 2**32)")
        spawn.append(indices.astype(np.uint32))
    words = []
    while True:
        words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    const = [_INIT_A]
    pool = [_hash(word, const, _MULT_A) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], const, _MULT_A))
    grid_word, rep_word = spawn
    for word in words[_POOL_SIZE:] + [grid_word[:, None], rep_word[None, :]]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, const, _MULT_A))
    const = [_INIT_B]
    out = np.stack([_hash(pool[i % _POOL_SIZE], const, _MULT_B) for i in range(8)], axis=-1)
    # as in numpy: the eight 32-bit words read as four little-endian 64-bit ones
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _stored_words_type():
    """An ISeedSequence that hands PCG64 seed words derived ahead of time.

    Made on first use: subclassing numpy's ISeedSequence when rbmatch is
    imported would load numpy.random with it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StoredWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"stored seed words are 4 uint64, not {n_words} {np.dtype(dtype)}"
                )
            return self.words

    return StoredWords


def _rep_stream(words: np.ndarray) -> np.random.Generator:
    """One replication's generator from its ``_stream_states`` row: the same
    stream ``default_rng(SeedSequence(master_seed, spawn_key=(g, r)))`` gives."""
    return np.random.Generator(np.random.PCG64(_stored_words_type()(words)))


def _shape(kind: ExperimentKind, point) -> tuple[int, int, float]:
    """Counts m <= n and length of a segment or edge point."""
    if kind is ExperimentKind.SEGMENT:
        return point.m, point.n, 1.0
    params = EdgeParams(point.mu, point.lam, point.length)
    return params.m, params.n, point.length


def _segment_means(kind: ExperimentKind, point, states: np.ndarray):
    """Mean matching distance of every replication of a segment or edge point.

    Each replication fills its row of one (R, m + n) block with a single
    ``random`` call on its own stream, built from its row of ``states``:
    demand first, then supply. The block is scaled by the length once;
    numpy's ``uniform(0, length, k)`` is ``0.0 + length * random()``, so
    every coordinate has the bits of a ``uniform`` draw of demand, then
    supply. ``random`` lies in [0, 1) and the length is finite and positive,
    so no coordinate needs a range check. The two sides are sorted in place
    and solved in one ``match_costs_1d`` call. Replication 0 is solved again by
    ``optimal_match_1d`` as a check on the batched kernel.
    """
    m, n, length = _shape(kind, point)
    draws = np.empty((len(states), m + n))
    for rep, words in enumerate(states):
        _rep_stream(words).random(out=draws[rep])
    draws *= length
    demand, supply = draws[:, :m], draws[:, m:]
    demand.sort(axis=1)
    supply.sort(axis=1)
    means = match_costs_1d(demand, supply) / m
    reference = optimal_match_1d(Instance1D(demand[0], supply[0], length)).mean_distance
    _check_reference(point, means[0], reference, "optimal_match_1d")
    return means


def _check_reference(point, mean: float, reference: float, solver: str) -> None:
    """Raise a RuntimeError naming the grid point unless replication 0's
    ``mean`` agrees with the reference ``solver``'s to _REFERENCE_RTOL."""
    if not abs(mean - reference) <= _REFERENCE_RTOL * abs(reference):
        raise RuntimeError(
            f"grid point {point!r}: mean {mean!r} of replication 0 "
            f"differs from {solver}'s {reference!r}"
        )


def _network_means(point: NetworkPoint, states: np.ndarray) -> tuple[np.ndarray, int]:
    """Mean matching distance of every replication of a network point, and
    the redraws they took in all.

    Each replication draws from its own stream, built from its row of
    ``states``. Realizations with no demand or more demand than supply are
    redrawn from the same stream; a valid point (lam >= mu > 0) accepts a
    draw with positive odds. Every replication is solved by the compiled
    kernel behind ``exact_network_match``; replication 0 is solved again by
    the reference ``solve_dense`` as a check on it.
    """
    net = build_regular_network(point.degree, point.edge_count, point.length)
    means = np.empty(len(states))
    resampled = 0
    for rep, words in enumerate(states):
        rng = _rep_stream(words)
        inst = sample_instance(net, point.mu, point.lam, rng)
        while not 0 < inst.total_demand <= inst.total_supply:
            resampled += 1
            inst = sample_instance(net, point.mu, point.lam, rng)
        means[rep] = exact_network_match(net, inst).mean_distance
        if rep == 0:
            reference = solve_dense(_cost_matrix(net, inst)).total_cost / inst.total_demand
            _check_reference(point, means[0], reference, "solve_dense")
    return means, resampled


def _sweep_estimates(kind: ExperimentKind, grid) -> list[tuple[dict, dict]]:
    """Every grid point's estimator values and extra metadata, in grid order.

    Unbalanced segment and edge points share one ``recursive_estimates``
    pass per (m, length), and unbalanced segment points one
    ``closed_unbalanced_estimates`` pass per m; each value equals the
    single-point call's bit for bit.
    """
    recursive, closed = {}, {}
    if kind is not ExperimentKind.NETWORK:
        groups: dict[tuple[int, float], list[int]] = {}
        for point in grid:
            m, n, length = _shape(kind, point)
            if n > m:
                groups.setdefault((m, length), []).append(n)
        for (m, length), ns in groups.items():
            for n, value in recursive_estimates(m, ns, length).items():
                recursive[m, n, length] = value
            if kind is ExperimentKind.SEGMENT:
                for n, value in closed_unbalanced_estimates(m, ns).items():
                    closed[m, n] = value
    return [_point_estimates(kind, point, recursive, closed) for point in grid]


def _point_estimates(
    kind: ExperimentKind, point, recursive: dict, closed: dict
) -> tuple[dict, dict]:
    """Estimator values for one grid point, plus extra metadata fields;
    ``recursive`` maps (m, n, length) to the uncorrected recursive value and
    ``closed`` maps (m, n) to the uncorrected closed-form value."""
    if kind is ExperimentKind.SEGMENT:
        m, n = point.m, point.n
        out = {"baseline": baseline_estimate(m, n)}
        if n == m:
            out["balanced"] = balanced_estimate(n)
        else:
            # one recursion value serves two columns; this is the subtraction
            # recursive_estimate applies
            rec = recursive[m, n, 1.0]
            out["closed"] = closed_unbalanced_estimate(m, n, uncorrected=closed[m, n])
            out["closed_uncorrected"] = closed[m, n]
            out["recursive"] = rec - step_length_correction(m, n)
            out["recursive_uncorrected"] = rec
        return out, {}
    params = EdgeParams(point.mu, point.lam, point.length)
    if kind is ExperimentKind.EDGE:
        edge = edge_estimate(params, recursive.get(_shape(kind, point)))
        return {"edge": edge, "dispatch": dispatch_estimate(params, edge)}, {}
    # the network estimate's local part is the edge estimate
    parts = network_estimate(point.degree, point.mu, point.lam, point.length, point.kappa)
    dispatch = dispatch_estimate(params, parts.local)
    out = {"edge": parts.local, "dispatch": dispatch, "network": parts.total}
    return out, {"alpha": parts.alpha}


def _point_params(kind: ExperimentKind, point) -> dict:
    if kind is ExperimentKind.SEGMENT:
        return {"m": point.m, "n": point.n}
    if kind is ExperimentKind.EDGE:
        return {"mu": point.mu, "lam": point.lam, "length": point.length}
    return {
        "degree": point.degree,
        "mu": point.mu,
        "lam": point.lam,
        "length": point.length,
        "edges": point.edge_count,
    }


def _run_grid_point(args) -> SummaryRecord:
    kind, point, states, (estimates, extra_meta) = args
    meta = {"replications": len(states), **extra_meta}
    if kind is ExperimentKind.NETWORK:
        means, meta["resampled"] = _network_means(point, states)
    else:
        means = _segment_means(kind, point, states)
    sim_mean = float(means.mean())
    sim_std = float(means.std(ddof=1)) if len(states) > 1 else 0.0
    estimates = {name: float(value) for name, value in estimates.items()}
    rel_errors = {
        name: (value - sim_mean) / sim_mean
        for name, value in estimates.items()
        if sim_mean > 0
    }
    return SummaryRecord(
        kind=kind,
        params=_point_params(kind, point),
        sim_mean=sim_mean,
        sim_std=sim_std,
        estimates=estimates,
        rel_errors=rel_errors,
        meta=meta,
    )


def run_experiment(cfg: ExperimentConfig) -> list[SummaryRecord]:
    """Simulate every grid point and attach all applicable estimator values.

    Estimates depend on the grid point alone, and every replication's seed
    words on (master_seed, g, r) alone: both are computed here, once per
    sweep, and travel with each point's task. Output order follows the grid;
    values are identical for any worker count.
    """
    estimates = _sweep_estimates(cfg.kind, cfg.grid)
    grid_indices, rep_indices = np.arange(len(cfg.grid)), np.arange(cfg.replications)
    states = _stream_states(cfg.master_seed, grid_indices, rep_indices)
    tasks = [
        (cfg.kind, point, states[gi], estimates[gi]) for gi, point in enumerate(cfg.grid)
    ]
    if cfg.workers == 1 or len(tasks) == 1:
        return [_run_grid_point(t) for t in tasks]
    # imported here: loading multiprocessing costs import time on every run
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(_run_grid_point, tasks))


def relative_error_table(records) -> dict:
    """Mean absolute relative error per estimator across the given records."""
    if not records:
        raise ValueError("records must be nonempty")
    table = {}
    for name in sorted({name for rec in records for name in rec.rel_errors}):
        errs = [abs(rec.rel_errors[name]) for rec in records if name in rec.rel_errors]
        table[name] = float(np.mean(errs))
    return table


def _columns(records) -> tuple[list[str], list[str], list[str], list[str]]:
    param_cols: list[str] = []
    est_cols: list[str] = []
    meta_cols: list[str] = []
    for rec in records:
        for key in rec.params:
            if key not in param_cols:
                param_cols.append(key)
        for key in sorted(rec.estimates):
            if key not in est_cols:
                est_cols.append(key)
        for key in sorted(rec.meta):
            if key not in meta_cols:
                meta_cols.append(key)
    header = (
        ["kind"]
        + param_cols
        + ["sim_mean", "sim_std"]
        + [f"est_{c}" for c in est_cols]
        + [f"relerr_{c}" for c in est_cols]
        + meta_cols
    )
    return header, param_cols, est_cols, meta_cols


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip text, plain Python repr
    return str(value)


def records_to_csv(records) -> str:
    """Render records as CSV; identical records give byte-identical text."""
    header, param_cols, est_cols, meta_cols = _columns(records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        row = [rec.kind.value]
        row += [_format(rec.params.get(c)) for c in param_cols]
        row += [_format(rec.sim_mean), _format(rec.sim_std)]
        row += [_format(rec.estimates.get(c)) for c in est_cols]
        row += [_format(rec.rel_errors.get(c)) for c in est_cols]
        row += [_format(rec.meta.get(c)) for c in meta_cols]
        writer.writerow(row)
    return buf.getvalue()


def records_to_json(records) -> str:
    """JSON mirror of the CSV schema: each record's fields in order, its kind
    by value."""
    return json.dumps([{**asdict(rec), "kind": rec.kind.value} for rec in records], indent=2)
