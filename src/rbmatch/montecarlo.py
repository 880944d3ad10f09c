"""Seeded, reproducible experiment harness: parameter sweeps, replication,
exact-solver ground truth, and estimator comparison records."""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .assignment import solve_dense
from .estimators import (
    balanced_estimate,
    baseline_estimate,
    closed_unbalanced_estimate,
    closed_unbalanced_estimates,
    dispatch_estimate,
    recursive_estimates,
    step_length_correction,
)
from .exact1d import match_costs_1d, optimal_match_1d
from .network import (
    NetworkInstance,
    NetworkModel,
    _cost_matrix,
    build_regular_network,
    exact_network_match,
    network_estimate,
    regular_edges,
    sample_instance,
)
from .types import EdgeParams, Instance1D, _store, check_count

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
    """Fixed integer point counts 1 <= m <= n on the unit segment, stored as ints."""

    m: int
    n: int

    def __post_init__(self):
        try:
            m = check_count("m", self.m, least=1)
            n = check_count("n", self.n, least=m)
        except ValueError as exc:
            raise _point_error(self, exc) from None
        _store(self, m=m, n=n)


@dataclass(frozen=True)
class EdgePoint:
    """Densities on a line of the given length, stored as floats; ``params``,
    built once, is their ``EdgeParams``, with the counts mu*length, lam*length."""

    mu: float
    lam: float
    length: float
    params: EdgeParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            params = EdgeParams(self.mu, self.lam, self.length)
        except ValueError as exc:
            raise _point_error(self, exc) from None
        _store(self, mu=params.mu, lam=params.lam, length=params.length, params=params)


@dataclass(frozen=True)
class NetworkPoint:
    """A D-regular network sweep point with per-edge Poisson densities.

    The network estimate's local part needs whole per-edge counts mu*length
    and lam*length. With lam < mu almost every realization has more demand
    than supply, and the harness would redraw it forever. The layout
    (degree, edge_count) must be one ``regular_edges`` can build. The
    estimate's d2 sums 10 search layers, exact at every valid point.
    ``params``, built once, is its ``EdgeParams``; every field is a plain int or float.
    """

    degree: int
    mu: float
    lam: float
    length: float
    edge_count: int
    params: EdgeParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            regular_edges(self.degree, self.edge_count)  # both are integers from here on
            params = EdgeParams(self.mu, self.lam, self.length)
        except ValueError as exc:
            raise _point_error(self, exc) from None
        _store(self, degree=int(self.degree), edge_count=int(self.edge_count), params=params)
        _store(self, mu=params.mu, lam=params.lam, length=params.length)


def _point_error(point, reason) -> ValueError:
    return ValueError(f"invalid grid point {point!r}: {reason}")


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
    grid is any iterable of the kind's points, stored as a tuple. The
    replication and worker counts are counts of at least 1 and the master
    seed one of at least 0, each stored as an int.
    """

    kind: ExperimentKind
    grid: tuple
    replications: int = 100
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, ExperimentKind):
            raise ValueError(f"kind must be an ExperimentKind, got {self.kind!r}")
        _store(self, grid=tuple(self.grid))
        if not self.grid:
            raise ValueError("grid must be nonempty")
        expected = _POINT_TYPES[self.kind]
        if not all(isinstance(p, expected) for p in self.grid):
            raise ValueError(f"{self.kind.value} grid entries must be {expected.__name__}")
        for name, least in (("replications", 1), ("workers", 1), ("master_seed", 0)):
            _store(self, **{name: check_count(name, getattr(self, name), least)})


@dataclass(frozen=True)
class SummaryRecord:
    """One grid point's simulated mean/std and every estimator's value.

    ``rel_errors[name] = (estimates[name] - sim_mean) / sim_mean``, derived when
    built (``dataclasses.replace`` recomputes it) and empty if sim_mean <= 0.
    """

    kind: ExperimentKind
    params: dict
    sim_mean: float
    sim_std: float
    estimates: dict
    rel_errors: dict = field(init=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        mean = self.sim_mean
        rel_errors = {name: (v - mean) / mean for name, v in self.estimates.items() if mean > 0}
        _store(self, rel_errors=rel_errors)


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
    with g = grid_indices[i] and r = rep_indices[j], word for word. Every
    stream starts from the pool of numpy's own ``SeedSequence(master_seed)``.
    Its mix takes one hash step per pool word, 12 for the cross-mix and 4 per
    word past the pool, so the hash constant goes on from
    _INIT_A * _MULT_A**(4 * max(4, words)) for the seed's count of 32-bit
    words. Only the g and r words are then hashed, as uint32 arrays, g over G
    entries and r over G*R, before numpy's output stage. Each index must lie
    in [0, 2**32), so that it is a single entropy word.
    """
    spawn = []
    for name, indices in (("grid index", grid_indices), ("replication", rep_indices)):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and not (indices.min() >= 0 and indices.max() <= _MASK32):
            raise ValueError(f"every {name} must lie in [0, 2**32)")
        spawn.append(indices.astype(np.uint32))
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    words = -(-master_seed.bit_length() // 32)
    const = [_INIT_A * pow(_MULT_A, 4 * max(_POOL_SIZE, words), 1 << 32) & _MASK32]
    grid_word, rep_word = spawn
    for word in (grid_word[:, None], rep_word[None, :]):
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
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
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
    """Counts m <= n and length of a segment, edge or network point."""
    if kind is ExperimentKind.SEGMENT:
        return point.m, point.n, 1.0
    return point.params.m, point.params.n, point.length


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
    if not abs(means[0] - reference) <= _REFERENCE_RTOL * abs(reference):
        raise RuntimeError(
            f"grid point {point!r}: mean {means[0]!r} of replication 0 "
            f"differs from optimal_match_1d's {reference!r}"
        )
    return means


def _network_means(
    point: NetworkPoint, net: NetworkModel, states: np.ndarray
) -> tuple[np.ndarray, int]:
    """Mean matching distance of every replication of a network point on its
    layout ``net``, and the redraws they took in all.

    Each replication draws from its own stream, built from its row of
    ``states``. Realizations with no demand or more demand than supply are
    redrawn from the same stream; a valid point (lam >= mu > 0) accepts a
    draw with positive odds. Every replication is solved by the compiled
    kernel behind ``exact_network_match``; replication 0's assignment is
    certified optimal by ``solve_dense``.
    """
    means = np.empty(len(states))
    resampled = 0
    for rep, words in enumerate(states):
        rng = _rep_stream(words)
        inst = sample_instance(net, point.mu, point.lam, rng)
        while not 0 < inst.total_demand <= inst.total_supply:
            resampled += 1
            inst = sample_instance(net, point.mu, point.lam, rng)
        if rep == 0:
            means[rep] = _checked_network_mean(point, inst)
        else:
            means[rep] = exact_network_match(inst).mean_distance
    return means, resampled


def _checked_network_mean(point: NetworkPoint, inst: NetworkInstance) -> float:
    """The kernel's mean matching distance of ``inst``, once ``solve_dense``
    certifies the kernel's assignment optimal on the same cost matrix, built
    once and released on return. A start that fails the certificate stops
    the sweep with a RuntimeError naming the point and ``solve_dense``: no
    second solver is tried."""
    costs = _cost_matrix(inst)
    match = exact_network_match(inst, costs=costs)
    try:
        solve_dense(costs, start=match.pairs[:, 1])
    except ValueError as err:
        raise RuntimeError(f"grid point {point!r}: replication 0: solve_dense: {err}") from err
    return match.mean_distance


def _layouts(kind: ExperimentKind, grid) -> list:
    """Each grid point's network, built once per distinct (degree,
    edge_count, length) of a network grid; None for every other point."""
    if kind is not ExperimentKind.NETWORK:
        return [None] * len(grid)
    keys = [(point.degree, point.edge_count, point.length) for point in grid]
    built = {key: build_regular_network(*key) for key in dict.fromkeys(keys)}
    return [built[key] for key in keys]


def _sweep_estimates(kind: ExperimentKind, grid) -> list[tuple[dict, dict]]:
    """Every grid point's estimator values and extra metadata, in grid order.

    Unbalanced points of every kind share one ``recursive_estimates`` pass
    per (m, length); unbalanced segment points also share one
    ``closed_unbalanced_estimates`` pass per m. Each value equals the
    single-point call's bit for bit.
    """
    shapes = [_shape(kind, point) for point in grid]
    groups: dict[tuple[int, float], list[int]] = {}
    for m, n, length in shapes:
        if n > m:
            groups.setdefault((m, length), []).append(n)
    shared = {}
    for (m, length), ns in groups.items():
        rec = recursive_estimates(m, ns, length)
        closed = closed_unbalanced_estimates(m, ns) if kind is ExperimentKind.SEGMENT else {}
        shared.update(((m, n, length), (rec[n], closed.get(n))) for n in ns)
    return [_point_estimates(kind, p, key, shared.get(key)) for p, key in zip(grid, shapes)]


def _point_estimates(kind: ExperimentKind, point, shape, shared) -> tuple[dict, dict]:
    """Estimator values for one grid point of shape (m, n, length), plus
    extra metadata fields; ``shared`` is an unbalanced point's pair from the
    sweep passes: its uncorrected recursive value and, for a segment point,
    its uncorrected closed form."""
    m, n, length = shape
    rec, closed = shared or (None, None)
    # the within-segment value: balanced at n = m, else recursive_estimate's subtraction
    value = balanced_estimate(n, length) if n == m else rec - step_length_correction(m, n, length)
    if kind is ExperimentKind.SEGMENT:
        out = {"baseline": baseline_estimate(m, n)}
        if n == m:
            out["balanced"] = value
        else:
            out["closed"] = closed_unbalanced_estimate(m, n, uncorrected=closed)
            out["closed_uncorrected"] = closed
            out["recursive"] = value
            out["recursive_uncorrected"] = rec
        return out, {}
    out = {"edge": value, "dispatch": dispatch_estimate(point.params, value)}
    if kind is ExperimentKind.EDGE:
        return out, {}
    parts = network_estimate(point.degree, point.params, value)
    out["network"] = parts.total
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


def _simulate(args) -> tuple[np.ndarray, dict]:
    """One grid point's task: the means of its replications, drawn from its
    rows of seed words (and, for a network point, on its layout), and the
    metadata of the draws, ``{"resampled": k}`` for a network point."""
    kind, point, states, net = args
    if kind is ExperimentKind.NETWORK:
        means, resampled = _network_means(point, net, states)
        return means, {"resampled": resampled}
    return _segment_means(kind, point, states), {}


def _moments(block: np.ndarray) -> tuple[list[float], list[float]]:
    """Row means and stds (ddof=1) of a C-contiguous (G, R) block of replication
    means, as floats, every std 0.0 at R = 1. Along the last, contiguous axis each
    equals its row's own numpy call bit for bit, which a middle axis need not."""
    mean = block.mean(axis=1).tolist()
    if block.shape[1] == 1:  # numpy would warn and give NaN
        return mean, [0.0] * len(mean)
    return mean, block.std(axis=1, ddof=1).tolist()


def run_experiment(cfg: ExperimentConfig) -> list[SummaryRecord]:
    """Simulate every grid point and attach all applicable estimator values.

    The estimates depend on the point alone and are computed first, once per
    sweep, and so are the networks of a network grid, one per distinct
    layout. Each point's task gets only the point, its seed words, which
    depend on (master_seed, g, r) alone, and its network if it has one, and
    returns its replication means;
    moments, relative errors and records are made here, in grid order, so
    values are identical for any worker count.
    """
    kind = cfg.kind
    estimates = _sweep_estimates(kind, cfg.grid)
    layouts = _layouts(kind, cfg.grid)
    grid_indices, rep_indices = np.arange(len(cfg.grid)), np.arange(cfg.replications)
    states = _stream_states(cfg.master_seed, grid_indices, rep_indices)
    tasks = [(kind, *task) for task in zip(cfg.grid, states, layouts)]
    if cfg.workers == 1 or len(tasks) == 1:
        results = [_simulate(t) for t in tasks]
    else:
        # imported here: loading multiprocessing costs import time on every run
        from concurrent.futures import ProcessPoolExecutor

        # at most one worker per task: the executor starts all of its workers at once
        workers = min(cfg.workers, len(tasks))
        with ProcessPoolExecutor(workers) as pool:  # about four chunks per worker
            results = list(pool.map(_simulate, tasks, chunksize=-(-len(tasks) // (4 * workers))))
    sim_means, sim_stds = _moments(np.stack([means for means, _ in results]))
    records = []
    for gi, point in enumerate(cfg.grid):
        (values, extra), mean = estimates[gi], sim_means[gi]
        meta = {"replications": cfg.replications, **extra, **results[gi][1]}
        params = _point_params(kind, point)
        records.append(SummaryRecord(kind, params, mean, sim_stds[gi], values, meta))
    return records


def relative_error_table(records) -> dict:
    """Mean absolute relative error per estimator across the given records."""
    if not records:
        raise ValueError("records must be nonempty")
    table = {}
    for name in sorted({name for rec in records for name in rec.rel_errors}):
        errs = [abs(rec.rel_errors[name]) for rec in records if name in rec.rel_errors]
        table[name] = float(np.mean(errs))
    return table


def _columns(records) -> tuple[list[str], list[str], list[str]]:
    """The column rule of every table: the param, estimator and meta names
    of ``records``, params in order of first appearance, the others sorted."""
    params = list(dict.fromkeys(key for rec in records for key in rec.params))
    estimates = sorted({key for rec in records for key in rec.estimates})
    meta = sorted({key for rec in records for key in rec.meta})
    return params, estimates, meta


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip text, plain Python repr
    return str(value)


def records_to_csv(records) -> str:
    """Render records as CSV; identical records give byte-identical text."""
    param_cols, est_cols, meta_cols = _columns(records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["kind", *param_cols, "sim_mean", "sim_std"]
        + [f"est_{c}" for c in est_cols]
        + [f"relerr_{c}" for c in est_cols]
        + meta_cols
    )
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
