"""Seeded, reproducible experiment harness: parameter sweeps, replication,
exact-solver ground truth, and estimator comparison records."""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .estimators import (
    balanced_estimate,
    baseline_estimate,
    closed_unbalanced_estimate,
    dispatch_estimate,
    edge_estimate,
    recursive_estimates,
    step_length_correction,
)
from .exact1d import match_costs_1d, optimal_match_1d
from .network import (
    build_regular_network,
    exact_network_match,
    network_estimate,
    regular_edges,
    sample_instance,
)
from .types import EdgeParams, Instance1D, check_sorted_coordinates

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


# relative tolerance between the batched and the reference mean of replication 0
_REFERENCE_RTOL = 1e-12


class ExperimentKind(Enum):
    SEGMENT = "segment"
    EDGE = "edge"
    NETWORK = "network"


@dataclass(frozen=True)
class SegmentPoint:
    """Fixed point counts m <= n on the unit segment."""

    m: int
    n: int

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise _point_error(self, "requires 1 <= m <= n")


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
    (degree, edge_count) must be one ``regular_edges`` can build.
    """

    degree: int
    mu: float
    lam: float
    length: float
    edge_count: int
    kappa: int = 10

    def __post_init__(self):
        try:
            regular_edges(self.degree, self.edge_count)
        except ValueError as exc:
            raise _point_error(self, exc) from None
        _check_counts(self)


def _point_error(point, reason) -> ValueError:
    return ValueError(f"invalid grid point {point!r}: {reason}")


def _check_counts(point) -> None:
    """Densities and length must be valid and give whole point counts >= 1."""
    try:
        EdgeParams(point.mu, point.lam, point.length).counts()
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
    (master_seed, g, r), so outputs are identical for any worker count.
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


def _rep_rng(master_seed: int, grid_index: int, rep: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(grid_index, rep))
    return np.random.default_rng(seq)


def _shape(kind: ExperimentKind, point) -> tuple[int, int, float]:
    """Counts m <= n and length of a segment or edge point."""
    if kind is ExperimentKind.SEGMENT:
        return point.m, point.n, 1.0
    m, n = EdgeParams(point.mu, point.lam, point.length).counts()
    return m, n, point.length


def _segment_means(kind: ExperimentKind, point, replications, master_seed, grid_index):
    """Mean matching distance of every replication of a segment or edge point.

    Each replication draws demand, then supply, from its own stream; the
    sorted draws are stacked and solved in one ``match_costs_1d`` call.
    Replication 0 is solved again by ``optimal_match_1d`` as a check on the
    batched kernel.
    """
    m, n, length = _shape(kind, point)
    demand = np.empty((replications, m))
    supply = np.empty((replications, n))
    for rep in range(replications):
        rng = _rep_rng(master_seed, grid_index, rep)
        demand[rep] = rng.uniform(0, length, m)
        supply[rep] = rng.uniform(0, length, n)
    demand.sort(axis=1)
    supply.sort(axis=1)
    check_sorted_coordinates("demand", demand, length)
    check_sorted_coordinates("supply", supply, length)
    means = match_costs_1d(demand, supply) / m
    reference = optimal_match_1d(Instance1D(demand[0], supply[0], length)).mean_distance
    if not abs(means[0] - reference) <= _REFERENCE_RTOL * abs(reference):
        raise RuntimeError(
            f"grid point {point!r}: batched mean {means[0]!r} of replication 0 "
            f"differs from optimal_match_1d's {reference!r}"
        )
    return means


def _simulate_rep(point, net, rng) -> tuple[float, int]:
    """One network replication: its mean distance and the redraws it took.

    Realizations with no demand or more demand than supply are redrawn; a
    valid point (lam >= mu > 0) accepts a draw with positive odds.
    """
    resamples = 0
    while True:
        inst = sample_instance(net, point.mu, point.lam, rng)
        if 0 < inst.total_demand <= inst.total_supply:
            break
        resamples += 1
    return exact_network_match(net, inst).mean_distance, resamples


def _sweep_estimates(kind: ExperimentKind, grid) -> list[tuple[dict, dict]]:
    """Every grid point's estimator values and extra metadata, in grid order.

    Unbalanced segment and edge points share one ``recursive_estimates``
    pass per (m, length), whose value for each n equals
    ``recursive_estimate``'s bit for bit.
    """
    recursive = {}
    if kind is not ExperimentKind.NETWORK:
        groups: dict[tuple[int, float], list[int]] = {}
        for point in grid:
            m, n, length = _shape(kind, point)
            if n > m:
                groups.setdefault((m, length), []).append(n)
        for (m, length), ns in groups.items():
            for n, value in recursive_estimates(m, ns, length).items():
                recursive[m, n, length] = value
    return [_point_estimates(kind, point, recursive) for point in grid]


def _point_estimates(kind: ExperimentKind, point, recursive: dict) -> tuple[dict, dict]:
    """Estimator values for one grid point, plus extra metadata fields;
    ``recursive`` maps (m, n, length) to the uncorrected recursive value."""
    if kind is ExperimentKind.SEGMENT:
        m, n = point.m, point.n
        out = {"baseline": baseline_estimate(m, n).value}
        if n == m:
            out["balanced"] = balanced_estimate(n).value
        else:
            # one closed-form sum and one recursion value serve two columns
            # each; this is the subtraction both estimators apply when correcting
            closed = closed_unbalanced_estimate(m, n, apply_correction=False).value
            rec = recursive[m, n, 1.0]
            correction = step_length_correction(m, n)
            out["closed"] = closed - correction
            out["closed_uncorrected"] = closed
            out["recursive"] = rec - correction
            out["recursive_uncorrected"] = rec
        return out, {}
    params = EdgeParams(point.mu, point.lam, point.length)
    if kind is ExperimentKind.EDGE:
        edge = edge_estimate(params, recursive.get(_shape(kind, point))).value
        return {"edge": edge, "dispatch": dispatch_estimate(params, edge).value}, {}
    # the network estimate's local part is the edge estimate
    parts = network_estimate(point.degree, point.mu, point.lam, point.length, point.kappa)
    dispatch = dispatch_estimate(params, parts.local).value
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
    kind, point, replications, master_seed, grid_index, (estimates, extra_meta) = args
    if kind is ExperimentKind.NETWORK:
        net = build_regular_network(point.degree, point.edge_count, point.length)
        means = np.empty(replications)
        resampled = 0
        for rep in range(replications):
            rng = _rep_rng(master_seed, grid_index, rep)
            means[rep], extra = _simulate_rep(point, net, rng)
            resampled += extra
    else:
        means = _segment_means(kind, point, replications, master_seed, grid_index)
    sim_mean = float(means.mean())
    sim_std = float(means.std(ddof=1)) if replications > 1 else 0.0
    estimates = {name: float(value) for name, value in estimates.items()}
    rel_errors = {
        name: (value - sim_mean) / sim_mean
        for name, value in estimates.items()
        if sim_mean > 0
    }
    meta = {"replications": replications, **extra_meta}
    if kind is ExperimentKind.NETWORK:
        meta["resampled"] = resampled
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

    Estimates depend on the grid point alone: they are computed here, once
    per sweep, and travel with each point's task. Output order follows the
    grid; values are identical for any worker count.
    """
    estimates = _sweep_estimates(cfg.kind, cfg.grid)
    tasks = [
        (cfg.kind, point, cfg.replications, cfg.master_seed, gi, estimates[gi])
        for gi, point in enumerate(cfg.grid)
    ]
    if cfg.workers == 1 or len(tasks) == 1:
        return [_run_grid_point(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(_run_grid_point, tasks))


def relative_error_table(records, names=None) -> dict:
    """Mean absolute relative error per estimator across the given records."""
    if not records:
        raise ValueError("records must be nonempty")
    if names is None:
        names = sorted({name for rec in records for name in rec.rel_errors})
    table = {}
    for name in names:
        errs = [abs(rec.rel_errors[name]) for rec in records if name in rec.rel_errors]
        if errs:
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
    """JSON mirror of the CSV schema."""
    out = []
    for rec in records:
        out.append(
            {
                "kind": rec.kind.value,
                "params": rec.params,
                "sim_mean": rec.sim_mean,
                "sim_std": rec.sim_std,
                "estimates": rec.estimates,
                "rel_errors": rec.rel_errors,
                "meta": rec.meta,
            }
        )
    return json.dumps(out, indent=2)
