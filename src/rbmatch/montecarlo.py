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
    recursive_estimate,
    step_length_correction,
)
from .exact1d import optimal_match_1d
from .network import (
    SUPPORTED_DEGREES,
    build_regular_network,
    exact_network_match,
    network_estimate,
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
    than supply, and the harness would redraw it forever.
    """

    degree: int
    mu: float
    lam: float
    length: float
    edge_count: int
    kappa: int = 10

    def __post_init__(self):
        if self.degree not in SUPPORTED_DEGREES:
            raise _point_error(self, f"degree must be one of {SUPPORTED_DEGREES}")
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


def _simulate_rep(kind: ExperimentKind, point, net, rng) -> tuple[float, int]:
    if kind is ExperimentKind.SEGMENT:
        inst = Instance1D(rng.uniform(0, 1, point.m), rng.uniform(0, 1, point.n), 1.0)
        return optimal_match_1d(inst).mean_distance, 0
    if kind is ExperimentKind.EDGE:
        m = round(point.mu * point.length)
        n = round(point.lam * point.length)
        inst = Instance1D(
            rng.uniform(0, point.length, m), rng.uniform(0, point.length, n), point.length
        )
        return optimal_match_1d(inst).mean_distance, 0
    # network: redraw realizations that have no demand or more demand than supply
    resamples = 0
    while True:
        inst = sample_instance(net, point.mu, point.lam, rng)
        if 0 < inst.total_demand <= inst.total_supply:
            break
        resamples += 1
    return exact_network_match(net, inst).mean_distance, resamples


def _estimates_for_point(kind: ExperimentKind, point) -> tuple[dict, dict]:
    """Estimator values for one grid point, plus extra metadata fields."""
    if kind is ExperimentKind.SEGMENT:
        m, n = point.m, point.n
        out = {"baseline": baseline_estimate(m, n).value}
        if n == m:
            out["balanced"] = balanced_estimate(n).value
        else:
            out["closed"] = closed_unbalanced_estimate(m, n).value
            out["closed_uncorrected"] = closed_unbalanced_estimate(
                m, n, apply_correction=False
            ).value
            # one table serves both columns; this is the subtraction
            # recursive_estimate applies when correcting
            rec = recursive_estimate(m, n, apply_correction=False).value
            out["recursive"] = rec - step_length_correction(m, n)
            out["recursive_uncorrected"] = rec
        return out, {}
    if kind is ExperimentKind.EDGE:
        return _edge_estimates(point.mu, point.lam, point.length), {}
    out = _edge_estimates(point.mu, point.lam, point.length)
    parts = network_estimate(point.degree, point.mu, point.lam, point.length, point.kappa)
    out["network"] = parts.total
    return out, {"alpha": parts.alpha}


def _edge_estimates(mu: float, lam: float, length: float) -> dict:
    params = EdgeParams(mu=mu, lam=lam, length=length)
    m, n = params.counts()
    if n == m:
        scaled = balanced_estimate(n, length).value
    else:
        scaled = recursive_estimate(m, n, length).value
    dispatch = dispatch_estimate(params).value
    return {"edge": scaled, "dispatch": dispatch}


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
    kind, point, replications, master_seed, grid_index = args
    net = None
    if kind is ExperimentKind.NETWORK:
        net = build_regular_network(point.degree, point.edge_count, point.length)
    means = np.empty(replications)
    resampled = 0
    for rep in range(replications):
        rng = _rep_rng(master_seed, grid_index, rep)
        means[rep], extra = _simulate_rep(kind, point, net, rng)
        resampled += extra
    sim_mean = float(means.mean())
    sim_std = float(means.std(ddof=1)) if replications > 1 else 0.0
    estimates, extra_meta = _estimates_for_point(kind, point)
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

    Output order follows the grid; values are identical for any worker count.
    """
    tasks = [
        (cfg.kind, point, cfg.replications, cfg.master_seed, gi)
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
