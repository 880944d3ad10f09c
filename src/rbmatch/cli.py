"""Command-line front end: one-off estimates, seeded simulation sweeps, and
preset comparison tables."""

from __future__ import annotations

import argparse
import os
import sys

from .estimators import (
    balanced_estimate,
    baseline_estimate,
    closed_unbalanced_estimate,
    dispatch_estimate,
    recursive_estimate,
)
from .montecarlo import (
    EdgePoint,
    ExperimentConfig,
    ExperimentKind,
    NetworkPoint,
    SegmentPoint,
    records_to_csv,
    records_to_json,
    run_experiment,
)
from .network import network_estimate
from .types import EdgeParams

USAGE_ERROR = 2


def _workers(args, parser) -> int:
    env = os.environ.get("RBMP_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            parser.error(f"RBMP_WORKERS must be an integer, got {env!r}")
    return max(1, args.workers)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbmatch",
        description="Expected-distance estimators and seeded simulations for "
        "random bipartite matching on segments and regular networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="print estimator values for one setting")
    target = est.add_mutually_exclusive_group(required=True)
    target.add_argument("--segment", nargs=2, type=int, metavar=("M", "N"))
    target.add_argument("--edge", nargs=3, type=float, metavar=("MU", "LAM", "L"))
    target.add_argument("--network", nargs=4, type=float, metavar=("D", "MU", "LAM", "L"))
    est.add_argument(
        "--method",
        choices=["balanced", "closed", "recursive", "baseline", "dispatch", "all"],
        help="segment estimator to use (default: the most accurate applicable)",
    )
    est.add_argument("--no-correction", action="store_true")
    est.add_argument("--kappa", type=int, default=10, help="search-layer truncation")

    sim = sub.add_parser("simulate", help="run a seeded simulation sweep")
    sim.add_argument("kind", choices=["segment", "edge", "network"])
    sim.add_argument("--m", type=_int_list, help="demand counts (segment)")
    sim.add_argument("--n", type=_int_list, help="supply counts (segment)")
    sim.add_argument("--mu", type=_float_list, help="demand densities")
    sim.add_argument("--lam", type=_float_list, help="supply densities")
    sim.add_argument("--length", type=_float_list, default=[1.0], help="edge lengths")
    sim.add_argument("--degree", type=_int_list, help="node degrees (network)")
    sim.add_argument("--edges", type=int, default=36, help="edge count (network)")
    sim.add_argument("--kappa", type=int, default=10)
    _common_run_flags(sim)

    cmp_ = sub.add_parser("compare", help="reproduce a named figure sweep")
    cmp_.add_argument(
        "--preset",
        required=True,
        choices=["fig4a", "fig4b", "fig4c", "fig4d", "fig5", "fig6"],
    )
    _common_run_flags(cmp_)
    return parser


def _common_run_flags(sub) -> None:
    sub.add_argument("--reps", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--out", help="write machine-readable output to this path")
    sub.add_argument("--format", choices=["csv", "json"], default="csv")


def _print_estimate(label: str, value: float, corrected: bool | None = None) -> None:
    suffix = "" if corrected is None else f" corrected={str(corrected).lower()}"
    print(f"method={label}{suffix} value={value:.10g}")


def cmd_estimate(args, parser) -> int:
    corrected = not args.no_correction
    if args.segment is not None:
        m, n = args.segment
        if not 1 <= m <= n:
            parser.error("--segment requires 1 <= M <= N")
        method = args.method or ("balanced" if m == n else "recursive")
        if method in ("balanced", "all") and m == n:
            _print_estimate("balanced", balanced_estimate(n).value)
        if m < n:
            if method in ("closed", "all"):
                est = closed_unbalanced_estimate(m, n, apply_correction=corrected)
                _print_estimate("closed", est.value, est.corrected)
            if method in ("recursive", "all"):
                est = recursive_estimate(m, n, apply_correction=corrected)
                _print_estimate("recursive", est.value, est.corrected)
        elif method in ("closed", "recursive"):
            parser.error(f"--method {method} requires M < N")
        if method in ("baseline", "all"):
            _print_estimate("baseline", baseline_estimate(m, n).value)
        if method == "dispatch":
            parser.error("--method dispatch applies to --edge")
        return 0
    if args.edge is not None:
        mu, lam, length = args.edge
        try:
            est = dispatch_estimate(EdgeParams(mu=mu, lam=lam, length=length))
        except ValueError as exc:
            parser.error(str(exc))
        _print_estimate("edge", est.value, est.corrected)
        return 0
    degree, mu, lam, length = args.network
    if degree != int(degree):
        parser.error("--network degree must be an integer")
    try:
        parts = network_estimate(int(degree), mu, lam, length, kappa=args.kappa)
    except ValueError as exc:
        parser.error(str(exc))
    _print_estimate("network", parts.total)
    print(
        f"  alpha={parts.alpha:.6g} local={parts.local:.6g} "
        f"d1={parts.d1:.6g} d2={parts.d2:.6g} d3={parts.d3:.6g}"
    )
    return 0


def _simulate_config(args, parser) -> ExperimentConfig:
    """The sweep named by the simulate flags; grid points and the config
    raise ValueError on invalid values."""
    if args.kind == "segment":
        if not args.m or not args.n:
            parser.error("segment grids need --m and --n")
        kind = ExperimentKind.SEGMENT
        grid = [SegmentPoint(m=m, n=n) for m in args.m for n in args.n]
    elif args.kind == "edge":
        if not args.mu or not args.lam:
            parser.error("edge grids need --mu and --lam")
        kind = ExperimentKind.EDGE
        grid = [
            EdgePoint(mu=mu, lam=lam, length=ln)
            for mu in args.mu
            for lam in args.lam
            for ln in args.length
        ]
    else:
        if not args.degree or not args.mu or not args.lam:
            parser.error("network grids need --degree, --mu and --lam")
        kind = ExperimentKind.NETWORK
        grid = [
            NetworkPoint(
                degree=d, mu=mu, lam=lam, length=ln, edge_count=args.edges, kappa=args.kappa
            )
            for d in args.degree
            for mu in args.mu
            for lam in args.lam
            for ln in args.length
        ]
    return ExperimentConfig(
        kind=kind,
        grid=tuple(grid),
        replications=args.reps,
        master_seed=args.seed,
        workers=_workers(args, parser),
    )


def cmd_simulate(args, parser) -> int:
    try:
        cfg = _simulate_config(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
    return _run_and_emit(cfg, args)


_FIG4_SWEEPS = {"fig4b": 50, "fig4c": 100, "fig4d": 200}


def _preset_config(preset: str, reps: int, seed: int, workers: int) -> ExperimentConfig:
    if preset == "fig4a":
        grid = tuple(SegmentPoint(m=n, n=n) for n in range(1, 201))
        return ExperimentConfig(ExperimentKind.SEGMENT, grid, reps, seed, workers)
    if preset in _FIG4_SWEEPS:
        m = _FIG4_SWEEPS[preset]
        grid = tuple(SegmentPoint(m=m, n=n) for n in range(m + 1, 2 * m + 101, 10))
        return ExperimentConfig(ExperimentKind.SEGMENT, grid, reps, seed, workers)
    if preset == "fig5":
        grid = tuple(
            EdgePoint(mu=10.0, lam=lam, length=float(ln))
            for lam in (10.0, 11.0, 15.0, 30.0)
            for ln in (1, 3, 5, 7, 9)
        )
        return ExperimentConfig(ExperimentKind.EDGE, grid, reps, seed, workers)
    grid = tuple(
        NetworkPoint(degree=d, mu=5.0, lam=float(lam), length=1.0, edge_count=36)
        for d in (3, 4, 6)
        for lam in (5, 10, 15, 20, 25)
    )
    return ExperimentConfig(ExperimentKind.NETWORK, grid, reps, seed, workers)


def cmd_compare(args, parser) -> int:
    try:
        cfg = _preset_config(args.preset, args.reps, args.seed, _workers(args, parser))
    except ValueError as exc:
        parser.error(str(exc))
    return _run_and_emit(cfg, args)


def _run_and_emit(cfg: ExperimentConfig, args) -> int:
    records = run_experiment(cfg)
    _print_table(records)
    if args.out:
        text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _print_table(records) -> None:
    param_keys = list(records[0].params)
    est_keys = sorted({k for rec in records for k in rec.estimates})
    header = param_keys + ["sim_mean", "sim_std"] + est_keys
    print("  ".join(f"{h:>12}" for h in header))
    for rec in records:
        cells = [rec.params[k] for k in param_keys]
        cells += [f"{rec.sim_mean:.6f}", f"{rec.sim_std:.6f}"]
        cells += [
            f"{rec.estimates[k]:.6f}" if k in rec.estimates else "" for k in est_keys
        ]
        print("  ".join(f"{str(c):>12}" for c in cells))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return cmd_estimate(args, parser)
        if args.command == "simulate":
            return cmd_simulate(args, parser)
        return cmd_compare(args, parser)
    except SystemExit:
        raise
    except Exception as exc:  # internal failure, distinct from usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
