"""Command-line front end: one-off estimates, seeded simulation sweeps, and
preset comparison tables."""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .montecarlo import (
    EdgePoint,
    ExperimentConfig,
    ExperimentKind,
    NetworkPoint,
    SegmentPoint,
    _columns,
    _sweep_estimates,
    records_to_csv,
    records_to_json,
    run_experiment,
)
from .network import network_estimate


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
    est.set_defaults(run=cmd_estimate, parser=est)
    target = est.add_mutually_exclusive_group(required=True)
    target.add_argument("--segment", nargs=2, type=int, metavar=("M", "N"))
    target.add_argument("--edge", nargs=3, type=float, metavar=("MU", "LAM", "L"))
    target.add_argument("--network", nargs=4, type=float, metavar=("D", "MU", "LAM", "L"))

    sim = sub.add_parser("simulate", help="run a seeded simulation sweep")
    # each kind takes its own flags only; no abbreviations, so that another
    # kind's --m is not read as --mu
    kinds = sim.add_subparsers(dest="kind", required=True)
    segment = kinds.add_parser("segment", allow_abbrev=False, help="counts on the unit segment")
    segment.add_argument("--m", type=_int_list, required=True, help="demand counts")
    segment.add_argument("--n", type=_int_list, required=True, help="supply counts")
    edge = kinds.add_parser("edge", allow_abbrev=False, help="densities on one line")
    network = kinds.add_parser("network", allow_abbrev=False, help="densities on a network")
    network.add_argument("--degree", type=_int_list, required=True, help="node degrees")
    for kind in (edge, network):
        kind.add_argument("--mu", type=_float_list, required=True, help="demand densities")
        kind.add_argument("--lam", type=_float_list, required=True, help="supply densities")
        kind.add_argument("--length", type=_float_list, default=[1.0], help="edge lengths")
    network.add_argument("--edges", type=int, default=36, help="edge count")
    for kind in (segment, edge, network):
        _common_run_flags(kind, _simulate_config)

    cmp_ = sub.add_parser("compare", help="reproduce a named figure sweep")
    cmp_.add_argument(
        "--preset",
        required=True,
        choices=["fig4a", "fig4b", "fig4c", "fig4d", "fig5", "fig6"],
    )
    _common_run_flags(cmp_, lambda a: _preset_config(a.preset, a.reps, a.seed, a.workers))
    return parser


def _common_run_flags(sub, config) -> None:
    """The flags of a sweep subcommand, which runs ``config(args)`` through ``cmd_run``."""
    sub.set_defaults(run=cmd_run, parser=sub, config=config)
    sub.add_argument("--reps", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--out", help="records file: JSON for a .json suffix (any case), else CSV")


def cmd_estimate(args) -> int:
    network = args.network
    if network is not None and not network[0].is_integer():  # False for NaN and infinities
        args.parser.error("--network degree must be an integer")
    try:
        if args.segment is not None:
            kind, point = ExperimentKind.SEGMENT, SegmentPoint(*args.segment)
        else:
            kind, point = ExperimentKind.EDGE, EdgePoint(*(args.edge or network[1:]))
    except ValueError as exc:
        args.parser.error(str(exc))
    # the est_* columns that simulate records for this point
    ((estimates, _),) = _sweep_estimates(kind, (point,))
    if network is not None:
        try:
            parts = network_estimate(int(network[0]), point.params, estimates["edge"])
        except ValueError as exc:
            args.parser.error(str(exc))
        estimates["network"] = parts.total
    for name in sorted(estimates):
        print(f"method={name} value={estimates[name]:.10g}")
    if network is not None:
        print(
            f"  alpha={parts.alpha:.6g} local={parts.local:.6g} "
            f"d1={parts.d1:.6g} d2={parts.d2:.6g} d3={parts.d3:.6g}"
        )
    return 0


def _simulate_config(args) -> ExperimentConfig:
    """The sweep named by the simulate flags; grid points and the config
    raise ValueError on invalid values."""
    kind = ExperimentKind(args.kind)
    if kind is ExperimentKind.SEGMENT:
        grid = [SegmentPoint(m=m, n=n) for m in args.m for n in args.n]
    else:
        triples = list(itertools.product(args.mu, args.lam, args.length))
        if kind is ExperimentKind.EDGE:
            grid = [EdgePoint(*triple) for triple in triples]
        else:
            grid = [
                NetworkPoint(d, *triple, edge_count=args.edges)
                for d in args.degree
                for triple in triples
            ]
    return ExperimentConfig(kind, grid, args.reps, args.seed, args.workers)


_FIG4_SWEEPS = {"fig4b": 50, "fig4c": 100, "fig4d": 200}


def _preset_config(preset: str, reps: int, seed: int, workers: int) -> ExperimentConfig:
    if preset == "fig4a":
        kind = ExperimentKind.SEGMENT
        grid = [SegmentPoint(m=n, n=n) for n in range(1, 201)]
    elif preset in _FIG4_SWEEPS:
        m = _FIG4_SWEEPS[preset]
        kind = ExperimentKind.SEGMENT
        grid = [SegmentPoint(m=m, n=n) for n in range(m + 1, 2 * m + 101, 10)]
    elif preset == "fig5":
        kind = ExperimentKind.EDGE
        grid = [
            EdgePoint(mu=10.0, lam=lam, length=float(ln))
            for lam in (10.0, 11.0, 15.0, 30.0)
            for ln in (1, 3, 5, 7, 9)
        ]
    else:
        kind = ExperimentKind.NETWORK
        grid = [
            NetworkPoint(degree=d, mu=5.0, lam=float(lam), length=1.0, edge_count=36)
            for d in (3, 4, 6)
            for lam in (5, 10, 15, 20, 25)
        ]
    return ExperimentConfig(kind, grid, reps, seed, workers)


def _check_out(path: str, parser) -> None:
    """Exit through ``parser.error`` unless ``path`` can be written: an
    existing writable file, or a new file in an existing writable directory.
    Nothing is created."""
    if not path:
        parser.error("--out '': the path is empty")
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        parser.error(f"--out {path}: directory {directory} does not exist")
    target = path if os.path.exists(path) else directory
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        parser.error(f"--out {path}: cannot be written")


def cmd_run(args) -> int:
    """Run the sweep that ``args.config`` builds from the flags, print its
    table and write ``--out`` afterwards, so that a failed run leaves an
    existing file untouched; an invalid config or an ``--out`` that cannot be
    written is rejected before the sweep."""
    try:
        cfg = args.config(args)
    except ValueError as exc:
        args.parser.error(str(exc))
    if args.out is not None:
        _check_out(args.out, args.parser)
    records = run_experiment(cfg)
    _print_table(records)
    if args.out is not None:
        as_json = os.path.splitext(args.out)[1].lower() == ".json"
        text = records_to_json(records) if as_json else records_to_csv(records)
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _print_table(records) -> None:
    params, estimates, _ = _columns(records)
    header = params + ["sim_mean", "sim_std"] + estimates
    print("  ".join(f"{h:>12}" for h in header))
    for rec in records:
        cells = [rec.params[k] for k in params]
        cells += [f"{rec.sim_mean:.6f}", f"{rec.sim_std:.6f}"]
        cells += [f"{rec.estimates[k]:.6f}" if k in rec.estimates else "" for k in estimates]
        print("  ".join(f"{str(c):>12}" for c in cells))


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported with the usage of the subcommand they were given to
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.run(args)
    except SystemExit:
        raise
    except Exception as exc:  # internal failure, distinct from usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
