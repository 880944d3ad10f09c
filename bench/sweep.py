"""One sweep in a fresh interpreter: import rbmatch, build the config, run it.

Reads a JSON request on stdin and prints one JSON result line on stdout:

    {"root": checkout, "kind": ..., "points": [...], "reps": R, "workers": W,
     "seed": master_seed, "setup_only": bool, "spans": path or null}

``ready`` in the result is the ``time.perf_counter()`` reading (a system-wide
monotonic clock on Linux) taken once rbmatch is imported and the config
built; the parent subtracts its own reading from before the spawn to get the
set-up time. An exception from ``run_experiment`` is reported, not raised.

``cal_s`` is the mean wall time of a fixed calibration kernel run just before
and just after the sweep, in the same process. On a shared cloud host the CPU
speed can swing by up to 2x over seconds to minutes as other tenants load the
same cores (seen on a 2-vCPU Intel Xeon KVM guest); the kernel slows with the
sweep, and the parent divides by it to get host-normalized times.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _rusage_cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children holds the largest reaped child
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def calibrate() -> float:
    """Wall time of a fixed kernel that does not touch rbmatch: small-array
    numpy calls and a plain Python loop, the two kinds of work rbmatch's
    kernels are made of, mixed so that the kernel slows about as much as the
    sweeps do. About 0.1 s on a 2-vCPU Intel Xeon KVM guest."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 64)
    x = a
    total = 0
    start = time.perf_counter()
    for _ in range(15_000):
        x = np.abs(a - x[::-1]) + 0.5
    for i in range(900_000):
        total += i * i % 7
    return time.perf_counter() - start


def build_config(request):
    from rbmatch import ExperimentConfig, ExperimentKind, NetworkPoint, SegmentPoint

    if request["kind"] == "segment":
        kind = ExperimentKind.SEGMENT
        grid = tuple(SegmentPoint(m=m, n=n) for m, n in request["points"])
    else:
        kind = ExperimentKind.NETWORK
        grid = tuple(
            NetworkPoint(degree=d, mu=mu, lam=lam, length=length, edge_count=edges)
            for d, mu, lam, length, edges in request["points"]
        )
    return ExperimentConfig(
        kind=kind,
        grid=grid,
        replications=request["reps"],
        master_seed=request["seed"],
        workers=request["workers"],
    )


def main() -> int:
    request = json.loads(sys.stdin.read())
    src = os.path.join(request["root"], "src")
    sys.path.insert(0, src)
    import rbmatch

    if not os.path.abspath(rbmatch.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"rbmatch imported from {rbmatch.__file__}, not {src}", file=sys.stderr)
        return 2
    from rbmatch import records_to_csv, records_to_json

    cfg = build_config(request)
    result = {"ready": time.perf_counter()}
    if not request["setup_only"]:
        tracer = None
        if request["spans"]:
            from tracer import Tracer  # bench/ is sys.path[0] when run as a script

            tracer = Tracer()
        cal_before = calibrate()
        cpu0 = _rusage_cpu()
        start = time.perf_counter()
        try:
            # looked up at call time, so the tracer's wrapper is the one called
            if tracer is None:
                records = rbmatch.run_experiment(cfg)
            else:
                with tracer:
                    records = rbmatch.run_experiment(cfg)
        except Exception as exc:  # the parent counts every grid point as failed
            result["error"] = f"{type(exc).__name__}: {exc}"
        else:
            result["wall_s"] = time.perf_counter() - start
            result["cpu_s"] = _rusage_cpu() - cpu0
            result["cal_s"] = (cal_before + calibrate()) / 2.0
            result["csv"] = records_to_csv(records)
            result["records"] = json.loads(records_to_json(records))
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            tracer.write(request["spans"])
            result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
