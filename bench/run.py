"""rbmatch benchmark: preset sweeps timed end to end, layers timed in a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every sweep is one ``run_experiment`` call in
a fresh interpreter that imports rbmatch from ``src/``, and sweeps run one at
a time (a closed loop). Inputs come from the seed: master seed
N % REFERENCE_SEEDS, for which reference records are stored.

``--trace 0`` repeats the workload's sweep on one worker for S seconds (at
least MIN_SWEEPS times) and reports medians over the sweeps:

- norm_wall_s, norm_cpu_s: wall and CPU (process and children) time of the
  ``run_experiment`` call, scaled to a fixed host speed with the calibration
  kernel timed around each sweep (see sweep.py); the raw times are in the
  report line;
- peak_rss_mb: peak RSS of the sweep process plus its largest child;
- setup_s: time for a fresh interpreter to import rbmatch and build the
  config, sampled at least MIN_SETUPS times.

It then runs the sweep once on POOL_WORKERS worker processes, untimed.

``--trace 1`` ignores S: for every workload it runs the sweep once plain, once
traced, and on the pool where the workload reports pool metrics, and prints
the per-layer metrics of every workload, named
"<workload>.<module>.<name>.<measure>".

Every sweep's records must match the reference at 1e-9 relative, and every
CSV must equal the pool sweep's (or, traced, the plain sweep's) byte for
byte; each grid point that does not counts as failed. The last stdout line
is the JSON result; the line before it is a report with provenance, load
averages, the CSV sha256, error_rate and every sample. Each run is appended
to ``.bench_out/runs.jsonl``; the traced run's spans go to
``.bench_out/spans/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import (
    LAYER_GROUPS,
    LAYER_METRICS,
    POOL_WORKERS,
    REFERENCE_SEEDS,
    WORKLOADS,
    unit_of,
)

BENCH_DIR = Path(__file__).resolve().parent
MIN_SWEEPS = 3
MIN_SETUPS = 7
CAL_REF_S = 0.1  # nominal time of the calibration kernel in sweep.py
SWEEP_TIMEOUT_S = 120  # leaves a run inside a 180 s budget


class BenchError(RuntimeError):
    """The program under test could not be run at all."""


def run_sweep(
    root: Path, workload, seed: int, workers=1, spans=None, setup_only=False
) -> dict:
    """Run one sweep in a fresh interpreter and return its result dict.

    Adds ``setup_s``: from just before the spawn to the child's ready mark.
    """
    request = {
        "root": str(root),
        "kind": workload.kind,
        "points": workload.points,
        "reps": workload.reps,
        "workers": workers,
        "seed": seed,
        "setup_only": setup_only,
        "spans": str(spans) if spans else None,
    }
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "sweep.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=root,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the sweep and any pool workers
        proc.communicate()
        raise BenchError(f"sweep did not finish within {SWEEP_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"sweep exited with {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _failures(result: dict, ref: dict, seed: int, other_csv: str | None = None) -> int:
    """Grid points of one sweep that raised or miss the reference, or whose
    CSV row differs from ``other_csv`` (all of them if the headers differ)."""
    points = len(ref["points"])
    if "error" in result:
        return points
    bad = [not ok for ok in reference.check(result["records"], ref, seed)]
    if other_csv is not None:
        rows, other = result["csv"].splitlines(), other_csv.splitlines()
        if len(rows) != len(other) or rows[:1] != other[:1]:
            return points
        bad = [b or x != y for b, x, y in zip(bad, rows[1:], other[1:])]
    return sum(bad)


def _norm(result: dict, key: str) -> float:
    """A sweep's time scaled to a host on which the calibration kernel takes
    CAL_REF_S: seconds at a fixed host speed."""
    return result[key] * CAL_REF_S / result["cal_s"]


def _sample(result: dict) -> dict:
    keys = ("wall_s", "cpu_s", "cal_s", "peak_rss_mb", "setup_s", "error")
    return {k: result[k] for k in keys if k in result}


def measure(root: Path, name: str, seed: int, seconds: float, workloads: dict, ref_dir: Path):
    """End-to-end run: repeat the sweep for ``seconds``; return (result, report)."""
    workload = workloads[name]
    ref = reference.load(workload.records, ref_dir)
    samples, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        samples.append(run_sweep(root, workload, seed))
        durations.append(time.perf_counter() - began)
        # stop before a sweep that would end past the measuring window
        late = time.perf_counter() - start + statistics.median(durations) > seconds
        if len(samples) >= MIN_SWEEPS and late:
            break
    setups = [s["setup_s"] for s in samples]
    while len(setups) < MIN_SETUPS:
        setups.append(run_sweep(root, workload, seed, setup_only=True)["setup_s"])

    # the same sweep once on a pool: its CSV must match byte for byte
    pool = run_sweep(root, workload, seed, workers=POOL_WORKERS)
    setups.append(pool["setup_s"])
    attempted = len(ref["points"]) * (len(samples) + 1)
    failed = _failures(pool, ref, seed)
    failed += sum(_failures(s, ref, seed, pool.get("csv", "")) for s in samples)
    csv = next((s["csv"] for s in samples if "csv" in s), "")
    report = {"pool_csv_identical": all(s.get("csv") == pool.get("csv") for s in samples)}

    timed = [s for s in samples if "wall_s" in s]
    metrics = {}
    if timed:
        metrics = {
            "norm_wall_s": statistics.median(_norm(s, "wall_s") for s in timed),
            "norm_cpu_s": statistics.median(_norm(s, "cpu_s") for s in timed),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        }
        report["wall_s"] = statistics.median(s["wall_s"] for s in timed)
        report["cpu_s"] = statistics.median(s["cpu_s"] for s in timed)
    metrics["setup_s"] = statistics.median(setups)
    units = {"norm_wall_s": "s", "norm_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    report.update(
        {
            "csv_sha256": reference.csv_sha256(csv),
            "reference_sha256_match": reference.csv_sha256(csv)
            == ref["seeds"][str(seed)]["csv_sha256"],
            "error_rate": failed / attempted,
            "samples": [_sample(s) for s in samples],
            "setup_samples_s": setups,
        }
    )
    result = {
        "correct": failed == 0 and len(timed) == len(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def _layer_value(layers: dict, metric: str):
    """One per-layer metric of a traced sweep, or None if its layer made no calls."""
    if metric == "network.sample_accept_ratio":
        draws = layers.get("network.sample_instance", {}).get("calls")
        accepted = layers.get("network.exact_network_match", {}).get("calls")
        return accepted / draws if draws and accepted else None
    layer, measure_name = metric.rsplit(".", 1)
    return layers.get(layer, {}).get(measure_name)


def _split(layers: dict, wall: float) -> dict:
    """Share of the traced wall time in each layer group, by self time."""
    shares = {}
    for group, prefixes in LAYER_GROUPS.items():
        busy = sum(v["self_s"] for k, v in layers.items() if k.startswith(prefixes))
        shares[group] = busy / wall
    return shares


def trace(root: Path, seed: int, workloads: dict, ref_dir: Path, out_dir: Path):
    """Traced run over every workload; return (result, report)."""
    span_dir = out_dir / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    metrics, absent, split = {}, [], {}
    attempted = failed = 0
    for name, workload in workloads.items():
        ref = reference.load(workload.records, ref_dir)
        plain = run_sweep(root, workload, seed)
        traced = run_sweep(root, workload, seed, spans=span_dir / f"{name}.jsonl")
        runs = [plain, traced]
        wants_pool = any(m.startswith("montecarlo.pool_") for m in LAYER_METRICS[name])
        if wants_pool:
            runs.append(run_sweep(root, workload, seed, workers=POOL_WORKERS))
        attempted += len(ref["points"]) * len(runs)
        failed += _failures(plain, ref, seed)
        failed += sum(_failures(r, ref, seed, plain.get("csv", "")) for r in runs[1:])
        if any("wall_s" not in r for r in runs):
            continue
        layers = traced["layers"]
        split[name] = _split(layers, traced["wall_s"])
        derived = {"trace.overhead_frac": _norm(traced, "wall_s") / _norm(plain, "wall_s") - 1}
        if wants_pool:
            # raw walls: the calibration runs on one CPU, the pool on two
            busy = POOL_WORKERS * runs[2]["wall_s"]
            derived["montecarlo.pool_efficiency"] = plain["wall_s"] / busy
            derived["montecarlo.pool_idle_s"] = busy - plain["wall_s"]
        for metric in LAYER_METRICS[name]:
            value = derived[metric] if metric in derived else _layer_value(layers, metric)
            if value is None:
                absent.append(f"{name}.{metric}")
            else:
                metrics[f"{name}.{metric}"] = value
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()
        },
    }
    report = {"error_rate": failed / attempted, "absent": absent, "split": split}
    return result, report


def provenance(root: Path) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    git_sha = None
    if (root / ".git").exists():  # an exported source tree has no git metadata
        try:
            proc = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.machine(),
        "git_sha": git_sha,
    }


def main(argv=None, workloads=WORKLOADS, ref_dir=reference.REFERENCE_DIR, out_dir=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    if not (root / "src" / "rbmatch" / "__init__.py").is_file():
        print(f"error: no rbmatch package under {root / 'src'}", file=sys.stderr)
        return 2
    out_dir = Path(out_dir or root / ".bench_out")
    seed = args.seed % REFERENCE_SEEDS
    load_before = os.getloadavg()
    try:
        if args.trace:
            result, report = trace(root, seed, workloads, ref_dir, out_dir)
        else:
            result, report = measure(root, args.workload, seed, args.seconds, workloads, ref_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": seed,
        "trace": args.trace,
        "provenance": provenance(root),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        **report,
    }
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"report": report, "result": result}) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
