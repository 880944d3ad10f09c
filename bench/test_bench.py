"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import make_reference  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import LAYER_METRICS, Workload  # noqa: E402

import rbmatch  # noqa: E402
from rbmatch import estimators  # noqa: E402

_NETWORK = ((4, 5.0, 10.0, 1.0, 36), (3, 5.0, 5.0, 1.0, 36))
TINY = {
    "surplus_sweep": Workload("segment", ((3, 5), (3, 7)), 3, "tiny_surplus"),
    "balanced_sweep": Workload("segment", ((2, 2), (4, 4)), 3, "tiny_balanced"),
    "network_sweep": Workload("network", _NETWORK, 2, "tiny_network"),
}


@pytest.fixture(scope="module")
def tiny_refs(tmp_path_factory):
    ref_dir = tmp_path_factory.mktemp("reference")
    for workload in TINY.values():
        reference.write(workload.records, make_reference.generate(ROOT, workload, range(2)), ref_dir)
    return ref_dir


def _run(capsys, tmp_path, ref_dir, *argv):
    code = run.main(list(argv), workloads=TINY, ref_dir=ref_dir, out_dir=tmp_path / "out")
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_every_metric_in_benchmark_json_is_printed_with_its_unit(capsys, tmp_path, tiny_refs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(TINY)
    assert [m["name"] for m in spec["per_layer"]] == [
        f"{w}.{m}" for w, metrics in LAYER_METRICS.items() for m in metrics
    ]
    for name in ("balanced_sweep", "network_sweep"):
        report, result = _run(capsys, tmp_path, tiny_refs, "--workload", name, "--seed", "17",
                              "--seconds", "0", "--trace", "0")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and report["error_rate"] == 0
        assert report["master_seed"] == 1 and report["reference_sha256_match"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec["end_to_end"]
        }
        assert len(report["setup_samples_s"]) >= run.MIN_SETUPS
        assert report["pool_csv_identical"]

    report, result = _run(capsys, tmp_path, tiny_refs, "--workload", "surplus_sweep",
                          "--seed", "0", "--seconds", "0", "--trace", "1")
    assert result["correct"] and report["absent"] == []
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert (tmp_path / "out" / "spans" / "network_sweep.jsonl").is_file()


def test_gate_counts_a_changed_value_as_a_failure(tmp_path, tiny_refs):
    workload = TINY["surplus_sweep"]
    result = run.run_sweep(ROOT, workload, 0)
    ref = reference.load(workload.records, tiny_refs)
    assert reference.check(result["records"], ref, 0) == [True, True]

    records = json.loads(json.dumps(result["records"]))
    records[0]["sim_mean"] *= 1 + 1e-12  # a reordered sum: within 1e-9
    records[1]["estimates"]["closed"] *= 1 + 1e-6
    assert reference.check(records, ref, 0) == [True, False]
    assert run._failures(result, ref, 0, result["csv"].replace("3,5", "3,6", 1)) == 1
    assert run._failures({"error": "ValueError: boom"}, ref, 0) == 2


def test_counters_match_hand_values_and_intra_module_calls_are_seen():
    original = estimators.recursion_table
    with Tracer() as tracer:
        assert rbmatch.recursion_table is estimators.recursion_table is not original
        estimators.recursive_estimate(3, 5)  # calls recursion_table inside its module
        rbmatch.optimal_match_1d(rbmatch.Instance1D([0.1, 0.5], [0.2, 0.3, 0.6, 0.9]))
        rbmatch.solve_dense(np.ones((2, 3)))
    assert rbmatch.recursion_table is estimators.recursion_table is original
    layers = tracer.summary()
    assert layers["estimators.recursion_table"]["calls"] == 1
    assert layers["estimators.recursion_table"]["cells"] == 3 * 4  # (n-m+1)(m+1)
    assert layers["exact1d.optimal_match_1d"]["cells"] == 2 * 3  # m(n-m+1)
    assert layers["assignment.solve_dense"]["cells"] == 2 * 3  # rows*cols
    assert layers["types.Instance1D"]["calls"] == 1
    assert layers["types.MatchResult.from_pairs"]["calls"] == 1


def test_counters_repeat_exactly():
    from sweep import build_config

    request = {"kind": "network", "points": _NETWORK, "reps": 2, "workers": 1, "seed": 3}
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            rbmatch.run_experiment(build_config(request))
        counts.append(
            {(k, c): v[c] for k, v in tracer.summary().items() for c in ("calls", "cells") if c in v}
        )
    assert counts[0] == counts[1]
    assert counts[0][("network.exact_network_match", "calls")] == 4  # points * reps


def test_self_time_is_duration_minus_child_coverage():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0], ["b", 2.0, 3.0, 1]]
    layers = tracer.summary()
    assert layers["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert layers["b"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}  # nested b counted once
    assert layers["c"]["self_s"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "balanced_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_layer_without_calls_is_absent_not_zero():
    assert run._layer_value({}, "assignment.solve_dense.busy_s") is None
    assert run._layer_value({}, "network.sample_accept_ratio") is None
