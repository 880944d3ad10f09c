"""Stored reference records and the correctness gate.

A reference file holds, for one grid and rep count, the seed-independent part
of every record (params, estimates, static meta) once, and per master seed the
simulated mean and std of every point, the meta fields that vary by seed, and
the sha256 of the whole CSV. Values are stored to 12 significant digits,
three more than the 1e-9 relative tolerance of the repo's exact identities.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
# rel_errors are differences of nearby numbers, so they are held to an
# absolute 1e-9, the same tolerance relative to the estimate and mean
RELERR_ABS_TOL = 1e-9


def csv_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digits(x):
    return float(f"{x:.12g}") if isinstance(x, float) else x


def build(runs: dict) -> dict:
    """Reference content from ``{master_seed: (csv_text, records)}``, where
    records is the parsed ``records_to_json`` output of that seed."""
    seeds = sorted(runs)
    first = runs[seeds[0]][1]
    varying = set()
    for seed in seeds:
        records = runs[seed][1]
        if len(records) != len(first):
            raise ValueError("seeds disagree on the number of grid points")
        for rec, base in zip(records, first):
            if rec["params"] != base["params"] or rec["estimates"] != base["estimates"]:
                raise ValueError(f"seed-independent fields differ at {rec['params']}")
            varying |= {k for k in rec["meta"] if rec["meta"][k] != base["meta"].get(k)}
    points = [
        {
            "params": rec["params"],
            "estimates": {k: _digits(v) for k, v in rec["estimates"].items()},
            "meta": {k: _digits(v) for k, v in rec["meta"].items() if k not in varying},
        }
        for rec in first
    ]
    per_seed = {}
    for seed in seeds:
        text, records = runs[seed]
        per_seed[str(seed)] = {
            "csv_sha256": csv_sha256(text),
            "sim_mean": [_digits(r["sim_mean"]) for r in records],
            "sim_std": [_digits(r["sim_std"]) for r in records],
            "meta": {k: [_digits(r["meta"][k]) for r in records] for k in sorted(varying)},
        }
    return {"points": points, "seeds": per_seed}


def load(name: str, directory: Path = REFERENCE_DIR) -> dict:
    with open(directory / f"{name}.json") as fh:
        return json.load(fh)


def write(name: str, content: dict, directory: Path = REFERENCE_DIR) -> None:
    """Write a reference with one grid point, and one seed, per line."""
    directory.mkdir(parents=True, exist_ok=True)
    points = ",\n  ".join(json.dumps(p) for p in content["points"])
    seeds = ",\n  ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in content["seeds"].items())
    with open(directory / f"{name}.json", "w") as fh:
        fh.write(f'{{"points": [\n  {points}\n ],\n "seeds": {{\n  {seeds}\n }}\n}}\n')


def _close(a, b) -> bool:
    if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
        return math.isclose(a, b, rel_tol=REL_TOL)
    return a == b


def _point_matches(rec: dict, point: dict, mean: float, std: float, meta: dict) -> bool:
    if rec["params"] != point["params"]:
        return False
    if not (_close(rec["sim_mean"], mean) and _close(rec["sim_std"], std)):
        return False
    est = point["estimates"]
    if set(rec["estimates"]) != set(est) or set(rec["rel_errors"]) != set(est):
        return False
    for name, value in est.items():
        if not _close(rec["estimates"][name], value):
            return False
        expected = (value - mean) / mean
        if not math.isclose(rec["rel_errors"][name], expected, rel_tol=0.0, abs_tol=RELERR_ABS_TOL):
            return False
    if set(rec["meta"]) != set(meta):
        return False
    return all(_close(rec["meta"][k], v) for k, v in meta.items())


def check(records: list, ref: dict, seed: int) -> list[bool]:
    """Per reference grid point, whether the record matches at 1e-9."""
    points = ref["points"]
    if len(records) != len(points):
        return [False] * len(points)
    per_seed = ref["seeds"][str(seed)]
    out = []
    for i, (rec, point) in enumerate(zip(records, points)):
        meta = dict(point["meta"])
        meta.update({k: values[i] for k, values in per_seed["meta"].items()})
        out.append(
            _point_matches(rec, point, per_seed["sim_mean"][i], per_seed["sim_std"][i], meta)
        )
    return out
