"""Regenerate the stored reference records from the current checkout.

    python3 bench/make_reference.py [RECORD_SET ...]

Runs every record set's sweep on one worker for master seeds
0..REFERENCE_SEEDS-1, two sweeps at a time, and rewrites
``bench/reference/<record set>.json``. A reference is regenerated only when
the program's output changes on purpose; say why where the change is
recorded.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import reference
from run import run_sweep
from workloads import REFERENCE_SEEDS, WORKLOADS


def generate(root: Path, workload, seeds) -> dict:
    """Reference content for one workload's grid and reps over ``seeds``."""

    def one(seed):
        result = run_sweep(root, workload, seed)
        if "error" in result:
            raise RuntimeError(f"seed {seed}: {result['error']}")
        return seed, (result["csv"], result["records"])

    with ThreadPoolExecutor(max_workers=2) as pool:
        return reference.build(dict(pool.map(one, seeds)))


def main(argv) -> int:
    root = Path(__file__).resolve().parent.parent
    record_sets = {w.records: w for w in WORKLOADS.values()}
    for name in argv or sorted(record_sets):
        reference.write(name, generate(root, record_sets[name], range(REFERENCE_SEEDS)))
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
