import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbmatch

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(Path(rbmatch.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, str(demo)], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
