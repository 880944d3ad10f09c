import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbmatch

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


def _run(argv):
    src = str(Path(rbmatch.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *argv], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    out = _run([str(demo)])
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_readme_quickstart_runs():
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = _run(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_unbalanced_removal_demo_states_its_identities():
    # seed 7, m = 6, n = 10, untied; the removed indices are the ones the
    # earlier (event, removals-used) removal DP printed
    out = _run([str(ROOT / "demos" / "unbalanced_removal.py")])
    assert out.returncode == 0, out.stderr
    lines = {}
    for line in out.stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            lines[key.strip()] = value.strip()
    assert lines["optimal removal (supply indices)"] == "(0, 2, 4, 5)"
    area = lines["post-removal area"]
    assert area == lines["optimal matching total"].split()[0]
    assert lines["net supply at the removed points"] == "[1, 2, 3, 4]"
