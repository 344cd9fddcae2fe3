"""Smoke test: the quick demos and the README's quickstart run to completion in a fresh interpreter.

Demo 03 trains interactive models on a synthetic task and takes several
seconds, so it is left to be run by hand.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import emap

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


@pytest.mark.parametrize(
    "name",
    [
        "01_projection_walkthrough.py",
        "02_optimality_evidence.py",
        "04_boolean_representability.py",
        "05_additive_fit_sweep.py",
    ],
)
def test_demo_runs_cleanly(name):
    assert_runs_cleanly([str(DEMOS / name)])


def test_readme_quickstart_runs_cleanly():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert_runs_cleanly(["-W", "error::RuntimeWarning", "-c", block])


def assert_runs_cleanly(args):
    src = str(Path(emap.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr + result.stdout
