"""Smoke test: the quick demos run to completion in a fresh interpreter.

Demo 03 trains interactive models on a synthetic task and takes several
seconds, so it is left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import emap

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
    src = str(Path(emap.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr + result.stdout
