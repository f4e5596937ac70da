"""Every demo script runs standalone and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wenzl

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SLOW = {"05_hecke_bridge.py"}  # builds the n = 12 decompositions


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
        for p in sorted(DEMOS.glob("*.py"))
    ],
)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(Path(wenzl.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
