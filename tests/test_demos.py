"""The runnable walkthroughs in demos/ exit cleanly.

noise_sweep_demo.py is left out: it takes several seconds, its code
path, noise_sweep, is covered by test_synth, and test_bench_api checks
that every name it imports from boxcalib exists.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["calibrate_demo.py", "monitor_demo.py", "cli_demo.py"])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
