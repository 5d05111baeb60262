"""tools/stage_times.py on two frames, one of each workload."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"
ROWS = ("top-k", "scene pair", "anchor pass", "assignment", "refinement", "health", "other", "total")


def test_stage_times_prints_every_stage_of_both_workloads():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "1", "--sweep-frames", "1", "--dense-frames", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert "sweep15 (1 frames)" in header and "dense32 (1 frames)" in header
    assert [line[:14].strip() for line in lines] == list(ROWS)
    for line in lines:
        values = line[14:].split()  # two columns of "<ms> ms <share> %"
        assert len(values) == 8 and values[1::2] == ["ms", "%", "ms", "%"]
        assert all(float(v) >= 0.0 for v in values[::2]), line
    assert lines[-1].split()[3] == "100.0"


def test_stage_times_rejects_a_repeat_count_below_one():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "0"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 2 and "--repeats" in done.stderr
