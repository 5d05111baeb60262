"""tools/scaling.py on one 40-box frame."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scaling.py"


def test_scaling_prints_one_row_per_frame():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--sizes", "40", "--frames", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["boxes", "frame", "ego", "x", "coop", "anchor", "ms", "anchors", "MB", "associate", "MB"]
    assert len(lines) == 1
    boxes, frame, ego, x, coop, *values = lines[0].split()
    assert (boxes, frame, ego, x, coop) == ("40", "0", "40", "x", "32")
    assert len(values) == 3 and all(float(v) > 0.0 for v in values)


def test_scaling_rejects_a_frame_count_below_one():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--frames", "0"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 2 and "--frames" in done.stderr
