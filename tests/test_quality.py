"""tools/quality.py on a few frames of one seed."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from test_stage_times import assert_reads_only_public_names_and_patches_nothing

TOOL = Path(__file__).resolve().parent.parent / "tools" / "quality.py"


def test_quality_prints_and_writes_one_row_per_workload(tmp_path):
    out = tmp_path / "quality.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "501", "--sweep-frames", "13", "--dense-frames", "2",
         "--json", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split()[:3] == ["seed", "workload", "frames"]
    assert [line.split()[:3] for line in lines] == [["501", "sweep15", "13"], ["501", "dense32", "2"]]
    written = json.loads(out.read_text())
    assert written["frames"] == {"sweep15": "Sweep15(seed) trials 0-12", "dense32": "Dense32(seed) frames 0-1"}
    for line, (name, row) in zip(lines, written["seeds"]["501"].items(), strict=True):
        assert line.split()[1] == name
        assert row["< 1 m"] + row["1-3 m"] + row[">= 3 m"] == row["frames"]
        assert 0 <= row["failed"] <= row[">= 3 m"]
        assert 0.0 <= row["precision"] <= 1.0 and 0.0 <= row["recall"] <= 1.0
        # Sweep15 trials 0 and 12 and Dense32 frame 0 are noise-free
        assert row["exact RTE"] <= 1e-12 and row["exact RRE"] <= 1e-12, name
        assert int(line.split()[3]) == row["< 1 m"] and float(line.split()[7]) == round(row["RTE m"], 3)


def test_quality_rejects_a_negative_frame_count():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--dense-frames", "-1"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 2 and "frame counts" in done.stderr


def test_quality_reads_only_public_names_and_patches_nothing():
    assert_reads_only_public_names_and_patches_nothing(TOOL)
