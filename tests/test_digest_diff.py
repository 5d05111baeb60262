"""tools/digest_diff.py on small hand-written digests."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest_diff.py"


def digest(translation=(1.0, 2.0, 0.5), matches="0,1,0 1,2,0", rms=0.5, event_mean=0.25, rounds=2, sets=3,
           raised="NoCoVisibleObjects no anchor pair supports a consistent scene alignment"):
    extrinsic = np.eye(3).tobytes().hex() + ":" + np.array(translation).tobytes().hex()
    return (
        "sweep15 0 affinity 0000000000000840 flips 01\n"
        f"sweep15 0 matches {matches} transform {extrinsic} rms {rms!r} health 3.0 0.25 rounds {rounds} sets {sets}\n"
        f"sweep15 1 raised {raised}\n"
        f"monitor 0 BootCalibrated,3.0,{event_mean!r},1 status Monitoring held {extrinsic}\n"
    )


def run(tmp_path, old, new):
    (tmp_path / "old.txt").write_text(old)
    (tmp_path / "new.txt").write_text(new)
    done = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "old.txt"), str(tmp_path / "new.txt")],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout


def test_identical_digests_agree(tmp_path):
    code, out = run(tmp_path, digest(), digest())
    assert code == 0
    assert "transform.translation max deviation 0\n" in out


def test_floats_within_the_tolerance_agree_and_report_the_deviation(tmp_path):
    code, out = run(tmp_path, digest(), digest(translation=(1.0, 2.0 + 1e-15, 0.5), rms=0.5 + 1e-13))
    assert code == 0
    assert "transform.translation max deviation 8.88e-16\n" in out  # 2 + 1e-15 rounds
    assert "held.translation max deviation 8.88e-16\n" in out
    assert "rms max deviation 1e-13\n" in out
    assert "transform.rotation max deviation 0\n" in out


@pytest.mark.parametrize(
    "changed",
    [
        {"matches": "0,1,0 1,3,0"},
        {"matches": "0,1,0"},
        {"translation": (1.0, 2.0 + 1e-9, 0.5)},
        {"event_mean": 0.25 + 1e-9},
        {"rounds": 1},
        {"sets": 4},
        {"raised": "NoCoVisibleObjects no anchor pair supports a consistent scene"},
    ],
    ids=[
        "match", "dropped match", "transform beyond the tolerance", "event mean distance",
        "refinement rounds", "sets fitted", "raised message",
    ],
)
def test_other_differences_exit_1(tmp_path, changed):
    code, out = run(tmp_path, digest(), digest(**changed))
    assert code == 1
    assert "line " in out


def test_a_missing_line_exits_1(tmp_path):
    code, out = run(tmp_path, digest(), digest().rsplit("\n", 2)[0] + "\n")
    assert code == 1
    assert "line counts differ: 4 vs 3" in out


def run_summary(tmp_path, old, new):
    (tmp_path / "old.txt").write_text(old)
    (tmp_path / "new.txt").write_text(new)
    done = subprocess.run(
        [sys.executable, str(TOOL), "--summary", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout.splitlines()


def test_summary_of_identical_digests_counts_nothing_changed(tmp_path):
    code, lines = run_summary(tmp_path, digest(), digest())
    assert code == 0
    assert lines == [
        "sweep15 affinity lines byte-identical: 1 of 1",
        "sweep15 calibration lines whose matches changed: 0 of 2",
        "sweep15 calibration lines changed otherwise: 0 of 2",
        "monitor lines whose event kinds or status changed: 0 of 1",
        "monitor lines changed otherwise: 0 of 1",
    ]


def test_summary_counts_each_kind_of_change(tmp_path):
    old = digest() + "dense32 0 affinity 00 flips 00\n"
    new = digest(matches="0,1,0 1,3,0", event_mean=0.5).replace("affinity 0000000000000840", "affinity 0000000000001040")
    new = new.replace("raised NoCoVisibleObjects no anchor pair", "raised DegenerateGeometry no anchor pair")
    new = new.replace("BootCalibrated,", "AlertRaised,") + "dense32 0 affinity 00 flips 00\n"
    code, lines = run_summary(tmp_path, old, new)
    assert code == 0
    assert "sweep15 affinity lines byte-identical: 0 of 1" in lines
    assert "sweep15 calibration lines whose matches changed: 2 of 2" in lines  # a raise is its own outcome
    assert "monitor lines whose event kinds or status changed: 1 of 1" in lines
    assert "dense32 affinity lines byte-identical: 1 of 1" in lines
    # floats alone: the calibration's rms and a monitor event's mean distance
    code, lines = run_summary(tmp_path, digest(), digest(rms=0.75, event_mean=0.5))
    assert "sweep15 calibration lines whose matches changed: 0 of 2" in lines
    assert "sweep15 calibration lines changed otherwise: 1 of 2" in lines
    assert "monitor lines changed otherwise: 1 of 1" in lines


def test_summary_of_digests_that_do_not_pair_exits_1(tmp_path):
    code, lines = run_summary(tmp_path, digest(), digest().rsplit("\n", 2)[0] + "\n")
    assert code == 1 and "line counts differ: 4 vs 3" in lines
    swapped = digest().replace("sweep15 1 raised", "sweep15 2 raised")
    code, lines = run_summary(tmp_path, digest(), swapped)
    assert code == 1 and "line 3: not the same frame and line kind" in lines


def test_summary_usage_error_exits_2(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), "--summary", "one.txt"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "usage" in done.stderr
