"""Calibration loads no scipy module.

scipy serves only solve_assignment (the paper's optimal-transport stage,
off the calibration path) and the yaw-noise model's von Mises
concentration, and each imports it on first use, so a process that only
calibrates, monitors and reads files never pays for the import. The check
runs in a fresh interpreter, where no other test has imported scipy yet.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
from pathlib import Path

import boxcalib.cli
from boxcalib import MonitorState, SynthConfig, NoiseConfig, calibrate_scenes, generate_scene_pair, step
from boxcalib import io as bio

loaded = {}
ego, coop, _ = generate_scene_pair(SynthConfig(n_boxes=15, visibility=0.8, seed=3))
loaded["import"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
report = calibrate_scenes(ego, coop)
loaded["calibrate_scenes"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
state, events = step(MonitorState.initial(), ego, coop)
state, events = step(state, ego, coop)
loaded["monitor.step"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
path = Path(sys.argv[1]) / "ego.json"
bio.save_scene(ego, path)
assert len(bio.load_scene(path)) == len(ego)
loaded["io.load_scene"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from boxcalib import build_affinity, inject_noise, solve_assignment
matches = solve_assignment(build_affinity(ego, coop))
noisy = inject_noise(coop, NoiseConfig(0.0, 10.0, seed=1))
print(json.dumps({
    "loaded": loaded,
    "matches": len(matches),
    "calibrated": len(report.matches),
    "events": [e.kind.value for e in events],
    "yaw_moved": sum(a.yaw != b.yaw for a, b in zip(noisy, coop)),
    "scipy_after": "scipy.optimize" in sys.modules,
}))
"""


def test_calibrating_monitoring_and_reading_files_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["loaded"] == {"import": [], "calibrate_scenes": [], "monitor.step": [], "io.load_scene": []}
    assert result["calibrated"] >= 3 and result["events"] == ["HealthOk"]
    # and the two users of scipy still work, importing it when called
    assert result["matches"] == result["calibrated"] and result["yaw_moved"] == 12
    assert result["scipy_after"]
