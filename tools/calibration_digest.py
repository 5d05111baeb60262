"""Print the exact outputs of boxcalib on a fixed set of benchmark frames.

Run from anywhere; boxcalib is imported from this checkout's src/:

    python3 tools/calibration_digest.py > digest.txt

The frames are Sweep15(501) trials 0-239, Dense32(501) frames 0-15 and the
360 frames of MonitorStream(501), all built by bench/workloads.py. Each
calibration frame prints two lines: the affinity matrix of its top-k
scenes (entries and flip flags, their bytes as hex), then its matches
(ego, coop, flipped), the transform's bytes as hex, the residual, the
health and the refinement rounds and valid sets fitted (the trace's
counts), or what it raised: the exception's name and message. Each
monitor frame prints its events and the bytes of the extrinsic it holds
afterwards. Timings (elapsed_s) are left out, so two checkouts whose
outputs agree bit for bit print the same text: run the script in a
checkout of each commit and `diff` the outputs.
"""
from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from boxcalib import (  # noqa: E402
    MonitorState,
    ODistParams,
    build_affinity,
    calibrate_scenes,
    step,
    top_k_by_volume,
)
from boxcalib import io as bio  # noqa: E402
from boxcalib.pipeline import CALIBRATION_FAILURES  # noqa: E402
from workloads import MONITOR_FRAMES, Dense32, MonitorStream, Sweep15  # noqa: E402

SEED = 501
SWEEP_TRIALS = 240
DENSE_FRAMES = 16


def _hex(transform) -> str:
    return transform.rotation.tobytes().hex() + ":" + transform.translation.tobytes().hex()


def affinity_line(ego, coop, top_k) -> str:
    affinity = build_affinity(top_k_by_volume(ego, top_k), top_k_by_volume(coop, top_k))
    entries, flips = affinity.entries.tobytes().hex(), affinity.coop_flip.tobytes().hex()
    return f"affinity {entries} flips {flips}"


def calibration_line(ego, coop, top_k) -> str:
    try:
        report = calibrate_scenes(ego, coop, ODistParams(), top_k)
    except CALIBRATION_FAILURES as e:
        return f"raised {type(e).__name__} {e}"
    matches = " ".join(f"{m.ego_index},{m.coop_index},{int(m.coop_yaw_flipped)}" for m in report.matches)
    return (
        f"matches {matches} transform {_hex(report.transform)} rms {report.rms_residual!r} "
        f"health {report.health_confidence!r} {report.health_mean_distance!r} "
        f"rounds {report.trace.refinement_rounds} sets {report.trace.sets_fitted}"
    )


def monitor_line(state, events) -> str:
    """A monitor frame's events (kind, confidence, mean distance, attempt)
    and the status and extrinsic the state holds after them."""
    shown = " ".join(f"{e.kind.value},{e.confidence!r},{e.mean_distance!r},{e.attempt}" for e in events)
    held = "none" if state.current_extrinsic is None else _hex(state.current_extrinsic)
    return f"{shown} status {state.status.value} held {held}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sweep = Sweep15(SEED, work)
        for k in range(SWEEP_TRIALS):
            ego, coop, *_ = sweep.frame(k)
            print(f"sweep15 {k} {affinity_line(ego, coop, sweep.top_k)}")
            print(f"sweep15 {k} {calibration_line(ego, coop, sweep.top_k)}")
        dense = Dense32(SEED, work)
        for k in range(DENSE_FRAMES):
            ego, coop, *_ = dense.frame(k)
            print(f"dense32 {k} {affinity_line(ego, coop, dense.top_k)}")
            print(f"dense32 {k} {calibration_line(ego, coop, dense.top_k)}")
        stream = MonitorStream(SEED, work)
        stream.prepare()
        state = MonitorState.initial()
        for f in range(MONITOR_FRAMES):
            ego, coop = (bio.load_scene(p) for p in stream.scene_paths(f))
            state, events = step(state, ego, coop)
            print(f"monitor {f} {monitor_line(state, events)}")


if __name__ == "__main__":
    main()
