"""Print how long each stage of calibrate_scenes takes per frame.

Run from anywhere; boxcalib is imported from this checkout's src/:

    python3 tools/stage_times.py [--repeats 5] [--sweep-frames 240] [--dense-frames 16]

The frames are those of tools/calibration_digest.py: Sweep15(501) trials
0-239 and Dense32(501) frames 0-15, built by bench/workloads.py, each
run at its workload's top_k (Sweep15 keeps its 15 boxes, Dense32 all
32). A third column runs the Dense32 frames again at DEFAULT_TOP_K,
which keeps 15 of 32 boxes, so the health is scored anew on the full
scenes there. The stages are those of the report's trace
(CalibrationTrace):

    top-k        the rows top_k_by_volume keeps of both scenes, and their
                 arrays, cut from the full scenes'
    scene pair   the full scenes' arrays (a scene builds its arrays once,
                 on first use, so each repeat calibrates fresh copies of
                 the frames' scenes)
    anchor pass  every anchor's score
    refinement   the choice of the best five anchors, their refits, the
                 winner and its fit
    health       the alignment score of the final transform on the full
                 scenes, when refinement did not score it (a scene cut by
                 top-k)
    other        the rest of the call: the total minus the stages above

Only the total is timed here. A frame whose calibration fails returns no
report, so its time counts in total and other alone. A value is the
stage's total over a workload's frames in the fastest of the repeats,
divided by the number of frames; the total row is timed the same way and
is not the sum of the rows above it. A last row, synthesis, times the
making of the frames beside the calibration: workload.frame(k) over the
same frames (the scene pair, its noise and the benchmark's ground truth),
the fastest of the repeats, its share taken of the calibration total.
Two more rows count what refinement did (CalibrationTrace), per
calibrated frame: its rounds, and the valid sets it fitted. The last row,
minor faults, is the process's minor page faults (getrusage's ru_minflt)
over all the timed repeats, per frame and repeat: pages the calibrations
touched fresh, from memory the allocator had returned to the system or
newly mapped. BLAS runs on one thread.
"""
from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from boxcalib import DEFAULT_TOP_K, ODistParams, Scene, calibrate_scenes  # noqa: E402
from boxcalib.pipeline import CALIBRATION_FAILURES  # noqa: E402
from workloads import Dense32, Sweep15  # noqa: E402

SEED = 501
# each stage with its CalibrationTrace field
TRACED = (
    ("top-k", "top_k_s"),
    ("scene pair", "scene_arrays_s"),
    ("anchor pass", "anchor_pass_s"),
    ("refinement", "refinement_s"),
    ("health", "health_s"),
)
STAGES = (*(stage for stage, _ in TRACED), "other")
# each count with its CalibrationTrace field
COUNTED = (("rounds", "refinement_rounds"), ("sets fitted", "sets_fitted"))


def fresh(scene: Scene) -> Scene:
    """A copy of the scene whose arrays are yet to be built."""
    return Scene(scene.boxes, scene.agent_id, scene.frame_id)


def one_repeat(frames, top_k) -> tuple[dict[str, float], dict[str, float]]:
    """Calibrate fresh copies of every frame once; the seconds spent in
    each stage, and each count's mean over the calibrated frames."""
    stages = dict.fromkeys(STAGES[:-1], 0.0)
    counts = dict.fromkeys((name for name, _ in COUNTED), 0)
    calibrated, total = 0, 0.0
    for ego, coop in [(fresh(ego), fresh(coop)) for ego, coop in frames]:
        start = time.perf_counter()
        try:
            report = calibrate_scenes(ego, coop, ODistParams(), top_k)
        except CALIBRATION_FAILURES:
            report = None
        total += time.perf_counter() - start
        if report is not None:
            calibrated += 1
            for stage, field in TRACED:
                stages[stage] += getattr(report.trace, field)
            for name, field in COUNTED:
                counts[name] += getattr(report.trace, field)
    stages["other"] = total - sum(stages.values())
    stages["total"] = total
    return stages, {name: count / max(calibrated, 1) for name, count in counts.items()}


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def stage_times(frames, top_k, repeats: int) -> tuple[dict[str, float], dict[str, float]]:
    """Milliseconds per frame of each stage, the fastest of the repeats;
    the counts per calibrated frame, which every repeat repeats; and the
    minor page faults per frame and repeat, over all the repeats."""
    faults = minor_faults()
    runs = [one_repeat(frames, top_k) for _ in range(repeats)]
    faults = minor_faults() - faults
    counts = {**runs[0][1], "minor faults": faults / (repeats * len(frames))}
    return {name: 1e3 * min(run[name] for run, _ in runs) / len(frames) for name in runs[0][0]}, counts


def synthesis_ms(workload, count: int, repeats: int) -> float:
    """Milliseconds per frame of workload.frame(k) for k < count, the fastest of the repeats."""
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for k in range(count):
            workload.frame(k)
        runs.append(time.perf_counter() - start)
    return 1e3 * min(runs) / count


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sweep-frames", type=int, default=240)
    parser.add_argument("--dense-frames", type=int, default=16)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.sweep_frames < 0 or args.dense_frames < 0:
        parser.error("--repeats must be at least 1 and frame counts nonnegative")

    columns = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls, count, top_k in (
            ("sweep15", Sweep15, args.sweep_frames, Sweep15.top_k),
            ("dense32", Dense32, args.dense_frames, Dense32.top_k),
            (f"dense32 top-{DEFAULT_TOP_K}", Dense32, args.dense_frames, DEFAULT_TOP_K),  # cut scenes
        ):
            if count == 0:
                continue
            workload = cls(SEED, Path(tmp))
            frames = [tuple(workload.frame(k)[:2]) for k in range(count)]
            times, counts = stage_times(frames, top_k, args.repeats)
            times["synthesis"] = synthesis_ms(workload, count, args.repeats)
            columns.append((f"{name} ({count} frames)", times, counts))

    print(f"{'ms per frame':<14}" + "".join(f"{title:>28}" for title, *_ in columns))
    for stage in (*STAGES, "total", "synthesis"):
        cells = [f"{t[stage]:9.3f} ms {100 * t[stage] / t['total']:5.1f} %" for _, t, _ in columns]
        print(f"{stage:<14}" + "".join(f"{cell:>28}" for cell in cells))
    for name in (*(name for name, _ in COUNTED), "minor faults"):  # the number under the ms column
        print((f"{name:<14}" + "".join(f"{c[name]:9.3f}{'':11}".rjust(28) for *_, c in columns)).rstrip())


if __name__ == "__main__":
    main()
