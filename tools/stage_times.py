"""Print how long each stage of calibrate_scenes takes per frame.

Run from anywhere; boxcalib is imported from this checkout's src/:

    python3 tools/stage_times.py [--repeats 5] [--sweep-frames 240] [--dense-frames 16]

The frames are those of tools/calibration_digest.py: Sweep15(501) trials
0-239 and Dense32(501) frames 0-15, built by bench/workloads.py. Each stage
is timed by wrapping the function that runs it:

    top-k        top_k_by_volume of both scenes
    scene pair   the scenes' _SceneArrays: those calibrate_scenes builds,
                 plus whatever association._associate builds before its
                 anchor pass (older checkouts build the arrays, and the
                 scene pair's tables, there)
    anchor pass  association._score_anchors, every anchor's score
    assignment   association.solve_assignment
    refinement   the rest of association._associate: refits and the winner
    health       the alignment score of the final transform on the full
                 scenes (_alignment, or alignment_score in older checkouts)
    other        the rest of calibrate_scenes, wrappers included

A value is the stage's total over a workload's frames in the fastest of
the repeats, divided by the number of frames; the total row is timed the
same way and is not the sum of the rows above it. BLAS runs on one
thread. Only these module-level names are wrapped, each where the
checkout has it, so the script also times older checkouts.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from boxcalib import ODistParams, association, pipeline  # noqa: E402
from workloads import Dense32, Sweep15  # noqa: E402

SEED = 501
STAGES = ("top-k", "scene pair", "anchor pass", "assignment", "refinement", "health", "other")
# (module, attribute, stage) of every wrapped function a checkout has;
# "associate" is the outer span that refinement and the "gap", the scene
# pair's part inside it, are parts of; "arrays" is the scene pair's part
# outside it
WRAPPED = (
    (pipeline, "top_k_by_volume", "top-k"),
    (pipeline, "_SceneArrays", "arrays"),
    (association, "_score_anchors", "anchor pass"),
    (association, "solve_assignment", "assignment"),
    (pipeline, "_associate", "associate"),
    (pipeline, "_alignment", "health"),
    (pipeline, "alignment_score", "health"),
)


def _timed(fn, stage: str, spent: dict[str, float]):
    def wrapper(*args, **kwargs):
        start = spent[f"{stage} entry"] = time.perf_counter()
        if stage == "anchor pass":  # since _associate was entered
            spent["gap"] += start - spent["associate entry"]
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start

    return wrapper


def one_repeat(frames, top_k, spent: dict[str, float]) -> dict[str, float]:
    """Calibrate every frame once; the seconds spent in each stage."""
    spent.update({name: 0.0 for name in ("gap", *(stage for _, _, stage in WRAPPED))})
    total = 0.0
    for ego, coop in frames:
        start = time.perf_counter()
        try:
            pipeline.calibrate_scenes(ego, coop, ODistParams(), top_k)
        except pipeline.CALIBRATION_FAILURES:
            pass
        total += time.perf_counter() - start
    stages = {name: spent[name] for name in ("top-k", "anchor pass", "assignment", "health")}
    stages["scene pair"] = spent["gap"] + spent["arrays"]
    stages["refinement"] = spent["associate"] - spent["gap"] - stages["anchor pass"] - stages["assignment"]
    stages["other"] = total - spent["associate"] - spent["arrays"] - stages["top-k"] - stages["health"]
    stages["total"] = total
    return stages


def stage_times(frames, top_k, repeats: int, spent: dict[str, float]) -> dict[str, float]:
    """Milliseconds per frame of each stage, the fastest of the repeats."""
    runs = [one_repeat(frames, top_k, spent) for _ in range(repeats)]
    return {name: 1e3 * min(run[name] for run in runs) / len(frames) for name in runs[0]}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sweep-frames", type=int, default=240)
    parser.add_argument("--dense-frames", type=int, default=16)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.sweep_frames < 0 or args.dense_frames < 0:
        parser.error("--repeats must be at least 1 and frame counts nonnegative")

    spent: dict[str, float] = {}
    for module, attr, stage in WRAPPED:
        if hasattr(module, attr):
            setattr(module, attr, _timed(getattr(module, attr), stage, spent))
    columns = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls, count in (("sweep15", Sweep15, args.sweep_frames), ("dense32", Dense32, args.dense_frames)):
            if count == 0:
                continue
            workload = cls(SEED, Path(tmp))
            frames = [tuple(workload.frame(k)[:2]) for k in range(count)]
            times = stage_times(frames, workload.top_k, args.repeats, spent)
            columns.append((f"{name} ({count} frames)", times))

    print(f"{'ms per frame':<14}" + "".join(f"{title:>26}" for title, _ in columns))
    for stage in (*STAGES, "total"):
        cells = [f"{t[stage]:9.3f} ms {100 * t[stage] / t['total']:5.1f} %" for _, t in columns]
        print(f"{stage:<14}" + "".join(f"{cell:>26}" for cell in cells))


if __name__ == "__main__":
    main()
