"""Print how well boxcalib calibrates the benchmark frames, per seed.

Run from anywhere; boxcalib is imported from this checkout's src/:

    python3 tools/quality.py [--seeds 501 502 503] [--sweep-frames 240]
                             [--dense-frames 16] [--json PATH]

For each seed the frames are Sweep15(seed) trials 0-239 and Dense32(seed)
frames 0-15 (the 256 frames), built by bench/workloads.py as
tools/stage_times.py builds them, each calibrated once by calibrate_scenes
with its workload's top_k. Each row is one seed and one workload:

    < 1 m, 1-3 m, >= 3 m   results by translation error (RTE); a failed
                           calibration counts as >= 3 m and in failed too
    RTE, RRE               the mean translation (m) and rotation (deg)
                           error of the results under 1 m
    precision, recall      pooled over the frames as the benchmark pools
                           them: correct over returned matches, and
                           correct matches over the true pairs that both
                           top-k scenes keep
    exact RTE, RRE         the largest errors over the noise-free frames
                           (Sweep15's cell (0 m, 0 deg), Dense32's even
                           frames)

--json PATH writes the same numbers to PATH. BLAS runs on one thread.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from boxcalib import ODistParams, calibrate_scenes, rre, rte, top_k_by_volume  # noqa: E402
from boxcalib.pipeline import CALIBRATION_FAILURES  # noqa: E402
from workloads import SWEEP_GRID, Dense32, Sweep15, kept_indices, match_counts, shared_count  # noqa: E402

COLUMNS = (
    ("frames", "{:>6d}"), ("< 1 m", "{:>6d}"), ("1-3 m", "{:>6d}"), (">= 3 m", "{:>6d}"), ("failed", "{:>6d}"),
    ("RTE m", "{:>7.3f}"), ("RRE deg", "{:>7.3f}"), ("precision", "{:>9.4f}"), ("recall", "{:>7.4f}"),
    ("exact RTE", "{:>9.1e}"), ("exact RRE", "{:>9.1e}"),
)


def sweep_frames(seed: int, count: int, work: Path):
    """(ego, coop, truth, gt, noise-free) of Sweep15(seed) trials 0..count-1."""
    workload = Sweep15(seed, work)
    for k in range(count):
        ego, coop, truth, gt, _ = workload.frame(k)
        noise = SWEEP_GRID[k % len(SWEEP_GRID)]
        yield ego, coop, truth, gt, noise.sigma_pos == 0.0 and noise.yaw_std_deg == 0.0


def dense_frames(seed: int, count: int, work: Path):
    """(ego, coop, truth, gt, noise-free) of Dense32(seed) frames 0..count-1."""
    workload = Dense32(seed, work)
    for k in range(count):
        yield (*workload.frame(k), k % 2 == 0)


def quality(frames, top_k) -> dict:
    """The row of one workload's frames (see the module docstring)."""
    bands, errors, exact = [0, 0, 0], [], [0.0, 0.0]
    failed = correct = returned = shared = frames_seen = 0
    for ego, coop, truth, gt, noise_free in frames:
        frames_seen += 1
        ego_index = kept_indices(ego, top_k_by_volume(ego, top_k))
        coop_index = kept_indices(coop, top_k_by_volume(coop, top_k))
        shared += shared_count(gt, ego_index, coop_index)
        try:
            report = calibrate_scenes(ego, coop, ODistParams(), top_k)
        except CALIBRATION_FAILURES:
            failed += 1
            bands[2] += 1
            if noise_free:
                exact = [math.inf, math.inf]
            continue
        pairs = [(m.ego_index, m.coop_index) for m in report.matches]
        right, total = match_counts(pairs, ego_index, coop_index, gt)
        correct, returned = correct + right, returned + total
        t_err = rte(truth.translation, report.transform.translation)
        r_err = rre(truth.rotation, report.transform.rotation)
        bands[0 if t_err < 1.0 else 1 if t_err < 3.0 else 2] += 1
        if t_err < 1.0:
            errors.append((t_err, r_err))
        if noise_free:
            exact = [max(exact[0], t_err), max(exact[1], r_err)]
    under = len(errors)
    return {
        "frames": frames_seen,
        "< 1 m": bands[0],
        "1-3 m": bands[1],
        ">= 3 m": bands[2],
        "failed": failed,
        "RTE m": sum(t for t, _ in errors) / under if under else math.nan,
        "RRE deg": sum(r for _, r in errors) / under if under else math.nan,
        "precision": correct / returned if returned else math.nan,
        "recall": correct / shared if shared else math.nan,
        "exact RTE": exact[0],
        "exact RRE": exact[1],
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[501, 502, 503])
    parser.add_argument("--sweep-frames", type=int, default=240)
    parser.add_argument("--dense-frames", type=int, default=16)
    parser.add_argument("--json", type=Path, help="also write the numbers to this file")
    args = parser.parse_args(argv)
    if args.sweep_frames < 0 or args.dense_frames < 0:
        parser.error("frame counts must be nonnegative")

    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            rows[str(seed)] = {
                "sweep15": quality(sweep_frames(seed, args.sweep_frames, Path(tmp)), Sweep15.top_k),
                "dense32": quality(dense_frames(seed, args.dense_frames, Path(tmp)), Dense32.top_k),
            }

    print(f"{'seed':>4} {'workload':<8}" + "".join(f" {name:>{len(fmt.format(0))}}" for name, fmt in COLUMNS))
    for seed, workloads in rows.items():
        for name, row in workloads.items():
            print(f"{seed:>4} {name:<8}" + "".join(" " + fmt.format(row[key]) for key, fmt in COLUMNS))
    if args.json is not None:
        frames = {"sweep15": f"Sweep15(seed) trials 0-{args.sweep_frames - 1}",
                  "dense32": f"Dense32(seed) frames 0-{args.dense_frames - 1}"}
        args.json.write_text(json.dumps({"frames": frames, "seeds": rows}, indent=2) + "\n")


if __name__ == "__main__":
    main()
