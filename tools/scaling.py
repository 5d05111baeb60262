"""Print how anchor scoring scales with the number of boxes in a frame.

Run from anywhere; boxcalib is imported from this checkout's src/:

    python3 tools/scaling.py [--sizes 40 80 120] [--frames 3]

A frame of n boxes is a fixed-seed synthetic scene pair: n boxes seen by
the ego agent, visibility 0.8 for the coop agent (so n x 0.8n), noise
sigma 0.3 m and 3 deg on both views, no top-k prefilter. The boxes lie in
+-30 m, and above 80 boxes in the square that keeps the 80-box density
(+-36.7 m at 120 boxes), since the minimum separation leaves no room for
more at +-30 m. For each frame the script prints:

    anchor ms       one run of association._anchor_pass on the frame's
                    two scenes' arrays, its tables included
    anchors MB      the tracemalloc peak of that call
    associate MB    the tracemalloc peak of association.associate on fresh
                    copies of the frame's scenes, the whole association of
                    the frame (arrays, anchor pass and refinement)

Each peak is measured above what was allocated before the call, in its
own run. BLAS runs on one thread.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
import tracemalloc
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from boxcalib import NoiseConfig, ODistParams, Scene, SynthConfig, association, noisy_pair  # noqa: E402

SEED = 15
DENSE_BOXES = 80  # above this many boxes the square grows to keep their density


def frame(boxes: int, k: int):
    """(ego, coop) of frame k at the given number of boxes."""
    half = 30.0 * max(1.0, math.sqrt(boxes / DENSE_BOXES))
    base = SynthConfig(n_boxes=boxes, visibility=0.8, x_range=(-half, half), y_range=(-half, half))
    ego, coop, _ = noisy_pair(base, NoiseConfig(0.3, 3.0), np.random.SeedSequence([SEED, boxes, k]))
    return ego, coop


def traced_peak_mb(fn, *args) -> float:
    """The tracemalloc peak of fn(*args) above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def associate(ego, coop, params):
    """associate on fresh copies of the scenes, so that it builds their arrays."""
    try:
        association.associate(*(Scene(s.boxes, s.agent_id, s.frame_id) for s in (ego, coop)), params)
    except association.NoCoVisibleObjects:
        pass


def measure(ego, coop) -> tuple[float, float, float]:
    """(anchor ms, anchors MB, associate MB) of one frame."""
    params = ODistParams()
    arrays = ego._arrays, coop._arrays
    start = time.perf_counter()
    association._anchor_pass(*arrays, params)
    ms = 1e3 * (time.perf_counter() - start)
    return ms, traced_peak_mb(association._anchor_pass, *arrays, params), traced_peak_mb(associate, ego, coop, params)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 80, 120])
    parser.add_argument("--frames", type=int, default=3)
    args = parser.parse_args(argv)
    if min(args.sizes) < 1 or args.frames < 1:
        parser.error("--sizes and --frames must be at least 1")

    print(f"{'boxes':>6} {'frame':>5} {'ego x coop':>10} {'anchor ms':>10} {'anchors MB':>11} {'associate MB':>13}")
    for boxes in args.sizes:
        for k in range(args.frames):
            ego, coop = frame(boxes, k)
            ms, anchors_mb, associate_mb = measure(ego, coop)
            shape = f"{len(ego)} x {len(coop)}"
            print(f"{boxes:>6} {k:>5} {shape:>10} {ms:>10.1f} {anchors_mb:>11.2f} {associate_mb:>13.2f}")


if __name__ == "__main__":
    main()
