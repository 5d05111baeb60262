"""Machine-speed reference for the timings.

On a shared 2-CPU virtual machine the same work switches between a fast
and a slow state several times a second; the slow state is about 1.7x
slower and the process's CPU time grows with it, so it is not time spent
descheduled. A fixed reference kernel, independent of boxcalib, is timed
right before every op, and every timing is reported scaled to the speed
at which that kernel takes its nominal time:

    reported = measured * nominal / (mean reference time around the op)

The kernel stands in for the op: anchor scoring for calibrations and for
monitor frames that calibrate. A monitor frame that only checks health is
part computation and part file io, which the slow state slows more; its
reference is the anchor-scoring kernel and a file-io-heavy frame
(FrameReference) taken together, their nominal times summed.

The samples around an op are those taken just before it and just after
it: one per SPACING_S of wall time since the previous round, from one (a
short op) up to MAX_BURST (a long op). The mean, not the median, follows
the share of time spent in the slow state.

The raw timings and the scale factors are kept in the detail line.
"""
from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

NOMINAL_S = 0.001  # reference kernel time in the machine's fast state
SPACING_S = 0.02
MAX_BURST = 8

N_BOXES = 15
ITERATIONS = 14

_rng = np.random.default_rng(20241011)
_EGO = _rng.normal(scale=2.0, size=(N_BOXES, 8, 3)) + _rng.uniform(-30.0, 30.0, size=(N_BOXES, 1, 3))
_COOP = _EGO + _rng.normal(scale=0.3, size=_EGO.shape)
_EGO_C = _EGO.mean(axis=1)
_COOP_C = _COOP.mean(axis=1)


def reference_kernel(iterations: int = ITERATIONS) -> int:
    """A fixed stand-in for anchor scoring on a 15-box frame (about 1 ms):
    per anchor a 3x3 SVD, a whole-scene broadcast distance, a sort and a
    greedy Python pairing loop. Its slowdown in the machine's slow state
    matches that of boxcalib's own anchor scoring within a few percent, at
    15 and 32 boxes."""
    n = N_BOXES
    paired = 0
    for it in range(iterations):
        i, j = it % n, (it * 7) % n
        u, _, vt = np.linalg.svd((_EGO[i] - _EGO_C[i]).T @ (_COOP[j] - _COOP_C[j]))
        rotation = u @ vt
        shift = _EGO_C[i] - rotation @ _COOP_C[j]
        centers = _COOP_C @ rotation.T + shift
        corners = _COOP @ rotation.T + shift
        diff = _EGO[:, None] - corners[None]
        d = np.linalg.norm(_EGO_C[:, None, :] - centers[None, :, :], axis=-1)
        d += 0.35 * np.sqrt(np.einsum("ijkl,ijkl->ij", diff, diff))
        flat = np.flatnonzero(d <= 3.0)
        order = flat[np.argsort(d.reshape(-1)[flat], kind="stable")]
        row_used = np.zeros(n, dtype=bool)
        col_used = np.zeros(n, dtype=bool)
        for f in order:
            a, b = divmod(int(f), n)
            if not (row_used[a] or col_used[b]):
                row_used[a] = col_used[b] = True
                paired += 1
    return paired


class FrameReference:
    """A stand-in for a healthy monitor frame, whose time is mostly file io,
    which the slow state slows more than computation: read and parse two
    4 KB JSON files, a short burst of the anchor-scoring kernel, then write
    two small JSON files atomically (temp file, then rename)."""

    NOMINAL_S = 0.00085  # time in the machine's fast state

    def __init__(self, work: Path):
        self.dir = work / "reference"
        self.dir.mkdir(parents=True, exist_ok=True)
        boxes = [{"center": c.tolist(), "dims": [4.0, 2.0, 1.5], "yaw": 0.5, "confidence": 1.0}
                 for c in _EGO_C]
        self.scene = json.dumps({"agent_id": "ego", "frame_id": 0, "boxes": boxes}, indent=2)
        self.state = json.dumps({"status": "Calibrated", "frame_count": 1, "last_health": [12.0, 0.5],
                                 "extrinsic": {"rotation": np.eye(3).ravel().tolist(),
                                               "translation": [1.0, 2.0, 0.0]}}, indent=2)
        for name in ("ego.json", "coop.json"):
            (self.dir / name).write_text(self.scene)

    def __call__(self) -> None:
        for name in ("ego.json", "coop.json"):
            json.loads((self.dir / name).read_text())
        reference_kernel(iterations=3)
        for name in ("state.json", "extrinsic.json"):
            fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=name, suffix=".tmp")
            with os.fdopen(fd, "w") as f:
                f.write(self.state)
            os.replace(tmp, self.dir / name)


def time_reference(kernel=reference_kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedGauge:
    """Reference samples of one or more kernels, each with its nominal time;
    an op is scaled by the kernels of its kinds."""

    def __init__(self, kernels: dict | None = None):
        self.kernels = kernels or {"compute": (reference_kernel, NOMINAL_S)}
        self.samples: dict[str, list[float]] = {kind: [] for kind in self.kernels}
        for kernel, _ in self.kernels.values():
            for _ in range(3):  # warm-up
                time_reference(kernel)
        self._last = time.perf_counter()

    def tick(self) -> int:
        """Sample the references between two ops; returns the index of this
        round's first sample."""
        first = len(self.samples["compute"])
        rounds = round((time.perf_counter() - self._last) / SPACING_S)
        for _ in range(max(1, min(MAX_BURST, rounds))):
            for kind, (kernel, _) in self.kernels.items():
                self.samples[kind].append(time_reference(kernel))
        self._last = time.perf_counter()
        return first

    def factor(self, first: int, end: int, kinds: tuple[str, ...] = ("compute",)) -> float:
        """Multiply a time measured between the rounds that took samples
        first..end-1 by this to get it at the reference speed. Several
        kinds are taken together as one reference."""
        nominal = sum(self.kernels[kind][1] for kind in kinds)
        return nominal / sum(statistics.fmean(self.samples[kind][first:end]) for kind in kinds)
