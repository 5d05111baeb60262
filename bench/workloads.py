"""The benchmark's workloads, their ground truth and their output checks.

Inputs come from the workload seed through boxcalib's public synth API; the
library only ever sees the generated scenes. Ground truth (the true
transform and which coop box shows which ego object) is recovered here,
outside the library, because generate_scene_pair does not return its
coop-to-ego index map.

All three workloads are closed loops driven by one caller: the next op
starts when the previous one returns.
"""
from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from boxcalib import (
    DEFAULT_TOP_K,
    DegenerateGeometry,
    EmptyMatchSet,
    EventKind,
    MonitorState,
    MonitorStatus,
    NoCoVisibleObjects,
    NoiseConfig,
    ODistParams,
    Scene,
    SynthConfig,
    TrialError,
    alignment_score,
    build_affinity,
    build_feature_clouds,
    calibrate_scenes,
    generate_scene_pair,
    grid_product,
    inject_noise,
    random_yaw_transform,
    rre,
    rte,
    solve_assignment,
    step,
    top_k_by_volume,
    weighted_kabsch,
)
from boxcalib import io as bio
from spans import Tracer, call
from speed import NOMINAL_S, FrameReference, SpeedGauge, reference_kernel

# The outcomes synth.run_trial and the CLI treat as "no transform found".
CALIBRATION_ERRORS = (NoCoVisibleObjects, DegenerateGeometry, EmptyMatchSet)
# A coop center mapped through the true transform lands this close to its
# ego center (rounding only); any other ego center is >= 5 m away.
GT_TOL_M = 1e-6
# Criterion 1: a noise-free 15-box frame is recovered to 1e-6 m / 1e-6 deg.
EXACT_TOL = 1e-6


@dataclass
class OpRecord:
    latency_s: float  # the timed call: calibrate_scenes, or a whole monitor frame
    busy_s: float  # library time the op took; throughput is ops / total busy time
    error: str | None = None  # exception name when the op raised
    invalid: str | None = None  # why the output failed its check
    trial: TrialError = TrialError(math.inf, math.inf, solver_succeeded=False)
    matched: int = 0  # correspondences returned
    matched_correct: int = 0
    shared: int = 0  # true correspondences the calibration could have found
    discrete: tuple = ()  # discrete outputs, for the digest
    speed_kinds: tuple = ("compute",)  # the reference kernels that stand in for this op (see speed.py)
    factor: float = 1.0  # speed factor that scales the timings to the reference speed

    @property
    def failed(self) -> bool:
        return self.error is not None or self.invalid is not None


class GroundTruthError(AssertionError):
    """The generated pair breaks an assumption the ground-truth map relies on."""


def true_correspondences(ego: Scene, coop: Scene, transform) -> dict[int, int]:
    """coop index -> ego index of the same object, from noise-free scenes.

    Each coop center is mapped through the true transform to the nearest
    ego center. The generator keeps centers at least 5 m apart, so the
    nearest center is unique, and a coop box whose object the ego scene
    lacks is left out.
    """
    if not len(ego) or not len(coop):
        return {}
    ego_c = np.array([b.center for b in ego])
    moved = np.array([b.center for b in coop]) @ transform.rotation.T + transform.translation
    d = np.linalg.norm(moved[:, None, :] - ego_c[None, :, :], axis=-1)
    nearest = d.argmin(axis=1)
    return {j: int(i) for j, i in enumerate(nearest) if d[j, i] < GT_TOL_M}


def check_bijection(gt: dict[int, int], n_coop: int) -> None:
    """Every coop box of a generated pair shows a distinct ego object."""
    if len(gt) != n_coop or len(set(gt.values())) != n_coop:
        raise GroundTruthError(
            f"ground-truth map covers {len(gt)} of {n_coop} coop boxes "
            f"with {len(set(gt.values()))} distinct ego boxes"
        )


def kept_indices(full: Scene, kept: Scene) -> list[int]:
    """Index in `full` of each box of `kept`; top_k_by_volume keeps the box objects."""
    position = {id(b): i for i, b in enumerate(full.boxes)}
    return [position[id(b)] for b in kept.boxes]


def match_counts(pairs, ego_index, coop_index, gt) -> tuple[int, int]:
    """(correct, returned) for (ego, coop) index pairs into filtered scenes."""
    pairs = list(pairs)
    correct = sum(1 for e, c in pairs if gt.get(coop_index[c]) == ego_index[e])
    return correct, len(pairs)


def shared_count(gt, ego_index, coop_index) -> int:
    ego_kept = set(ego_index)
    return sum(1 for c in coop_index if gt.get(c) in ego_kept)


def report_problem(report, ego: Scene, coop: Scene, ego_k: Scene, coop_k: Scene) -> str | None:
    if len(report.matches) == 0:
        return "a report without matches"
    for m in report.matches:
        if not (0 <= m.ego_index < len(ego_k) and 0 <= m.coop_index < len(coop_k)):
            return f"match {m} indexes outside the filtered scenes"
    if not (math.isfinite(report.rms_residual) and report.rms_residual >= 0):
        return f"rms residual {report.rms_residual}"
    hc = report.health_confidence
    if hc != int(hc) or not 0 <= hc <= min(len(ego), len(coop)):
        return f"health confidence {hc} for {len(ego)} x {len(coop)} boxes"
    return None


# --- the traced decomposition of calibrate_scenes --------------------------------

def decomposed_calibrate(tracer: Tracer, ego: Scene, coop: Scene, top_k) -> tuple:
    """calibrate_scenes rebuilt from its public stages, one span per stage.

    Returns the report fields the untraced call is compared on. If the
    pipeline changes, the comparison shows a mismatch; the end-to-end run
    does not depend on this function.
    """
    params = ODistParams()
    with tracer.span("pipeline.calibrate_scenes"):
        ego_k = tracer.call("association.top_k_by_volume", top_k_by_volume, ego, top_k)
        coop_k = tracer.call("association.top_k_by_volume", top_k_by_volume, coop, top_k)
        tracer.count("top_k.input", len(ego) + len(coop))
        tracer.count("top_k.kept", len(ego_k) + len(coop_k))
        affinity = tracer.call("association.build_affinity", build_affinity, ego_k, coop_k, params)
        useful = affinity.entries > 0
        tracer.count("affinity.anchors", useful.size)
        tracer.count("affinity.useful", int(useful.sum()))
        tracer.count("affinity.flipped", int((useful & affinity.coop_flip).sum()))
        matches = tracer.call("association.solve_assignment", solve_assignment, affinity)
        tracer.count("assignment.cells", useful.size)
        tracer.count("assignment.matches", len(matches))
        if len(matches) == 0:  # as association.associate does
            raise NoCoVisibleObjects("no anchor pair supports a consistent scene alignment")
        corr = tracer.call(
            "registration.build_feature_clouds", build_feature_clouds, matches, ego_k, coop_k
        )
        result = tracer.call("registration.weighted_kabsch", weighted_kabsch, corr)
        tracer.count("kabsch.points", len(corr.weights))
        tracer.count("kabsch.rms_residual", result.rms_residual)
        health = tracer.call(
            "association.alignment_score", alignment_score, ego, coop, result.transform, params
        )
    return (result.transform, matches, result.rms_residual, health.confidence, health.mean_distance)


def _report_fields(report) -> tuple | None:
    if report is None:
        return None
    return (report.transform, report.matches, report.rms_residual,
            report.health_confidence, report.health_mean_distance)


def _same_calibration(a: tuple | None, a_error, b: tuple | None, b_error) -> bool:
    """Whether two calibrations, as report fields or the exception raised, agree exactly."""
    if a is None or b is None:
        return a is None and b is None and a_error == b_error
    (ta, *rest_a), (tb, *rest_b) = a, b
    return (
        np.array_equal(ta.rotation, tb.rotation)
        and np.array_equal(ta.translation, tb.translation)
        and rest_a == rest_b
    )


@dataclass
class Calibration:
    report: object  # CalibrationReport, or None when the call raised
    error: str | None
    invalid: str | None
    seconds: float


def _untraced_calibrate(ego: Scene, coop: Scene, top_k) -> Calibration:
    start = time.perf_counter()
    try:
        report = calibrate_scenes(ego, coop, ODistParams(), top_k)
    except CALIBRATION_ERRORS as e:
        return Calibration(None, type(e).__name__, None, time.perf_counter() - start)
    except Exception as e:  # any other exception is a defect: record it and keep running
        return Calibration(None, type(e).__name__, f"{type(e).__name__}: {e}", time.perf_counter() - start)
    return Calibration(report, None, None, time.perf_counter() - start)


def _traced_decomposition(tracer: Tracer, ego: Scene, coop: Scene, top_k):
    start = time.perf_counter()
    try:
        return decomposed_calibrate(tracer, ego, coop, top_k), None, time.perf_counter() - start
    except Exception as e:
        return None, type(e).__name__, time.perf_counter() - start


def compare_decomposition(tracer: Tracer, ego: Scene, coop: Scene, top_k, k: int) -> tuple[Calibration, float]:
    """The untraced call and the traced decomposition on the same scenes
    (in alternating order by op), compared exactly. Returns the untraced
    calibration and the traced minus the untraced time."""
    if k % 2:
        decomposed = _traced_decomposition(tracer, ego, coop, top_k)
        cal = _untraced_calibrate(ego, coop, top_k)
    else:
        cal = _untraced_calibrate(ego, coop, top_k)
        decomposed = _traced_decomposition(tracer, ego, coop, top_k)
    result, error, seconds = decomposed
    same = _same_calibration(_report_fields(cal.report), cal.error, result, error)
    tracer.count("trace.mismatch", 0 if same else 1)
    return cal, seconds - cal.seconds


def calibrate(ego: Scene, coop: Scene, top_k, tracer: Tracer | None, k: int, repeats: int) -> Calibration:
    """The timed calibrate_scenes call: untraced, the fastest of `repeats`
    runs on the same scenes; traced, one run next to the decomposition."""
    if tracer is None:
        cal = _untraced_calibrate(ego, coop, top_k)
        for _ in range(repeats - 1):
            again = _untraced_calibrate(ego, coop, top_k)
            if not _same_calibration(_report_fields(cal.report), cal.error,
                                     _report_fields(again.report), again.error):
                cal.invalid = cal.invalid or "calibrate_scenes gave two answers for one frame"
            cal.seconds = min(cal.seconds, again.seconds)
        return cal
    cal, overhead_s = compare_decomposition(tracer, ego, coop, top_k, k)
    tracer.count("trace.overhead_s", overhead_s)
    return cal


def score_calibration(
    rec: OpRecord, cal: Calibration, ego: Scene, coop: Scene, top_k, gt: dict[int, int]
) -> None:
    """Fill the match counts, the digest entry and the output check of a calibration op."""
    ego_index = kept_indices(ego, top_k_by_volume(ego, top_k))
    coop_index = kept_indices(coop, top_k_by_volume(coop, top_k))
    rec.shared = shared_count(gt, ego_index, coop_index)
    if cal.report is None:
        rec.discrete = ("raised", cal.error)
        return
    pairs = [(m.ego_index, m.coop_index) for m in cal.report.matches]
    rec.discrete = tuple((m.ego_index, m.coop_index, m.coop_yaw_flipped) for m in cal.report.matches)
    rec.invalid = report_problem(
        cal.report, ego, coop, Scene(tuple(ego[i] for i in ego_index)), Scene(tuple(coop[i] for i in coop_index))
    )
    if rec.invalid is None:
        rec.matched_correct, rec.matched = match_counts(pairs, ego_index, coop_index, gt)


def _scored_trial(tracer: Tracer | None, est, truth) -> TrialError:
    """RRE/RTE of an estimated transform; None means no transform was found."""
    if est is None:
        return TrialError(math.inf, math.inf, solver_succeeded=False)
    with tracer.span("metrics.score") if tracer is not None else nullcontext():
        return TrialError(rre(truth.rotation, est.rotation), rte(truth.translation, est.translation))


def _estimate(cal: Calibration):
    return None if cal.report is None else cal.report.transform


def _seeds(*entropy: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(list(entropy)).generate_state(count, np.uint64)]


class Workload:
    """What run.py drives: `run(k, tracer)` runs op k and returns its record.

    `cycle` is the length of the input mix a run ends on; `digest_ops` the
    number of leading ops the detail line digests.

    `repeats` is how many times an untraced op is timed on the same input;
    the fastest time is kept. It is fixed per workload, so that faster or
    slower code is timed the same way. On a shared machine, stalls of tens
    of milliseconds hit a few percent of short ops and would otherwise
    decide the tail, and millisecond ops see jitter in file and system calls.
    """

    cycle = 1
    digest_ops = 0
    repeats = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def prepare(self, tracer: Tracer | None = None) -> None:
        """Build inputs that must exist before the set-up probes run."""

    def reset(self) -> None:
        """Forget state carried from op to op (after the warm-up op)."""

    def speed_gauge(self) -> SpeedGauge:
        """The machine-speed gauge whose reference kernel stands in for this workload's ops."""
        return SpeedGauge()


# --- sweep15 ------------------------------------------------------------------------

SWEEP_GRID = grid_product((0.0, 0.5, 1.0, 2.0), (0.0, 10.0, 25.0))  # boxcalib sweep's default grid
SWEEP_BASE = SynthConfig(n_boxes=15, visibility=1.0)


class Sweep15(Workload):
    """One op is one noise-sweep trial, as synth.run_trial makes it, with the
    calibrate_scenes call timed on its own. Trials go round-robin over the
    12 grid cells; trial t of cell c draws from the stream (seed, c, t) as
    noise_sweep does."""

    cycle = len(SWEEP_GRID)
    digest_ops = 8 * cycle
    repeats = 2
    top_k = DEFAULT_TOP_K

    def first_op_s(self) -> float:
        ego, coop, _, _, _ = self.frame(0)
        return _untraced_calibrate(ego, coop, self.top_k).seconds

    def frame(self, k: int, tracer: Tracer | None = None):
        """(noisy ego, noisy coop, truth, gt, synth_s) of trial k, as
        synth.run_trial draws them; synth_s times the draw, not the ground truth."""
        start = time.perf_counter()
        cell = k % len(SWEEP_GRID)
        noise = SWEEP_GRID[cell]
        s_scene, s_transform, s_ego, s_coop = _seeds(self.seed, cell, k // len(SWEEP_GRID), count=4)
        transform = random_yaw_transform(np.random.default_rng(s_transform))
        ego, coop, truth = call(
            tracer, "synth.generate_scene_pair", generate_scene_pair,
            replace(SWEEP_BASE, seed=s_scene, coop_transform=transform),
        )
        ego_n = call(tracer, "synth.inject_noise", inject_noise, ego,
                     NoiseConfig(noise.sigma_pos, noise.yaw_std_deg, seed=s_ego))
        coop_n = call(tracer, "synth.inject_noise", inject_noise, coop,
                      NoiseConfig(noise.sigma_pos, noise.yaw_std_deg, seed=s_coop))
        synth_s = time.perf_counter() - start
        gt = true_correspondences(ego, coop, truth)
        check_bijection(gt, len(coop))
        return ego_n, coop_n, truth, gt, synth_s

    def run(self, k: int, tracer: Tracer | None = None) -> OpRecord:
        ego, coop, truth, gt, synth_s = self.frame(k, tracer)
        cal = calibrate(ego, coop, self.top_k, tracer, k, self.repeats)
        start = time.perf_counter()
        trial = _scored_trial(tracer, _estimate(cal), truth)
        busy_s = synth_s + cal.seconds + time.perf_counter() - start
        rec = OpRecord(cal.seconds, busy_s, cal.error, cal.invalid, trial)
        score_calibration(rec, cal, ego, coop, self.top_k, gt)
        noise = SWEEP_GRID[k % len(SWEEP_GRID)]
        if rec.invalid is None and noise.sigma_pos == 0.0 and noise.yaw_std_deg == 0.0:
            if not (trial.solver_succeeded and trial.rte_m < EXACT_TOL and trial.rre_deg < EXACT_TOL):
                rec.invalid = f"noise-free frame not recovered exactly: {trial}"
        return rec


# --- dense32 ------------------------------------------------------------------------

DENSE_BASE = SynthConfig(n_boxes=40, visibility=0.8)
DENSE_EGO_DROP = 8
DENSE_NOISE = (0.3, 3.0)  # odd frames; even frames are noise-free


class Dense32(Workload):
    """One op is one calibrate_scenes call with top_k=None on a 32 x 32 frame.

    A 40-box scene is generated; the coop agent sees 80 % of it (32 boxes),
    then 8 seeded ego boxes are dropped, so both sides hold private boxes
    and about 26 are shared."""

    cycle = 2
    digest_ops = 16
    top_k = None

    def first_op_s(self) -> float:
        ego, coop, _, _ = self.frame(0)
        return _untraced_calibrate(ego, coop, self.top_k).seconds

    def frame(self, k: int, tracer: Tracer | None = None):
        """(ego, coop, truth, gt) of frame k, gt indexing the dropped-down ego scene."""
        s_scene, s_transform, s_drop, s_ego, s_coop = _seeds(self.seed, k, count=5)
        transform = random_yaw_transform(np.random.default_rng(s_transform))
        ego_all, coop, truth = call(
            tracer, "synth.generate_scene_pair", generate_scene_pair,
            replace(DENSE_BASE, seed=s_scene, coop_transform=transform),
        )
        gt_all = true_correspondences(ego_all, coop, truth)
        check_bijection(gt_all, len(coop))
        dropped = set(np.random.default_rng(s_drop).choice(len(ego_all), DENSE_EGO_DROP, replace=False).tolist())
        keep = [i for i in range(len(ego_all)) if i not in dropped]
        ego = Scene(tuple(ego_all[i] for i in keep), ego_all.agent_id, ego_all.frame_id)
        new_index = {old: new for new, old in enumerate(keep)}
        gt = {c: new_index[e] for c, e in gt_all.items() if e in new_index}
        sigma, yaw = DENSE_NOISE if k % 2 else (0.0, 0.0)
        ego = call(tracer, "synth.inject_noise", inject_noise, ego, NoiseConfig(sigma, yaw, seed=s_ego))
        coop = call(tracer, "synth.inject_noise", inject_noise, coop, NoiseConfig(sigma, yaw, seed=s_coop))
        return ego, coop, truth, gt

    def run(self, k: int, tracer: Tracer | None = None) -> OpRecord:
        ego, coop, truth, gt = self.frame(k, tracer)
        cal = calibrate(ego, coop, self.top_k, tracer, k, self.repeats)
        rec = OpRecord(cal.seconds, cal.seconds, cal.error, cal.invalid, _scored_trial(tracer, _estimate(cal), truth))
        score_calibration(rec, cal, ego, coop, self.top_k, gt)
        return rec


# --- monitor_stream -------------------------------------------------------------------

MONITOR_FRAMES = 360
MONITOR_JUMP_EVERY = 20  # the true extrinsic changes every 20 frames
MONITOR_LOSS = frozenset({10, 11, 12})  # frames of each 20 in which coop sees none of the ego's objects
MONITOR_EVENT_FRAMES = 60  # the traced run counts the events of this many frames
MONITOR_BASE = SynthConfig(n_boxes=15, visibility=0.8)
MONITOR_NOISE = (0.1, 2.0)


def monitor_path(events) -> str:
    """Which branch of monitor.step a frame took, from the events it emitted."""
    kinds = {e.kind for e in events}
    if kinds & {EventKind.DEGRADED_ENTERED, EventKind.ALERT_RAISED}:
        return "exhausted"
    if kinds & {EventKind.RECALIBRATED, EventKind.BOOT_CALIBRATED}:
        return "recal"
    return "health"


_STATUS_AFTER = {
    EventKind.HEALTH_OK: {MonitorStatus.CALIBRATED},
    EventKind.BOOT_CALIBRATED: {MonitorStatus.CALIBRATED},
    EventKind.RECALIBRATED: {MonitorStatus.CALIBRATED},
    EventKind.DEGRADED_ENTERED: {MonitorStatus.DEGRADED},
    EventKind.ALERT_RAISED: {MonitorStatus.ALERT, MonitorStatus.UNCALIBRATED},
}


def transition_problem(before: MonitorState, after: MonitorState, events) -> str | None:
    if after.frame_count != before.frame_count + 1:
        return f"frame count {before.frame_count} -> {after.frame_count}"
    if not events or any(e.frame_id != before.frame_count for e in events):
        return f"events {events} for frame {before.frame_count}"
    allowed = _STATUS_AFTER.get(events[-1].kind)
    if allowed is None or after.status not in allowed:
        return f"status {after.status} after {events[-1].kind}"
    return None


def _same_state(a: MonitorState, b: MonitorState, rotation_tol: float = 0.0) -> bool:
    ea, eb = a.current_extrinsic, b.current_extrinsic
    same_extrinsic = (ea is None and eb is None) or (
        ea is not None and eb is not None
        and np.max(np.abs(ea.rotation - eb.rotation)) <= rotation_tol
        and np.array_equal(ea.translation, eb.translation)
    )
    return same_extrinsic and (a.status, a.last_health, a.frame_count) == (b.status, b.last_health, b.frame_count)


class MonitorStream(Workload):
    """One op is one frame, run as `boxcalib monitor` runs it: load the frame
    pair with io.load_scene, monitor.step, then persist with io.save_extrinsic
    and io.save_state.

    The frames are written to JSON before the run. The true extrinsic jumps
    every 20 frames (forcing a recalibration), and in the middle of each 20
    a 3-frame stretch shows the coop agent none of the ego's objects
    (retries run out and the monitor degrades). Each pass over the 360
    frames restarts the monitor from boot.
    """

    cycle = MONITOR_JUMP_EVERY
    digest_ops = MONITOR_EVENT_FRAMES
    repeats = 2

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.work = work
        self.frames = work / "frames"
        self.out = work / "out"
        self.truths: list = []
        self.gts: list[dict[int, int]] = []
        self.state = MonitorState.initial()

    def scene_paths(self, f: int) -> tuple[Path, Path]:
        return self.frames / f"{f:04d}.ego.json", self.frames / f"{f:04d}.coop.json"

    def prepare(self, tracer: Tracer | None = None) -> None:
        self.frames.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        n_truths = MONITOR_FRAMES // MONITOR_JUMP_EVERY
        truths = [
            random_yaw_transform(np.random.default_rng(_seeds(self.seed, 0, i, count=1)[0]))
            for i in range(n_truths)
        ]
        sigma, yaw = MONITOR_NOISE
        for f in range(MONITOR_FRAMES):
            if tracer is not None:
                tracer.op = -1 - f  # each generated frame is its own op
            truth = truths[f // MONITOR_JUMP_EVERY]
            s_scene, s_other, s_ego, s_coop = _seeds(self.seed, 1, f, count=4)
            ego, coop, _ = call(tracer, "synth.generate_scene_pair", generate_scene_pair,
                                replace(MONITOR_BASE, seed=s_scene, coop_transform=truth))
            check_bijection(true_correspondences(ego, coop, truth), len(coop))
            if f % MONITOR_JUMP_EVERY in MONITOR_LOSS:
                # the coop view of another world: no object is shared
                _, coop, _ = call(tracer, "synth.generate_scene_pair", generate_scene_pair,
                                  replace(MONITOR_BASE, seed=s_other, coop_transform=truth))
            gt = true_correspondences(ego, coop, truth)
            ego = call(tracer, "synth.inject_noise", inject_noise, ego, NoiseConfig(sigma, yaw, seed=s_ego))
            coop = call(tracer, "synth.inject_noise", inject_noise, coop, NoiseConfig(sigma, yaw, seed=s_coop))
            ego_path, coop_path = self.scene_paths(f)
            bio.save_scene(ego, ego_path)
            bio.save_scene(coop, coop_path)
            self.truths.append(truth)
            self.gts.append(gt)

    def reset(self) -> None:
        self.state = MonitorState.initial()

    def speed_gauge(self) -> SpeedGauge:
        return SpeedGauge({
            "compute": (reference_kernel, NOMINAL_S),
            "io": (FrameReference(self.work), FrameReference.NOMINAL_S),
        })

    def first_op_s(self) -> float:
        return self._frame(0, MonitorState.initial(), None)[-1]

    def _frame(self, f: int, state: MonitorState, tracer: Tracer | None):
        ego_path, coop_path = self.scene_paths(f)
        start = time.perf_counter()
        ego = call(tracer, "io.load_scene", bio.load_scene, ego_path)
        coop = call(tracer, "io.load_scene", bio.load_scene, coop_path)
        if tracer is None:
            new_state, events = step(state, ego, coop)
        else:
            with tracer.span("monitor.step") as span:
                new_state, events = step(state, ego, coop)
            span.attrs["path"] = monitor_path(events)
            span.attrs["attempts"] = events[-1].attempt
        if new_state.current_extrinsic is not None:
            call(tracer, "io.save_extrinsic", bio.save_extrinsic, new_state.current_extrinsic,
                 self.out / "extrinsic.json")
        call(tracer, "io.save_state", bio.save_state, new_state, self.out / "state.json")
        return ego, coop, new_state, events, time.perf_counter() - start

    def run(self, k: int, tracer: Tracer | None = None) -> OpRecord:
        f = k % MONITOR_FRAMES
        if f == 0:
            self.reset()
        before = self.state
        try:
            if tracer is None:
                ego, coop, after, events, seconds = self._frame(f, before, None)
                for _ in range(self.repeats - 1):
                    again = self._frame(f, before, None)
                    if again[3] != events or not _same_state(again[2], after):
                        raise RuntimeError("monitor.step gave two answers for one frame")
                    seconds = min(seconds, again[-1])
            else:
                ego, coop, after, events, seconds = self._traced_frame(f, before, tracer, k)
        except Exception as e:  # a frame must not raise: record it and keep running
            name = type(e).__name__
            return OpRecord(math.nan, 0.0, name, f"{name}: {e}", discrete=("raised", name))
        self.state = after
        rec = OpRecord(seconds, seconds, discrete=tuple((e.kind.value, e.attempt) for e in events))
        if monitor_path(events) == "health":
            # part computation, part file io; frames that calibrate are mostly computation
            rec.speed_kinds = ("compute", "io")
        rec.invalid = transition_problem(before, after, events)
        gt, truth, held = self.gts[f], self.truths[f], after.current_extrinsic
        rec.shared = len(gt)
        if held is not None:
            # the held extrinsic, scored and paired as a consumer of it would
            rec.trial = _scored_trial(tracer, held, truth)
            pairs = call(tracer, "association.alignment_score", alignment_score, ego, coop, held).valid_pairs
            rec.matched = len(pairs)
            rec.matched_correct = sum(1 for i, j, _ in pairs if gt.get(j) == i)
        if tracer is not None:
            if monitor_path(events) != "health":
                # what the monitor's calibration ran, decomposed into stages
                compare_decomposition(tracer, ego, coop, DEFAULT_TOP_K, k)
            if k < MONITOR_EVENT_FRAMES:
                for e in events:
                    tracer.count(f"events.{e.kind.value}", 1)
            for path in self.scene_paths(f):
                tracer.count("io.load_scene.bytes", path.stat().st_size)
        if rec.invalid is None and f == MONITOR_FRAMES - 1:
            saved = bio.load_state(self.out / "state.json")
            # io snaps a loaded rotation to the nearest orthonormal matrix
            if not _same_state(saved, after, rotation_tol=1e-12):
                rec.invalid = "state.json does not round-trip the monitor state"
        return rec

    def _traced_frame(self, f: int, before: MonitorState, tracer: Tracer, k: int):
        """The frame untraced and traced, in alternating order; step is a pure
        function, so both must give the same state and events."""
        if k % 2:
            traced = self._frame(f, before, tracer)
            untraced = self._frame(f, before, None)
        else:
            untraced = self._frame(f, before, None)
            traced = self._frame(f, before, tracer)
        tracer.count("trace.overhead_s", traced[-1] - untraced[-1])
        same = traced[3] == untraced[3] and _same_state(traced[2], untraced[2])
        tracer.count("trace.mismatch", 0 if same else 1)
        return untraced


WORKLOADS = {"sweep15": Sweep15, "dense32": Dense32, "monitor_stream": MonitorStream}
