"""End-to-end calibration of a scene pair, and its error against a known transform."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .association import (
    MatchSet,
    NoCoVisibleObjects,
    ODistParams,
    _alignment,
    _associate,
    _SceneArrays,
    top_k_by_volume,
)
from .geometry import RigidTransform, Scene
from .metrics import TrialError, rre, rte
from .registration import DegenerateGeometry

DEFAULT_TOP_K = 15

# What calibrate_scenes raises when the scenes admit no transform.
CALIBRATION_FAILURES = (NoCoVisibleObjects, DegenerateGeometry)


@dataclass(frozen=True)
class CalibrationTrace:
    """Seconds one calibrate_scenes call spent in each of its stages, which
    are disjoint parts of its elapsed_s, and what refinement counted."""

    top_k_s: float  # top_k_by_volume of both scenes
    scene_arrays_s: float  # every scene's arrays built, the full scenes' and the kept ones'
    anchor_pass_s: float  # every anchor's score and the affinity matrix
    assignment_s: float  # solve_assignment
    refinement_s: float  # the best five assigned anchors' refits, the winner and its fit
    health_s: float  # the final transform's alignment score on the full scenes
    refinement_rounds: int  # refinement rounds that fitted new valid sets, one _fit each
    sets_fitted: int  # distinct valid sets fitted, a one-pair winner's one fit included


@dataclass(frozen=True)
class CalibrationReport:
    """Estimated coop-to-ego transform plus diagnostics. The matches index
    the scenes as top_k_by_volume(scene, top_k) returns them, which are the
    caller's indices only when top_k is None or no smaller than the scene."""

    transform: RigidTransform
    matches: MatchSet
    rms_residual: float
    health_confidence: float  # valid-set size of the final transform on the full scenes
    health_mean_distance: float
    elapsed_s: float
    trace: CalibrationTrace


def calibrate_scenes(
    ego: Scene,
    coop: Scene,
    params: ODistParams = ODistParams(),
    top_k: int | None = DEFAULT_TOP_K,
) -> CalibrationReport:
    """Estimate the rigid transform taking coop-frame points to the ego frame.

    Large boxes are kept (top_k per scene) before association: bigger
    objects are detected more consistently and their corners constrain
    the alignment better per pair. The transform and rms_residual are the
    corner fit of the matches with equal weights, which association
    computed once while refining. The matches index the kept scenes, not
    the caller's. Raises NoCoVisibleObjects if association finds nothing and
    DegenerateGeometry if the matched corners do not pin down a rotation.
    """
    start = time.perf_counter()
    full = _SceneArrays(ego), _SceneArrays(coop)
    arrays_s = time.perf_counter() - start
    matches, result, health, (top_k_s, kept_s, *traced) = _calibrate(ego, coop, full, params, top_k)
    return CalibrationReport(
        transform=result.transform,
        matches=matches,
        rms_residual=result.rms_residual,
        health_confidence=health.confidence,
        health_mean_distance=health.mean_distance,
        elapsed_s=time.perf_counter() - start,
        trace=CalibrationTrace(top_k_s, arrays_s + kept_s, *traced),
    )


def _calibrate(ego: Scene, coop: Scene, full, params: ODistParams, top_k: int | None):
    """calibrate_scenes's matches, fit and health on the scenes' arrays
    full, and the seconds of its stages and refinement's counts in
    CalibrationTrace's order, the kept scenes' arrays only under scene
    arrays."""
    start = time.perf_counter()
    tops = top_k_by_volume(ego, top_k), top_k_by_volume(coop, top_k)  # a scene itself if kept whole
    topped = time.perf_counter()
    kept = [a if t is s else _SceneArrays(t) for a, s, t in zip(full, (ego, coop), tops)]
    built = time.perf_counter()
    matches, result, associated, counts = _associate(*kept, params)
    matched = time.perf_counter()
    health = _alignment(*full, result.transform, params)
    traced = (topped - start, built - topped, *associated, time.perf_counter() - matched, *counts)
    return matches, result, health, traced


def trial_error(
    ego: Scene,
    coop: Scene,
    truth: RigidTransform,
    params: ODistParams = ODistParams(),
    top_k: int | None = DEFAULT_TOP_K,
) -> TrialError:
    """Calibrate a scene pair and score the estimate against the true
    transform; a calibration failure is a failed trial."""
    try:
        report = calibrate_scenes(ego, coop, params, top_k)
    except CALIBRATION_FAILURES:
        return TrialError(math.inf, math.inf, solver_succeeded=False)
    return TrialError(
        rre(truth.rotation, report.transform.rotation),
        rte(truth.translation, report.transform.translation),
    )
