"""End-to-end calibration of a scene pair, and its error against a known transform.

calibrate_scenes builds the full scenes' arrays, cuts from them the rows
of the largest boxes (those top_k_by_volume keeps), associates them
(association: the anchor pass, then refinement of the best anchors), and
reports the winner's fit with its health on the full scenes. Refinement
already scored the winner's fit as alignment_score does, so when both
scenes are kept whole the health is read from it; otherwise the fit is
scored once more on the full scenes. The path loads no scipy module.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .association import MatchSet, NoCoVisibleObjects, ODistParams, _associate, _top_rows, alignment_score
from .geometry import DegenerateGeometry, RigidTransform, Scene, _SceneArrays
from .metrics import TrialError, rre, rte

DEFAULT_TOP_K = 15

# What calibrate_scenes raises when the scenes admit no transform.
CALIBRATION_FAILURES = (NoCoVisibleObjects, DegenerateGeometry)


@dataclass(frozen=True)
class CalibrationTrace:
    """Seconds one calibrate_scenes call spent in each of its stages, which
    are disjoint parts of its elapsed_s, and what refinement counted."""

    top_k_s: float  # the rows top_k_by_volume keeps of both scenes, and their arrays cut from the full scenes'
    scene_arrays_s: float  # the full scenes' arrays, 0 for a scene whose arrays an earlier call built
    anchor_pass_s: float  # every anchor's score
    refinement_s: float  # the choice of the best five anchors, their refits, the winner and its fit
    health_s: float  # the final transform's alignment score on the full scenes, unless refinement scored it
    refinement_rounds: int  # refinement rounds that fitted new valid sets, one _fit each
    sets_fitted: int  # distinct valid sets fitted, every seed's own set included


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
    yaw-and-translation fit of the matches' corners with equal weights,
    which association computed once while refining. The matches index the
    kept scenes, not the caller's. The health is the transform's
    alignment_score on the full scenes: read from refinement when top_k
    kept both scenes whole, scored anew otherwise. Raises NoCoVisibleObjects
    if association finds nothing and DegenerateGeometry if the matches fix
    no yaw, not if only a losing seed's valid set does.
    """
    start = time.perf_counter()
    full = ego._arrays, coop._arrays  # the health check's, and what the kept rows are cut from
    built = time.perf_counter()
    rows = _top_rows(ego, top_k), _top_rows(coop, top_k)  # None for a scene kept whole
    kept = [a if r is None else _SceneArrays(a.centers[r], a.dims[r], a.yaws[r]) for a, r in zip(full, rows)]
    topped = time.perf_counter()
    matches, transform, rms, health, seconds, counts = _associate(*kept, params)  # seconds: anchor pass, refinement
    matched = time.perf_counter()
    if any(r is not None for r in rows):
        health = alignment_score(ego, coop, transform, params)
    end = time.perf_counter()
    return CalibrationReport(
        transform=transform,
        matches=matches,
        rms_residual=rms,
        health_confidence=health.confidence,
        health_mean_distance=health.mean_distance,
        elapsed_s=end - start,
        trace=CalibrationTrace(topped - built, built - start, *seconds, end - matched, *counts),
    )


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
