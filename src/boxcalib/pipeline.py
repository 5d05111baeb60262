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
class CalibrationReport:
    """Estimated coop-to-ego transform plus diagnostics."""

    transform: RigidTransform
    matches: MatchSet
    rms_residual: float
    health_confidence: float  # valid-set size of the final transform on the full scenes
    health_mean_distance: float
    elapsed_s: float


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
    computed once while refining. Raises NoCoVisibleObjects if association finds nothing and
    DegenerateGeometry if the matched corners do not pin down a rotation.
    """
    start = time.perf_counter()
    matches, result, health = _calibrate(ego, coop, (_SceneArrays(ego), _SceneArrays(coop)), params, top_k)
    return CalibrationReport(
        transform=result.transform,
        matches=matches,
        rms_residual=result.rms_residual,
        health_confidence=health.confidence,
        health_mean_distance=health.mean_distance,
        elapsed_s=time.perf_counter() - start,
    )


def _calibrate(ego: Scene, coop: Scene, full, params: ODistParams, top_k: int | None):
    """calibrate_scenes's matches, fit and health on the scenes' arrays full."""
    tops = top_k_by_volume(ego, top_k), top_k_by_volume(coop, top_k)  # a scene itself if kept whole
    kept = [a if t is s else _SceneArrays(t) for a, s, t in zip(full, (ego, coop), tops)]
    matches, result = _associate(*kept, params)
    return matches, result, _alignment(*full, result.transform, params)


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
