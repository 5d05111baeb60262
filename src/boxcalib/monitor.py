"""Runtime calibration monitoring.

Each frame, the stored extrinsic is scored against the live scene pair
(health_check). While healthy it is kept; when the score degrades past a
threshold, calibration is re-run once on that frame and its result is kept
only if it passes the same health gate. The first frame uses the boot
threshold, later frames the monitor threshold.

step() and unreadable_frame() are pure transition functions: persistence
and frame acquisition belong to the caller (see the monitor CLI command).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .association import ODistParams, alignment_score
from .geometry import RigidTransform, Scene
from .pipeline import CALIBRATION_FAILURES, DEFAULT_TOP_K, calibrate_scenes


@dataclass(frozen=True)
class MonitorConfig:
    theta_boot: float = 1.0  # mean-distance gate at boot, meters
    theta_monitor: float = 1.0  # mean-distance gate per frame, meters
    min_confidence: int = 3  # least valid-set size considered trustworthy

    def __post_init__(self):
        if not (0 < self.theta_boot < math.inf and 0 < self.theta_monitor < math.inf):
            raise ValueError("thresholds must be positive and finite")
        if self.min_confidence < 1:
            raise ValueError("min_confidence must be >= 1")


class MonitorStatus(str, Enum):
    UNCALIBRATED = "Uncalibrated"
    CALIBRATED = "Calibrated"
    DEGRADED = "Degraded"
    ALERT = "Alert"


class EventKind(str, Enum):
    BOOT_CALIBRATED = "BootCalibrated"
    HEALTH_OK = "HealthOk"
    RECALIBRATED = "Recalibrated"
    ALERT_RAISED = "AlertRaised"
    DEGRADED_ENTERED = "DegradedEntered"


@dataclass(frozen=True)
class MonitorEvent:
    frame_id: int
    kind: EventKind
    confidence: float
    mean_distance: float
    attempt: int  # 1 for the outcome of the frame's calibration, 0 where none ran: health, unreadable frame


@dataclass(frozen=True)
class MonitorState:
    current_extrinsic: RigidTransform | None
    status: MonitorStatus
    last_health: tuple[float, float] | None  # (confidence, mean_distance)
    frame_count: int

    def __post_init__(self):
        if (self.current_extrinsic is None) != (self.status is MonitorStatus.UNCALIBRATED):
            raise ValueError("status is Uncalibrated exactly when no extrinsic is held")
        if self.frame_count < 0:
            raise ValueError("frame_count must be nonnegative")

    @staticmethod
    def initial(stored: RigidTransform | None = None) -> "MonitorState":
        status = MonitorStatus.UNCALIBRATED if stored is None else MonitorStatus.CALIBRATED
        return MonitorState(stored, status, None, 0)


def health_check(
    ego: Scene, coop: Scene, transform: RigidTransform, params: ODistParams = ODistParams()
) -> tuple[float, float]:
    """(valid-set size, mean pair distance) of a transform on a scene pair."""
    score = alignment_score(ego, coop, transform, params)
    return score.confidence, score.mean_distance


def _healthy(confidence: float, mean_distance: float, theta: float, min_confidence: int) -> bool:
    return mean_distance <= theta and confidence >= min_confidence


def step(
    state: MonitorState,
    ego: Scene,
    coop: Scene,
    cfg: MonitorConfig = MonitorConfig(),
    params: ODistParams = ODistParams(),
    top_k: int | None = DEFAULT_TOP_K,
) -> tuple[MonitorState, list[MonitorEvent]]:
    """Process one frame; returns the successor state and emitted events.

    The boot gate (theta_boot) applies on the first frame, whether the
    extrinsic was restored from storage or is yet to be estimated; the
    monitor gate applies afterwards. On calibration failure the previous
    extrinsic, if any, is kept: at boot this raises an alert, at runtime
    it enters degraded operation. A frame that calibrates emits one event,
    attempt 1, carrying the health of the calibrated transform (0 and inf
    when calibration found none).
    """
    frame = state.frame_count
    boot_phase = frame == 0 or state.status is MonitorStatus.UNCALIBRATED
    theta = cfg.theta_boot if boot_phase else cfg.theta_monitor

    measured: tuple[float, float] | None = None
    if state.current_extrinsic is not None:
        measured = health_check(ego, coop, state.current_extrinsic, params)
        if _healthy(*measured, theta, cfg.min_confidence):
            kept = MonitorState(state.current_extrinsic, MonitorStatus.CALIBRATED, measured, frame + 1)
            return kept, [MonitorEvent(frame, EventKind.HEALTH_OK, *measured, 0)]

    try:
        report = calibrate_scenes(ego, coop, params, top_k)
    except CALIBRATION_FAILURES:
        report, health = None, (0.0, math.inf)
    else:
        health = report.health_confidence, report.health_mean_distance
    if report is not None and _healthy(*health, theta, cfg.min_confidence):
        kind = EventKind.BOOT_CALIBRATED if boot_phase else EventKind.RECALIBRATED
        new_state = MonitorState(report.transform, MonitorStatus.CALIBRATED, health, frame + 1)
    else:
        if boot_phase:
            kind = EventKind.ALERT_RAISED
            no_extrinsic = state.current_extrinsic is None
            status = MonitorStatus.UNCALIBRATED if no_extrinsic else MonitorStatus.ALERT
        else:
            kind, status = EventKind.DEGRADED_ENTERED, MonitorStatus.DEGRADED
        new_state = MonitorState(state.current_extrinsic, status, measured, frame + 1)
    return new_state, [MonitorEvent(frame, kind, *health, 1)]


def unreadable_frame(state: MonitorState) -> tuple[MonitorState, MonitorEvent]:
    """Transition for a frame whose scenes could not be read.

    A held extrinsic is kept in degraded operation with its last health;
    without one the monitor stays uncalibrated. The event carries no
    health (confidence 0, mean distance inf).
    """
    frame = state.frame_count
    event = MonitorEvent(frame, EventKind.DEGRADED_ENTERED, 0.0, math.inf, 0)
    if state.current_extrinsic is None:
        return MonitorState(None, MonitorStatus.UNCALIBRATED, None, frame + 1), event
    return replace(state, status=MonitorStatus.DEGRADED, frame_count=frame + 1), event
