"""Runtime calibration monitoring.

Each frame, the stored extrinsic is scored against the live scene pair
(health_check). While healthy it is kept; when the score degrades past a
threshold, calibration is re-run with bounded retries that progressively
widen the pairing gates. The first frame uses the boot threshold, later
frames the monitor threshold.

step() and unreadable_frame() are pure transition functions: persistence
and frame acquisition belong to the caller (see the monitor CLI command).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .association import NoCoVisibleObjects, ODistParams, alignment_score
from .geometry import RigidTransform, Scene
from .pipeline import DEFAULT_TOP_K, calibrate_scenes
from .registration import DegenerateGeometry, EmptyMatchSet


@dataclass(frozen=True)
class MonitorConfig:
    theta_boot: float = 1.0  # mean-distance gate at boot, meters
    theta_monitor: float = 1.0  # mean-distance gate per frame, meters
    max_retries: int = 3
    min_confidence: int = 2  # least valid-set size considered trustworthy

    def __post_init__(self):
        if self.theta_boot <= 0 or self.theta_monitor <= 0:
            raise ValueError("thresholds must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
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
    RETRY_EXHAUSTED = "RetryExhausted"
    ALERT_RAISED = "AlertRaised"
    DEGRADED_ENTERED = "DegradedEntered"


@dataclass(frozen=True)
class MonitorEvent:
    frame_id: int
    kind: EventKind
    confidence: float
    mean_distance: float
    attempt: int  # calibration attempt the event refers to, 0 for health events


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


@dataclass(frozen=True)
class CalibrationAttempt:
    confidence: float
    mean_distance: float
    tau: float
    tau1: float


@dataclass(frozen=True)
class RetryResult:
    """Outcome of calibrate_with_retries; transform is None on failure.
    attempts carries the health diagnostics of every attempt made."""

    transform: RigidTransform | None
    attempts: tuple[CalibrationAttempt, ...]

    @property
    def failed(self) -> bool:
        return self.transform is None


def calibrate_with_retries(
    ego: Scene,
    coop: Scene,
    theta: float,
    max_retries: int,
    params: ODistParams = ODistParams(),
    min_confidence: int = 2,
    top_k: int | float | None = DEFAULT_TOP_K,
) -> RetryResult:
    """Run the calibration pipeline up to max_retries times.

    Attempt k (1-based) scales tau and tau1 by 1 + 0.25*(k-1), capped at
    tau <= 3 and tau1 <= 2, widening the gates for scenes whose pairs sit
    just outside the defaults. A candidate transform is accepted when its
    health under the *unscaled* params meets the gate: mean distance <=
    theta and confidence >= min_confidence.
    """
    attempts: list[CalibrationAttempt] = []
    for k in range(1, max_retries + 1):
        scale = 1.0 + 0.25 * (k - 1)
        widened = replace(
            params, tau=min(3.0, params.tau * scale), tau1=min(2.0, params.tau1 * scale)
        )
        try:
            report = calibrate_scenes(ego, coop, widened, top_k)
        except (NoCoVisibleObjects, DegenerateGeometry, EmptyMatchSet):
            attempts.append(CalibrationAttempt(0.0, math.inf, widened.tau, widened.tau1))
            continue
        confidence, mean_distance = health_check(ego, coop, report.transform, params)
        attempts.append(CalibrationAttempt(confidence, mean_distance, widened.tau, widened.tau1))
        if _healthy(confidence, mean_distance, theta, min_confidence):
            return RetryResult(report.transform, tuple(attempts))
    return RetryResult(None, tuple(attempts))


def step(
    state: MonitorState,
    ego: Scene,
    coop: Scene,
    cfg: MonitorConfig = MonitorConfig(),
    params: ODistParams = ODistParams(),
    top_k: int | float | None = DEFAULT_TOP_K,
) -> tuple[MonitorState, list[MonitorEvent]]:
    """Process one frame; returns the successor state and emitted events.

    The boot gate (theta_boot) applies on the first frame, whether the
    extrinsic was restored from storage or is yet to be estimated; the
    monitor gate applies afterwards. On calibration failure the previous
    extrinsic, if any, is kept: at boot this raises an alert, at runtime
    it enters degraded operation. Every failed attempt emits a
    RetryExhausted event carrying that attempt's health.
    """
    frame = state.frame_count
    boot_phase = frame == 0 or state.status is MonitorStatus.UNCALIBRATED
    theta = cfg.theta_boot if boot_phase else cfg.theta_monitor
    events: list[MonitorEvent] = []

    measured: tuple[float, float] | None = None
    if state.current_extrinsic is not None:
        confidence, mean_distance = health_check(ego, coop, state.current_extrinsic, params)
        measured = (confidence, mean_distance)
        if _healthy(confidence, mean_distance, theta, cfg.min_confidence):
            events.append(
                MonitorEvent(frame, EventKind.HEALTH_OK, confidence, mean_distance, 0)
            )
            return (
                MonitorState(
                    state.current_extrinsic,
                    MonitorStatus.CALIBRATED,
                    measured,
                    frame + 1,
                ),
                events,
            )

    outcome = calibrate_with_retries(
        ego, coop, theta, cfg.max_retries, params, cfg.min_confidence, top_k
    )
    if not outcome.failed:
        last = outcome.attempts[-1]
        kind = EventKind.BOOT_CALIBRATED if boot_phase else EventKind.RECALIBRATED
        for i, att in enumerate(outcome.attempts[:-1], start=1):
            events.append(
                MonitorEvent(frame, EventKind.RETRY_EXHAUSTED, att.confidence, att.mean_distance, i)
            )
        events.append(
            MonitorEvent(frame, kind, last.confidence, last.mean_distance, len(outcome.attempts))
        )
        return (
            MonitorState(
                outcome.transform,
                MonitorStatus.CALIBRATED,
                (last.confidence, last.mean_distance),
                frame + 1,
            ),
            events,
        )

    for i, att in enumerate(outcome.attempts, start=1):
        events.append(
            MonitorEvent(frame, EventKind.RETRY_EXHAUSTED, att.confidence, att.mean_distance, i)
        )
    last = outcome.attempts[-1]
    if boot_phase:
        events.append(
            MonitorEvent(frame, EventKind.ALERT_RAISED, last.confidence, last.mean_distance, len(outcome.attempts))
        )
        if state.current_extrinsic is None:
            new_state = MonitorState(None, MonitorStatus.UNCALIBRATED, None, frame + 1)
        else:
            new_state = MonitorState(
                state.current_extrinsic, MonitorStatus.ALERT, measured, frame + 1
            )
        return new_state, events

    events.append(
        MonitorEvent(frame, EventKind.DEGRADED_ENTERED, last.confidence, last.mean_distance, len(outcome.attempts))
    )
    return (
        MonitorState(state.current_extrinsic, MonitorStatus.DEGRADED, measured, frame + 1),
        events,
    )


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
