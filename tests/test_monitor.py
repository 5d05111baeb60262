"""Boot calibration, health gating, retries, and the monitor state machine."""
from __future__ import annotations

import math

import numpy as np
import pytest

from boxcalib import (
    EventKind,
    MonitorConfig,
    MonitorState,
    MonitorStatus,
    ODistParams,
    RigidTransform,
    calibrate_with_retries,
    health_check,
    invert,
    rte,
    step,
    transform_box,
    transform_scene,
)
from boxcalib.io import state_from_dict, state_to_dict
from boxcalib.monitor import unreadable_frame
from conftest import make_box, make_scene, spread_scene, yaw_transform


def scene_pair(n=6, seed=2, yaw=0.7, shift=(8.0, -3.0, 0.4)):
    ego = spread_scene(n, seed=seed)
    t_true = yaw_transform(yaw, shift)
    return ego, transform_scene(invert(t_true), ego), t_true


def kinds(events):
    return [e.kind for e in events]


DISJOINT_EGO = make_scene(
    [make_box((0, 0, 0), dims=(1, 1, 1)), make_box((20, 0, 0), dims=(1.2, 1.1, 1.0))]
)
DISJOINT_COOP = make_scene(
    [make_box((0, 0, 0), dims=(14, 13, 12)), make_box((20, 0, 0), dims=(15, 12, 11))],
    agent_id="coop",
)


# ---- health_check ----


def test_ground_truth_health_is_perfect():
    ego, coop, t_true = scene_pair()
    confidence, mean_distance = health_check(ego, coop, t_true)
    assert confidence == len(ego)
    assert mean_distance == pytest.approx(0.0, abs=1e-9)


def test_translation_offset_doubles_into_the_mean_distance():
    ego = make_scene([make_box((3.0, 1.0, 0.0))])
    t_true = yaw_transform(0.0, (5.0, 0.0, 0.0))
    coop = make_scene([transform_box(invert(t_true), ego[0])], agent_id="coop")
    offset = RigidTransform(t_true.rotation, t_true.translation + [0.4, 0.0, 0.0])
    confidence, mean_distance = health_check(ego, coop, offset)
    assert confidence == 1
    assert mean_distance == pytest.approx(0.8, rel=1e-9)


def test_grossly_wrong_transform_fails_any_threshold():
    ego = make_scene([make_box((0, 0, 0))])
    coop = make_scene([make_box((0, 0, 0))], agent_id="coop")
    wrong = RigidTransform(np.eye(3), np.array([10.0, 0.0, 0.0]))
    confidence, mean_distance = health_check(ego, coop, wrong)
    assert confidence == 0
    assert mean_distance == math.inf


# ---- calibrate_with_retries ----


def test_clean_scenes_succeed_on_the_first_attempt():
    ego, coop, t_true = scene_pair()
    result = calibrate_with_retries(ego, coop, theta=0.5, max_retries=3)
    assert not result.failed
    assert len(result.attempts) == 1
    assert result.attempts[0].tau == pytest.approx(3.0)
    assert rte(t_true.translation, result.transform.translation) < 1e-9


def test_hopeless_scenes_exhaust_every_attempt():
    result = calibrate_with_retries(DISJOINT_EGO, DISJOINT_COOP, theta=1.0, max_retries=3)
    assert result.failed
    assert result.transform is None
    assert len(result.attempts) == 3
    for att in result.attempts:
        assert att.confidence == 0.0
        assert att.mean_distance == math.inf


def retry_fixture(delta):
    """Scene pair solvable only once tau1 is widened.

    Ego boxes have strongly distinct dims so no cross anchor survives; the
    four coop boxes are offset by delta in four compass directions, so
    every correct anchor sees mean distance delta*(1+sqrt(2)) and the
    default tau1 of the params below filters it until the retry schedule
    widens the gate.
    """
    dims = [(2, 1, 1), (5, 2, 1.5), (8, 3, 2), (11, 4, 2.5), (14, 5, 3)]
    centers = [(0, 0, 0), (20, 0, 0), (0, 20, 0), (-20, 0, 0.5), (0, -20, 0.5)]
    yaws = [0.1, 0.6, 1.1, 1.6, 2.1]
    ego = make_scene(
        [make_box(c, dims=d, yaw=y) for c, d, y in zip(centers, dims, yaws)]
    )
    t_true = yaw_transform(0.9, (5.0, 7.0, -0.3))
    offsets = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    coop_boxes = []
    for k, ego_index in enumerate(range(1, 5)):
        box = ego[ego_index]
        shifted = make_box(
            np.asarray(box.center) + delta * np.asarray(offsets[k], dtype=float),
            dims=tuple(box.dims),
            yaw=box.yaw,
        )
        coop_boxes.append(transform_box(invert(t_true), shifted))
    coop = make_scene(coop_boxes, agent_id="coop")
    params = ODistParams(tau=1.0, tau1=0.35)
    return ego, coop, t_true, params


def test_moderate_offsets_succeed_only_after_widening():
    ego, coop, t_true, params = retry_fixture(delta=0.2)
    result = calibrate_with_retries(
        ego, coop, theta=0.8, max_retries=3, params=params
    )
    assert not result.failed
    assert len(result.attempts) == 3
    assert [round(a.tau1, 6) for a in result.attempts] == [0.35, 0.4375, 0.525]
    assert [round(a.tau, 6) for a in result.attempts] == [1.0, 1.25, 1.5]
    assert result.attempts[0].mean_distance == math.inf
    assert result.attempts[1].mean_distance == math.inf
    assert result.attempts[2].confidence == 4
    assert rte(t_true.translation, result.transform.translation) < 0.35


def test_larger_offsets_outrun_the_whole_schedule():
    ego, coop, _, params = retry_fixture(delta=0.3)
    result = calibrate_with_retries(
        ego, coop, theta=0.8, max_retries=3, params=params
    )
    assert result.failed
    assert len(result.attempts) == 3


def test_widening_caps_at_the_parameter_ranges():
    result = calibrate_with_retries(DISJOINT_EGO, DISJOINT_COOP, theta=1.0, max_retries=6)
    taus = [a.tau for a in result.attempts]
    tau1s = [a.tau1 for a in result.attempts]
    assert max(taus) == 3.0
    assert max(tau1s) == 2.0
    assert all(t <= 3.0 for t in taus)
    assert all(t <= 2.0 for t in tau1s)


# ---- step: boot ----


def test_fresh_state_boots_to_calibrated():
    ego, coop, t_true = scene_pair()
    state, events = step(MonitorState.initial(), ego, coop)
    assert kinds(events) == [EventKind.BOOT_CALIBRATED]
    assert state.status is MonitorStatus.CALIBRATED
    assert state.frame_count == 1
    assert rte(t_true.translation, state.current_extrinsic.translation) < 1e-9
    assert state.last_health[0] == len(ego)


def test_boot_failure_without_a_stored_extrinsic_raises_an_alert():
    state, events = step(
        MonitorState.initial(), DISJOINT_EGO, DISJOINT_COOP, MonitorConfig(max_retries=3)
    )
    assert kinds(events) == [EventKind.RETRY_EXHAUSTED] * 3 + [EventKind.ALERT_RAISED]
    assert [e.attempt for e in events] == [1, 2, 3, 3]
    assert state.status is MonitorStatus.UNCALIBRATED
    assert state.current_extrinsic is None


def test_boot_failure_with_a_stored_extrinsic_keeps_it_under_alert():
    stored = yaw_transform(0.3, (1.0, 2.0, 0.0))
    state, events = step(
        MonitorState.initial(stored), DISJOINT_EGO, DISJOINT_COOP, MonitorConfig(max_retries=2)
    )
    assert events[-1].kind is EventKind.ALERT_RAISED
    assert state.status is MonitorStatus.ALERT
    assert state.current_extrinsic is stored


def test_boot_threshold_governs_the_first_frame():
    ego, coop, t_true = scene_pair(n=4)
    drifted = RigidTransform(t_true.rotation, t_true.translation + [0.4, 0.0, 0.0])
    lenient = MonitorConfig(theta_boot=0.9, theta_monitor=0.5)
    state, events = step(MonitorState.initial(drifted), ego, coop, lenient)
    assert kinds(events) == [EventKind.HEALTH_OK]  # 0.8 passes the boot gate
    assert state.current_extrinsic is drifted

    strict = MonitorConfig(theta_boot=0.5, theta_monitor=0.9)
    state, events = step(MonitorState.initial(drifted), ego, coop, strict)
    assert kinds(events) == [EventKind.BOOT_CALIBRATED]  # 0.8 fails it, reboot
    assert rte(t_true.translation, state.current_extrinsic.translation) < 1e-9


# ---- step: steady state and drift ----


def test_consistent_frames_emit_health_ok_only():
    ego, coop, _ = scene_pair()
    state, _ = step(MonitorState.initial(), ego, coop)
    held = state.current_extrinsic
    for _ in range(3):
        state, events = step(state, ego, coop)
        assert kinds(events) == [EventKind.HEALTH_OK]
        assert state.current_extrinsic is held
    assert state.frame_count == 4


def test_drifted_truth_triggers_recalibration():
    ego, coop, t_true = scene_pair()
    state, _ = step(MonitorState.initial(), ego, coop)
    drifted_truth = RigidTransform(t_true.rotation, t_true.translation + [2.0, 0.0, 0.0])
    coop_drifted = transform_scene(invert(drifted_truth), ego)
    state, events = step(state, ego, coop_drifted)
    assert kinds(events) == [EventKind.RECALIBRATED]
    assert state.status is MonitorStatus.CALIBRATED
    assert rte(drifted_truth.translation, state.current_extrinsic.translation) < 1e-6
    state, events = step(state, ego, coop_drifted)
    assert kinds(events) == [EventKind.HEALTH_OK]


def test_runtime_failure_degrades_but_retains_the_extrinsic():
    ego, coop, _ = scene_pair()
    state, _ = step(MonitorState.initial(), ego, coop)
    held = state.current_extrinsic
    cfg = MonitorConfig(max_retries=2)
    state, events = step(state, DISJOINT_EGO, DISJOINT_COOP, cfg)
    assert kinds(events) == [EventKind.RETRY_EXHAUSTED] * 2 + [EventKind.DEGRADED_ENTERED]
    assert state.status is MonitorStatus.DEGRADED
    assert state.current_extrinsic is held
    # recovery on the next good frame
    state, events = step(state, ego, coop, cfg)
    assert kinds(events) == [EventKind.HEALTH_OK]
    assert state.status is MonitorStatus.CALIBRATED


def test_unreadable_frame_degrades_a_held_extrinsic_and_keeps_its_health():
    held = yaw_transform(0.4, (1.0, 2.0, 0.0))
    state = MonitorState(held, MonitorStatus.CALIBRATED, (5.0, 0.2), 3)
    state, event = unreadable_frame(state)
    assert state.current_extrinsic is held
    assert (state.status, state.last_health, state.frame_count) == (
        MonitorStatus.DEGRADED, (5.0, 0.2), 4
    )
    assert (event.frame_id, event.kind, event.confidence, event.attempt) == (
        3, EventKind.DEGRADED_ENTERED, 0.0, 0
    )
    assert math.isinf(event.mean_distance)


def test_unreadable_frame_without_an_extrinsic_stays_uncalibrated():
    state, event = unreadable_frame(MonitorState(None, MonitorStatus.UNCALIBRATED, None, 2))
    assert state == MonitorState(None, MonitorStatus.UNCALIBRATED, None, 3)
    assert (event.frame_id, event.kind) == (2, EventKind.DEGRADED_ENTERED)


def test_step_is_a_pure_transition():
    ego, coop, _ = scene_pair()
    start = MonitorState.initial()
    a_state, a_events = step(start, ego, coop)
    b_state, b_events = step(start, ego, coop)
    assert a_state.status == b_state.status
    assert a_state.frame_count == b_state.frame_count
    assert a_state.last_health == b_state.last_health
    assert np.array_equal(
        a_state.current_extrinsic.rotation, b_state.current_extrinsic.rotation
    )
    assert np.array_equal(
        a_state.current_extrinsic.translation, b_state.current_extrinsic.translation
    )
    assert a_events == b_events


# ---- state invariants and persistence ----


def test_state_consistency_is_enforced():
    with pytest.raises(ValueError):
        MonitorState(None, MonitorStatus.CALIBRATED, None, 0)
    with pytest.raises(ValueError):
        MonitorState(RigidTransform.identity(), MonitorStatus.UNCALIBRATED, None, 0)
    with pytest.raises(ValueError):
        MonitorState(None, MonitorStatus.UNCALIBRATED, None, -1)


def test_config_validation():
    with pytest.raises(ValueError):
        MonitorConfig(theta_boot=0.0)
    with pytest.raises(ValueError):
        MonitorConfig(theta_monitor=-1.0)
    with pytest.raises(ValueError):
        MonitorConfig(max_retries=0)
    with pytest.raises(ValueError):
        MonitorConfig(min_confidence=0)


def test_persisted_state_replays_identically():
    ego, coop, t_true = scene_pair()
    drifted_truth = RigidTransform(t_true.rotation, t_true.translation + [2.0, 0.0, 0.0])
    coop_drifted = transform_scene(invert(drifted_truth), ego)
    frames = [(ego, coop), (ego, coop), (ego, coop_drifted), (ego, coop_drifted)]

    straight = MonitorState.initial()
    straight_events = []
    for e, c in frames:
        straight, events = step(straight, e, c)
        straight_events.extend(events)

    resumed = MonitorState.initial()
    resumed_events = []
    for i, (e, c) in enumerate(frames):
        if i == 2:
            resumed = state_from_dict(state_to_dict(resumed))
        resumed, events = step(resumed, e, c)
        resumed_events.extend(events)

    assert resumed.status == straight.status
    assert resumed.frame_count == straight.frame_count
    assert np.allclose(
        resumed.current_extrinsic.rotation, straight.current_extrinsic.rotation
    )
    assert np.allclose(
        resumed.current_extrinsic.translation, straight.current_extrinsic.translation
    )
    assert [(e.frame_id, e.kind) for e in resumed_events] == [
        (e.frame_id, e.kind) for e in straight_events
    ]
