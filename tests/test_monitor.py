"""Boot calibration, health gating, and the monitor state machine."""
from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from boxcalib import (
    EventKind,
    MonitorConfig,
    MonitorState,
    MonitorStatus,
    NoiseConfig,
    ODistParams,
    RigidTransform,
    SynthConfig,
    calibrate_scenes,
    health_check,
    invert,
    noisy_pair,
    rte,
    step,
    transform_box,
    transform_scene,
    with_flipped_yaw,
)
from boxcalib import monitor
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


# ---- step: one calibration attempt per frame ----


def test_clean_scenes_succeed_on_the_first_attempt():
    ego, coop, t_true = scene_pair()
    state, events = step(MonitorState.initial(), ego, coop)
    assert [(e.kind, e.attempt) for e in events] == [(EventKind.BOOT_CALIBRATED, 1)]
    assert rte(t_true.translation, state.current_extrinsic.translation) < 1e-9


def test_hopeless_scenes_exhaust_every_attempt():
    state, events = step(MonitorState.initial(), DISJOINT_EGO, DISJOINT_COOP)
    assert [(e.kind, e.attempt) for e in events] == [(EventKind.ALERT_RAISED, 1)]
    assert events[0].confidence == 0.0
    assert events[0].mean_distance == math.inf
    assert state.current_extrinsic is None


def offset_fixture(delta):
    """Scene pair whose true matches sit delta off in four directions.

    Ego boxes have strongly distinct dims so no cross anchor survives; the
    four coop boxes are offset by delta in four compass directions. Under
    the true transform the center and corner terms add delta each, so each
    true pair sits at 2 * delta, inside the params' tau of 1 m up to
    delta = 0.5.
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
    return ego, coop, t_true, ODistParams(tau=1.0)


def test_moderate_offsets_succeed_on_the_first_attempt():
    ego, coop, t_true, params = offset_fixture(delta=0.2)
    state, events = step(MonitorState.initial(), ego, coop, MonitorConfig(theta_boot=0.8), params)
    assert [(e.kind, e.attempt) for e in events] == [(EventKind.BOOT_CALIBRATED, 1)]
    assert events[0].confidence == 4
    assert rte(t_true.translation, state.current_extrinsic.translation) < 0.35


def test_offsets_beyond_tau_fail_their_one_attempt():
    ego, coop, t_true, params = offset_fixture(delta=0.6)
    assert health_check(ego, coop, t_true, params) == (0.0, math.inf)
    state, events = step(MonitorState.initial(), ego, coop, MonitorConfig(theta_boot=0.8), params)
    assert [(e.kind, e.attempt) for e in events] == [(EventKind.ALERT_RAISED, 1)]
    assert events[0].confidence < MonitorConfig().min_confidence
    assert state.current_extrinsic is None


def test_health_comes_from_the_calibration_report():
    ego, coop, _, params = offset_fixture(delta=0.3)
    report = calibrate_scenes(ego, coop, params)
    health = (report.health_confidence, report.health_mean_distance)
    assert health == health_check(ego, coop, report.transform, params)
    state, events = step(MonitorState.initial(), ego, coop, MonitorConfig(theta_boot=0.8), params)
    assert (events[0].confidence, events[0].mean_distance) == health
    assert state.last_health == health


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
    state, events = step(MonitorState.initial(), DISJOINT_EGO, DISJOINT_COOP)
    assert kinds(events) == [EventKind.ALERT_RAISED]
    assert state.status is MonitorStatus.UNCALIBRATED
    assert state.current_extrinsic is None


def test_boot_failure_with_a_stored_extrinsic_keeps_it_under_alert():
    stored = yaw_transform(0.3, (1.0, 2.0, 0.0))
    state, events = step(MonitorState.initial(stored), DISJOINT_EGO, DISJOINT_COOP)
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
    state, events = step(state, DISJOINT_EGO, DISJOINT_COOP)
    assert kinds(events) == [EventKind.DEGRADED_ENTERED]
    assert state.status is MonitorStatus.DEGRADED
    assert state.current_extrinsic is held
    # recovery on the next good frame
    state, events = step(state, ego, coop)
    assert kinds(events) == [EventKind.HEALTH_OK]
    assert state.status is MonitorStatus.CALIBRATED


def test_step_recalibrates_on_the_first_attempt():
    ego, coop, _, params = offset_fixture(delta=0.2)
    expected = calibrate_scenes(ego, coop, params)
    held = RigidTransform.identity()
    state = MonitorState(held, MonitorStatus.CALIBRATED, (5.0, 0.1), 4)
    state, events = step(state, ego, coop, MonitorConfig(theta_monitor=0.8), params)
    assert [(e.kind, e.attempt) for e in events] == [(EventKind.RECALIBRATED, 1)]
    health = (expected.health_confidence, expected.health_mean_distance)
    assert (events[0].confidence, events[0].mean_distance) == health
    assert state.last_health == health
    assert (state.status, state.frame_count) == (MonitorStatus.CALIBRATED, 5)
    assert np.array_equal(state.current_extrinsic.translation, expected.transform.translation)


def test_a_frame_builds_the_scene_arrays_once(builds):
    # the health check and the calibration score the same two scenes, so
    # a frame builds their arrays once: at boot, on a healthy frame and on
    # one whose held extrinsic fails its check (scenes within top_k, so
    # the calibration builds no others); each frame has scenes of its own,
    # and a repeated step on the same scenes builds nothing
    ego, coop, t_true = scene_pair()
    wrong = RigidTransform(t_true.rotation, t_true.translation + 50.0)
    frames = {
        EventKind.BOOT_CALIBRATED: MonitorState.initial(),
        EventKind.HEALTH_OK: MonitorState(t_true, MonitorStatus.CALIBRATED, None, 4),
        EventKind.RECALIBRATED: MonitorState(wrong, MonitorStatus.CALIBRATED, None, 4),
    }
    for kind, state in frames.items():
        ego, coop = (make_scene(s.boxes, s.agent_id) for s in (ego, coop))
        builds.clear()
        _, events = step(state, ego, coop)
        assert kinds(events) == [kind]
        assert builds == [len(ego), len(coop)], kind
        _, again = step(state, ego, coop)
        assert again == events and builds == [len(ego), len(coop)], kind


def test_the_monitor_imports_no_private_name():
    # step reads the health check and the calibration report; a private
    # name of another module would tie it to their internals again
    tree = ast.parse(Path(monitor.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("boxcalib")):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, f"line {node.lineno} imports {private}"


def test_runtime_failure_keeps_the_measured_health():
    # the calibration finds the true matches but misses the monitor gate
    ego, coop, t_true, params = offset_fixture(delta=0.3)
    measured = health_check(ego, coop, t_true, params)
    assert measured[0] == 4 and 0.5 < measured[1] < 0.8
    state = MonitorState(t_true, MonitorStatus.CALIBRATED, (4.0, 0.0), 4)
    state, events = step(state, ego, coop, MonitorConfig(theta_monitor=0.5), params)
    assert [(e.kind, e.attempt) for e in events] == [(EventKind.DEGRADED_ENTERED, 1)]
    assert events[0].confidence == 4 and events[0].mean_distance > 0.5
    assert state.last_health == measured
    assert state.current_extrinsic is t_true


def test_reversed_coop_headings_boot_and_stay_healthy():
    # the health check scores the held transform under the reversed coop
    # headings too, so the boot calibration passes its gate
    ego, coop, _ = noisy_pair(SynthConfig(), NoiseConfig(), np.random.SeedSequence(3))
    coop = make_scene([with_flipped_yaw(b) for b in coop], agent_id="coop")
    state, events = step(MonitorState.initial(), ego, coop)
    assert kinds(events) == [EventKind.BOOT_CALIBRATED]
    assert state.status is MonitorStatus.CALIBRATED
    state, events = step(state, ego, coop)
    assert kinds(events) == [EventKind.HEALTH_OK]
    assert events[0].confidence == len(ego)


def test_two_agreeing_boxes_do_not_recalibrate():
    # the coop agent sees only two of the ego's objects, moved by 5 m
    ego, _, t_true = scene_pair()
    moved = RigidTransform(t_true.rotation, t_true.translation + [5.0, 0.0, 0.0])
    coop = make_scene([transform_box(invert(moved), b) for b in ego.boxes[:2]], agent_id="coop")
    held = MonitorState(t_true, MonitorStatus.CALIBRATED, (6.0, 0.0), 4)
    state, events = step(held, ego, coop)
    assert [(e.kind, e.confidence) for e in events] == [(EventKind.DEGRADED_ENTERED, 2.0)]
    assert state.current_extrinsic is t_true
    state, events = step(held, ego, coop, MonitorConfig(min_confidence=2))
    assert kinds(events) == [EventKind.RECALIBRATED]


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
