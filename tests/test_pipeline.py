"""Whole-pipeline calibration on synthetic ground truth."""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcalib import (
    DEFAULT_TOP_K,
    CalibrationReport,
    NoCoVisibleObjects,
    RigidTransform,
    Scene,
    SynthConfig,
    apply_transform,
    calibrate_scenes,
    compose,
    generate_scene_pair,
    invert,
    random_yaw_transform,
    rre,
    rte,
    top_k_by_volume,
    transform_scene,
    with_flipped_yaw,
)
from boxcalib.io import report_to_dict
from conftest import make_box, make_scene, spread_scene, yaw_transform


def calibrated_pair(seed, n_boxes=10, visibility=1.0):
    ego, coop, t_true = generate_scene_pair(
        SynthConfig(n_boxes=n_boxes, visibility=visibility, seed=seed)
    )
    return ego, coop, t_true, calibrate_scenes(ego, coop)


def test_noise_free_scenes_recover_the_truth_to_machine_precision():
    for seed in range(8):
        _, _, t_true, report = calibrated_pair(seed)
        assert rre(t_true.rotation, report.transform.rotation) < 1e-9
        assert rte(t_true.translation, report.transform.translation) < 1e-9
        assert report.rms_residual < 1e-9


def test_report_diagnostics_describe_a_clean_solution():
    ego, _, _, report = calibrated_pair(3)
    assert len(report.matches) == len(ego)
    assert report.health_confidence == len(ego)
    assert report.health_mean_distance == pytest.approx(0.0, abs=1e-9)
    assert report.elapsed_s > 0.0
    assert all(m.confidence == len(ego) for m in report.matches)


def test_partial_visibility_still_recovers_the_truth():
    _, coop, t_true, report = calibrated_pair(11, n_boxes=12, visibility=0.7)
    assert len(coop) == 8
    assert rre(t_true.rotation, report.transform.rotation) < 1e-9
    assert rte(t_true.translation, report.transform.translation) < 1e-9
    assert len(report.matches) == 8


@pytest.mark.parametrize("n_boxes", [30, 60])
@pytest.mark.parametrize("seed", range(3))
def test_private_boxes_on_both_sides_still_recover_the_truth(n_boxes, seed):
    # the top-k prefilter keeps different boxes per side, so both scenes
    # hold boxes the other one lacks
    ego, coop, t_true = generate_scene_pair(
        SynthConfig(n_boxes=n_boxes, visibility=0.8, seed=seed)
    )
    report = calibrate_scenes(ego, coop)
    assert rre(t_true.rotation, report.transform.rotation) < 1e-6
    assert rte(t_true.translation, report.transform.translation) < 1e-6
    ego_k, coop_k = top_k_by_volume(ego, DEFAULT_TOP_K), top_k_by_volume(coop, DEFAULT_TOP_K)
    for m in report.matches:
        mapped = apply_transform(t_true, coop_k[m.coop_index].center[None, :])[0]
        assert np.linalg.norm(mapped - ego_k[m.ego_index].center) < 1e-6


def test_top_k_limits_the_number_of_matches():
    ego, coop, t_true = generate_scene_pair(SynthConfig(n_boxes=12, seed=21))
    report = calibrate_scenes(ego, coop, top_k=5)
    assert len(report.matches) == 5
    assert rre(t_true.rotation, report.transform.rotation) < 1e-9
    # health is still evaluated against the full scenes
    assert report.health_confidence == 12


def test_top_k_none_keeps_everything():
    ego, coop, _ = generate_scene_pair(SynthConfig(n_boxes=18, seed=4))
    assert len(calibrate_scenes(ego, coop, top_k=None).matches) == 18
    assert len(calibrate_scenes(ego, coop, top_k=math.inf).matches) == 18
    assert len(calibrate_scenes(ego, coop).matches) == 15  # default cap


def test_disjoint_scenes_raise_no_covisible():
    ego = make_scene(
        [make_box((0, 0, 0), dims=(1, 1, 1)), make_box((20, 0, 0), dims=(1.2, 1.1, 1.0))]
    )
    coop = make_scene(
        [make_box((0, 0, 0), dims=(14, 13, 12)), make_box((20, 0, 0), dims=(15, 12, 11))]
    )
    with pytest.raises(NoCoVisibleObjects):
        calibrate_scenes(ego, coop)


def test_empty_coop_scene_raises_no_covisible():
    with pytest.raises(NoCoVisibleObjects):
        calibrate_scenes(spread_scene(4), make_scene([], agent_id="coop"))


def test_report_serializes_to_plain_json_types():
    _, _, _, report = calibrated_pair(6)
    d = report_to_dict(report)
    assert set(d) == {
        "rotation",
        "translation",
        "matches",
        "rms_residual",
        "health_confidence",
        "health_mean_distance",
        "elapsed_s",
    }
    assert len(d["rotation"]) == 9
    assert len(d["translation"]) == 3
    r = np.array(d["rotation"]).reshape(3, 3)
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-9)
    first = d["matches"][0]
    assert set(first) == {"ego_index", "coop_index", "confidence", "coop_yaw_flipped"}
    assert isinstance(report, CalibrationReport)
    assert json.loads(json.dumps(d, allow_nan=False)) == d
    unhealthy = report_to_dict(dataclasses.replace(report, health_mean_distance=math.inf))
    assert unhealthy["health_mean_distance"] is None


def test_flipped_coop_headings_are_transparent_to_calibration():
    ego = spread_scene(8, seed=33)
    t = yaw_transform(0.8, (6.0, -2.0, 0.4))
    coop_frame = transform_scene(invert(t), ego)
    coop = make_scene([with_flipped_yaw(b) for b in coop_frame], agent_id="coop")
    report = calibrate_scenes(ego, coop)
    assert rre(t.rotation, report.transform.rotation) < 1e-9
    assert rte(t.translation, report.transform.translation) < 1e-9
    assert all(m.coop_yaw_flipped for m in report.matches)


# ---- invariances of calibrate_scenes on noise-free scene pairs ----

seeds = st.integers(0, 2**32 - 1)
visibilities = st.sampled_from([1.0, 0.8])


def random_pair(seed, visibility):
    truth = random_yaw_transform(np.random.default_rng(seed))
    ego, coop, _ = generate_scene_pair(
        SynthConfig(visibility=visibility, seed=seed, coop_transform=truth)
    )
    return ego, coop


def assert_same_transform(a, b):
    assert rte(a.translation, b.translation) < 1e-9
    assert rre(a.rotation, b.rotation) < 1e-9


@settings(max_examples=10, deadline=None)
@given(seeds, visibilities)
def test_swapping_the_scenes_inverts_the_transform(seed, visibility):
    ego, coop = random_pair(seed, visibility)
    forward = calibrate_scenes(ego, coop).transform
    backward = calibrate_scenes(coop, ego).transform
    assert_same_transform(backward, invert(forward))


@settings(max_examples=10, deadline=None)
@given(seeds, visibilities, seeds)
def test_box_order_does_not_change_the_transform(seed, visibility, order_seed):
    ego, coop = random_pair(seed, visibility)
    rng = np.random.default_rng(order_seed)
    shuffled = [Scene(tuple(s[i] for i in rng.permutation(len(s))), s.agent_id, s.frame_id)
                for s in (ego, coop)]
    assert_same_transform(
        calibrate_scenes(*shuffled).transform, calibrate_scenes(ego, coop).transform
    )


@settings(max_examples=10, deadline=None)
@given(
    seeds,
    visibilities,
    st.floats(0.0, 2 * math.pi),
    st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-2, 2)),
)
def test_moving_both_scenes_conjugates_the_transform(seed, visibility, yaw, shift):
    ego, coop = random_pair(seed, visibility)
    motion = RigidTransform.from_yaw(yaw, np.array(shift))
    moved = calibrate_scenes(transform_scene(motion, ego), transform_scene(motion, coop))
    expected = compose(motion, compose(calibrate_scenes(ego, coop).transform, invert(motion)))
    assert_same_transform(moved.transform, expected)

