"""Boxes, corner matrices, and rigid transforms.

The corner matrix contract is the foundation of everything downstream:
row k of any box's corner matrix carries the same sign triple of
(l/2, w/2, h/2), so two congruent boxes correspond row by row.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from boxcalib import (
    DetectionBox,
    RigidTransform,
    Scene,
    apply_transform,
    compose,
    corners_of,
    invert,
    rot_z,
    transform_box,
    transform_scene,
    with_flipped_yaw,
)
from conftest import make_box, make_scene, yaw_transform


# ---- corner matrices ----


def test_corner_rows_follow_the_sign_order():
    box = make_box((0, 0, 0), dims=(2.0, 4.0, 6.0), yaw=0.0)
    expected_signs = np.array(
        [
            [+1, +1, +1],
            [+1, +1, -1],
            [+1, -1, +1],
            [+1, -1, -1],
            [-1, +1, +1],
            [-1, +1, -1],
            [-1, -1, +1],
            [-1, -1, -1],
        ],
        dtype=float,
    )
    np.testing.assert_allclose(corners_of(box), expected_signs * (1.0, 2.0, 3.0))


def test_corners_translate_with_center():
    base = corners_of(make_box((0, 0, 0)))
    moved = corners_of(make_box((5.0, -2.0, 1.0)))
    np.testing.assert_allclose(moved - base, np.tile([5.0, -2.0, 1.0], (8, 1)))


def test_corners_rotate_with_yaw():
    quarter = corners_of(make_box((0, 0, 0), yaw=math.pi / 2))
    base = corners_of(make_box((0, 0, 0)))
    rotated = base @ rot_z(math.pi / 2).T
    np.testing.assert_allclose(quarter, rotated, atol=1e-12)


def test_corner_extent_matches_dims():
    box = make_box((3.0, 1.0, -0.5), dims=(4.0, 2.0, 1.5), yaw=0.7)
    c = corners_of(box)
    assert c.shape == (8, 3)
    # z is unaffected by yaw; x/y extents are diameters of the footprint
    assert np.ptp(c[:, 2]) == pytest.approx(1.5)
    np.testing.assert_allclose(c.mean(axis=0), box.center, atol=1e-12)


# ---- DetectionBox validation ----


def test_box_yaw_normalizes_into_one_turn():
    assert make_box((0, 0, 0), yaw=-math.pi / 2).yaw == pytest.approx(3 * math.pi / 2)
    assert make_box((0, 0, 0), yaw=2 * math.pi).yaw == pytest.approx(0.0)


@pytest.mark.parametrize("yaw", [-1e-17, -5e-324])
def test_a_tiny_negative_yaw_folds_to_zero_not_one_turn(yaw):
    assert yaw % (2 * math.pi) == 2 * math.pi  # the float remainder rounds up
    assert make_box((0, 0, 0), yaw=yaw).yaw == 0.0


def test_box_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_box((0, 0, 0), dims=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        make_box((0, 0, 0), dims=(-1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        make_box((0, 0), dims=(1, 1, 1))
    with pytest.raises(ValueError):
        make_box((0, 0, np.nan))
    with pytest.raises(ValueError):
        make_box((0, 0, 0), confidence=1.5)
    with pytest.raises(ValueError):
        DetectionBox(np.zeros(3), np.ones(3), yaw=math.inf)


def test_box_arrays_are_read_only():
    box = make_box((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        box.center[0] = 99.0
    with pytest.raises(ValueError):
        box.dims[0] = 99.0


def test_box_volume():
    assert make_box((0, 0, 0), dims=(2.0, 3.0, 0.5)).volume == pytest.approx(3.0)


# ---- Scene ----


def test_scene_indexing_and_iteration():
    boxes = [make_box((i, 0, 0)) for i in range(3)]
    scene = make_scene(boxes, agent_id="a", frame_id=7)
    assert len(scene) == 3
    assert scene[1] is boxes[1]
    assert [b.center[0] for b in scene] == [0.0, 1.0, 2.0]
    assert scene.agent_id == "a" and scene.frame_id == 7


def test_scene_allows_zero_boxes():
    assert len(make_scene([])) == 0


# ---- RigidTransform ----


def test_transform_requires_a_proper_rotation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        RigidTransform(reflection, np.zeros(3))


def test_identity_and_from_yaw():
    t = RigidTransform.identity()
    np.testing.assert_allclose(t.rotation, np.eye(3))
    np.testing.assert_allclose(t.translation, np.zeros(3))
    q = RigidTransform.from_yaw(math.pi / 2, (1.0, 0.0, 0.0))
    np.testing.assert_allclose(q.rotation @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_apply_transform_on_known_points():
    t = yaw_transform(math.pi / 2, (10.0, 0.0, 0.0))
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, -1.0]])
    np.testing.assert_allclose(
        apply_transform(t, pts), [[10.0, 1.0, 0.0], [8.0, 0.0, -1.0]], atol=1e-12
    )


def test_compose_applies_right_operand_first():
    a = yaw_transform(math.pi / 2)
    b = yaw_transform(0.0, (1.0, 0.0, 0.0))
    # b then a: (1,0,0) -> (1,0,0)+t_b=(2,0,0) -> rotated to (0,2,0)
    np.testing.assert_allclose(
        apply_transform(compose(a, b), [[1.0, 0.0, 0.0]]), [[0.0, 2.0, 0.0]], atol=1e-12
    )


def test_invert_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform(-20, 20, 3))
        eye = compose(t, invert(t))
        np.testing.assert_allclose(eye.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(eye.translation, np.zeros(3), atol=1e-12)
        back = invert(invert(t))
        np.testing.assert_allclose(back.rotation, t.rotation, atol=1e-12)
        np.testing.assert_allclose(back.translation, t.translation, atol=1e-12)


# ---- transform_box ----


def test_transform_box_matches_corner_transform_for_yaw_only():
    rng = np.random.default_rng(11)
    for _ in range(25):
        box = make_box(
            rng.uniform(-10, 10, 3),
            dims=rng.uniform(1.0, 5.0, 3),
            yaw=rng.uniform(0, 2 * math.pi),
        )
        t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform(-30, 30, 3))
        moved = transform_box(t, box)
        np.testing.assert_allclose(
            corners_of(moved), apply_transform(t, corners_of(box)), atol=1e-9
        )
        np.testing.assert_allclose(moved.dims, box.dims)
        assert moved.confidence == box.confidence and moved.label == box.label


def test_transform_box_center_maps_exactly():
    t = yaw_transform(0.3, (5.0, -1.0, 2.0))
    box = make_box((1.0, 2.0, 0.0), yaw=1.1)
    np.testing.assert_allclose(
        transform_box(t, box).center, t.rotation @ box.center + t.translation, atol=1e-12
    )


# ---- yaw flip ----


def test_flipped_yaw_keeps_the_same_point_set():
    box = make_box((2.0, -1.0, 0.5), dims=(4.2, 1.8, 1.6), yaw=0.9)
    flipped = with_flipped_yaw(box)
    assert flipped.yaw == pytest.approx((box.yaw + math.pi) % (2 * math.pi))
    a = np.array(sorted(map(tuple, np.round(corners_of(box), 9))))
    b = np.array(sorted(map(tuple, np.round(corners_of(flipped), 9))))
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_flipping_twice_restores_the_yaw():
    box = make_box((0, 0, 0), yaw=1.2)
    assert with_flipped_yaw(with_flipped_yaw(box)).yaw == pytest.approx(box.yaw)


def test_transform_scene_maps_every_box():
    scene = make_scene([make_box((i * 10.0, 0, 0), yaw=0.1 * i) for i in range(4)], "x", 3)
    t = yaw_transform(0.4, (1.0, 2.0, 0.0))
    moved = transform_scene(t, scene)
    assert moved.agent_id == "x" and moved.frame_id == 3
    for orig, new in zip(scene, moved):
        np.testing.assert_allclose(new.center, t.rotation @ orig.center + t.translation)
