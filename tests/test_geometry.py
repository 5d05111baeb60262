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
    assert len(Scene.from_arrays(np.zeros((0, 3)), np.zeros((0, 3)), [])) == 0


# ---- Scene.from_arrays ----


def random_boxes(n, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-30.0, 30.0, (n, 3))
    dims = rng.uniform(0.5, 6.0, (n, 3))
    yaws = rng.uniform(-10.0, 10.0, n)
    return centers, dims, yaws, rng.uniform(0.0, 1.0, n), [None, "car"] * (n // 2) + [None] * (n % 2)


def test_from_arrays_equals_the_scene_of_its_boxes():
    centers, dims, yaws, confidences, labels = random_boxes(9)
    built = Scene.from_arrays(centers, dims, yaws, confidences, labels, "a", 4)
    boxes = Scene(
        tuple(map(DetectionBox, centers, dims, yaws.tolist(), confidences.tolist(), labels)), "a", 4
    )
    assert (built.agent_id, built.frame_id, len(built)) == ("a", 4, 9)
    for x, y in zip(built, boxes, strict=True):
        assert x.center.tobytes() == y.center.tobytes() and x.dims.tobytes() == y.dims.tobytes()
        assert (x.yaw, x.confidence, x.label) == (y.yaw, y.confidence, y.label)
        assert type(x.yaw) is type(y.yaw) is float
    for table in ("centers", "dims", "yaws", "packed"):
        a, b = getattr(built._arrays, table), getattr(boxes._arrays, table)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), table
    defaults = Scene.from_arrays(centers, dims, yaws)[0]
    assert (defaults.confidence, defaults.label) == (1.0, None)


def test_from_arrays_keeps_its_own_read_only_copies():
    centers, dims, yaws, _, _ = random_boxes(4)
    scene = Scene.from_arrays(centers, dims, yaws)
    centers[0, 0], dims[0, 0] = 99.0, 99.0
    assert scene[0].center[0] != 99.0 and scene[0].dims[0] != 99.0
    arrays = scene._arrays
    assert np.shares_memory(scene[2].center, arrays.centers) and np.shares_memory(scene[2].dims, arrays.dims)
    for values in (scene[0].center, scene[0].dims, arrays.centers, arrays.dims, arrays.yaws, arrays.packed):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


@pytest.mark.parametrize("yaw", [-1e-17, -5e-324])
def test_from_arrays_folds_a_tiny_negative_yaw_to_zero(yaw):
    scene = Scene.from_arrays(np.zeros((2, 3)), np.ones((2, 3)), [yaw, -math.pi / 2])
    assert [b.yaw for b in scene] == [0.0, make_box((0, 0, 0), yaw=-math.pi / 2).yaw]
    assert scene._arrays.yaws.tolist() == [b.yaw for b in scene]


BAD_ROWS = {
    "center NaN": dict(center=(0.0, math.nan, 0.0)),
    "center inf": dict(center=(math.inf, 0.0, 0.0)),
    "dims inf": dict(dims=(1.0, math.inf, 1.0)),
    "dims zero": dict(dims=(0.0, 1.0, 1.0)),
    "dims negative": dict(dims=(1.0, 1.0, -2.0)),
    "yaw NaN": dict(yaw=math.nan),
    "yaw inf": dict(yaw=-math.inf),
    "confidence above": dict(confidence=1.5),
    "confidence below": dict(confidence=-0.1),
    "confidence NaN": dict(confidence=math.nan),
}


@pytest.mark.parametrize("bad", BAD_ROWS)
def test_from_arrays_rejects_what_a_box_rejects(bad):
    row = dict(center=(1.0, 2.0, 3.0), dims=(4.0, 2.0, 1.5), yaw=0.3, confidence=0.5) | BAD_ROWS[bad]
    with pytest.raises(ValueError) as rejected:
        DetectionBox(np.array(row["center"]), np.array(row["dims"]), row["yaw"], row["confidence"])
    centers, dims, yaws, confidences, _ = random_boxes(5, seed=1)
    centers[3], dims[3], yaws[3], confidences[3] = row["center"], row["dims"], row["yaw"], row["confidence"]
    with pytest.raises(ValueError) as info:
        Scene.from_arrays(centers, dims, yaws, confidences)
    assert str(info.value) == str(rejected.value)


@pytest.mark.parametrize(
    "centers, dims, yaws, extra",
    [
        (np.zeros((3, 2)), np.ones((3, 3)), np.zeros(3), {}),
        (np.zeros((3, 3)), np.ones((3, 4)), np.zeros(3), {}),
        (np.zeros((3, 3)), np.ones((2, 3)), np.zeros(3), {}),
        (np.zeros((3, 3)), np.ones((3, 3)), np.zeros(2), {}),
        (np.zeros((3, 3)), np.ones((3, 3)), np.zeros((3, 1)), {}),
        (np.zeros(3), np.ones(3), 0.0, {}),
        (np.zeros((3, 3)), np.ones((3, 3)), np.zeros(3), {"confidences": np.ones(2)}),
        (np.zeros((3, 3)), np.ones((3, 3)), np.zeros(3), {"labels": ["a", "b"]}),
    ],
)
def test_from_arrays_rejects_mismatched_shapes(centers, dims, yaws, extra):
    with pytest.raises(ValueError):
        Scene.from_arrays(centers, dims, yaws, **extra)


def per_box_transform(t, box):
    """transform_box as it mapped one box before it shared the stacked
    arithmetic: (center, yaw) by its closed form, one box at a time."""
    A = t.rotation @ rot_z(box.yaw)
    l2, w2 = box.dims[0] ** 2, box.dims[1] ** 2  # NumPy scalars: libm pow
    yaw = math.atan2(A[1, 0] * l2 - A[0, 1] * w2, A[0, 0] * l2 + A[1, 1] * w2)
    return t.rotation @ box.center + t.translation, yaw


def test_transform_scene_maps_each_box_as_the_per_box_closed_form_does():
    # yaw-only and general rotations of boxes whose length and width have
    # a libm square (Python's x ** 2) that differs from x * x in the last
    # bit: squaring them as an array would change about a fifth of the yaws
    rng = np.random.default_rng(5)
    pool = rng.uniform(1.0, 6.0, 400_000)
    trap = pool[np.array([x**2 for x in pool.tolist()]) != pool * pool]
    half = len(trap) // 2
    dims = np.repeat(np.stack([trap[:half], trap[half : 2 * half], np.full(half, 1.5)], axis=1), 10, axis=0)
    n = len(dims)
    assert n > 1000
    scene = Scene.from_arrays(rng.uniform(-30.0, 30.0, (n, 3)), dims, rng.uniform(0.0, 7.0, n))
    for seed in range(4):
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        tilted = np.eye(3) + math.sin(1.1) * K + (1 - math.cos(1.1)) * K @ K  # 1.1 rad about k
        t = RigidTransform(rot_z(0.7 * seed) if seed % 2 else tilted, 10.0 * k)
        moved = transform_scene(t, scene)
        for box, new in zip(scene, moved, strict=True):
            center, yaw = per_box_transform(t, box)
            one = transform_box(t, box)
            assert center.tobytes() == new.center.tobytes() == one.center.tobytes()
            assert DetectionBox(center, box.dims, yaw).yaw == new.yaw == one.yaw


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
