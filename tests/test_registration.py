"""Corner-based rigid registration.

pair_hypothesis must invert any yaw-only rigid motion exactly from a
single box pair, and weighted_kabsch must reduce to the textbook Kabsch
solution when all weights are equal.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcalib import (
    DegenerateCorners,
    DegenerateGeometry,
    EmptyMatchSet,
    Match,
    MatchSet,
    WeightedCorrespondences,
    apply_transform,
    build_feature_clouds,
    corners_of,
    pair_hypothesis,
    transform_box,
    weighted_kabsch,
    with_flipped_yaw,
)
from conftest import kabsch_oracle, make_box, make_scene, rotation_angle_deg, yaw_transform


def random_correspondences(rng, n=12):
    src = rng.uniform(-20, 20, (n, 3))
    t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform(-15, 15, 3))
    noise = rng.normal(0, 0.05, (n, 3))
    return src, apply_transform(t, src) + noise


# ---- pair_hypothesis ----


def test_pair_hypothesis_inverts_yaw_only_motion():
    rng = np.random.default_rng(5)
    for _ in range(50):
        coop_box = make_box(
            rng.uniform(-25, 25, 3),
            dims=rng.uniform(1.0, 5.0, 3),
            yaw=rng.uniform(0, 2 * math.pi),
        )
        t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform(-30, 30, 3))
        ego_box = transform_box(t, coop_box)
        estimate = pair_hypothesis(ego_box, coop_box)
        assert np.linalg.norm(estimate.rotation - t.rotation) < 1e-9
        assert np.linalg.norm(estimate.translation - t.translation) < 1e-9


def test_pair_hypothesis_maps_the_seed_pair_exactly():
    ego_box = make_box((4.0, 1.0, 0.2), yaw=0.8)
    coop_box = make_box((-7.0, 3.0, -0.1), dims=(3.0, 1.6, 1.2), yaw=2.1)
    t = pair_hypothesis(ego_box, coop_box)
    np.testing.assert_allclose(
        t.rotation @ coop_box.center + t.translation, ego_box.center, atol=1e-12
    )


def test_pair_hypothesis_equals_the_corner_kabsch_fit():
    rng = np.random.default_rng(9)
    for _ in range(200):
        ego_box, coop_box = (
            make_box(rng.uniform(-25, 25, 3), dims=rng.uniform(0.5, 6, 3), yaw=rng.uniform(0, 7))
            for _ in range(2)
        )
        for coop in (coop_box, with_flipped_yaw(coop_box)):
            r_ref, t_ref = kabsch_oracle(corners_of(coop), corners_of(ego_box))
            estimate = pair_hypothesis(ego_box, coop)
            assert np.linalg.norm(estimate.rotation - r_ref) < 1e-12
            assert np.linalg.norm(estimate.translation - t_ref) < 1e-12


def test_pair_hypothesis_rejects_needle_boxes():
    needle = make_box((0, 0, 0), dims=(4.0, 1e-12, 1e-12))
    with pytest.raises(DegenerateCorners):
        pair_hypothesis(needle, needle)


# ---- weighted_kabsch ----


def test_exact_recovery_with_arbitrary_positive_weights():
    rng = np.random.default_rng(7)
    for _ in range(30):
        src = rng.uniform(-20, 20, (10, 3))
        t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform(-15, 15, 3))
        dst = apply_transform(t, src)
        w = rng.uniform(0.1, 5.0, 10)
        result = weighted_kabsch(WeightedCorrespondences(src, dst, w))
        assert np.linalg.norm(result.transform.rotation - t.rotation) < 1e-9
        assert np.linalg.norm(result.transform.translation - t.translation) < 1e-9
        assert result.rms_residual < 1e-9


def test_correspondences_leave_the_callers_arrays_writable():
    src, dst = random_correspondences(np.random.default_rng(3))
    w = np.ones(len(src))
    corr = WeightedCorrespondences(src, dst, w)
    src[0, 0], dst[0, 0], w[0] = 1e3, -1e3, 9.0
    assert corr.source[0, 0] != 1e3 and corr.target[0, 0] != -1e3 and corr.weights[0] == 1.0
    with pytest.raises(ValueError):
        corr.weights[0] = 2.0


def test_equal_weights_match_the_unweighted_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        src, dst = random_correspondences(rng)
        ours = weighted_kabsch(WeightedCorrespondences(src, dst, np.ones(len(src))))
        r_ref, t_ref = kabsch_oracle(src, dst)
        assert np.linalg.norm(ours.transform.rotation - r_ref) < 1e-12
        assert np.linalg.norm(ours.transform.translation - t_ref) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
)
def test_weight_rescaling_leaves_the_solution_unchanged(seed, scale):
    rng = np.random.default_rng(seed)
    src, dst = random_correspondences(rng, n=8)
    w = rng.uniform(0.1, 2.0, 8)
    a = weighted_kabsch(WeightedCorrespondences(src, dst, w)).transform
    b = weighted_kabsch(WeightedCorrespondences(src, dst, w * scale)).transform
    assert np.linalg.norm(a.rotation - b.rotation) < 1e-12
    assert np.linalg.norm(a.translation - b.translation) < 1e-12


def test_moving_the_targets_composes_on_the_left():
    rng = np.random.default_rng(21)
    src = rng.uniform(-20, 20, (12, 3))
    t = yaw_transform(1.1, (4.0, -2.0, 0.5))
    g = yaw_transform(2.3, (-7.0, 1.0, 1.5))
    w = rng.uniform(0.5, 2.0, len(src))
    dst = apply_transform(t, src)
    moved = weighted_kabsch(WeightedCorrespondences(src, apply_transform(g, dst), w)).transform
    # expected g . t, composed by hand rather than with the library under test
    expected_r = g.rotation @ t.rotation
    expected_t = g.rotation @ t.translation + g.translation
    assert np.linalg.norm(moved.rotation - expected_r) < 1e-9
    assert np.linalg.norm(moved.translation - expected_t) < 1e-9


def test_weighting_pulls_the_fit_toward_heavy_points():
    # two groups consistent with different translations; the heavy group wins
    src = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 5, 0], [6, 5, 0], [5, 6, 0], [5, 5, 1]],
        dtype=float,
    )
    dst = src.copy()
    dst[4:] += [0.5, 0.0, 0.0]  # light group shifted, heavy group fixed
    w = np.array([100.0] * 4 + [0.01] * 4)
    moved = weighted_kabsch(WeightedCorrespondences(src, dst, w)).transform
    assert np.linalg.norm(moved.translation) < 0.01
    assert rotation_angle_deg(moved.rotation, np.eye(3)) < 0.5


def test_zero_weight_points_are_ignored():
    rng = np.random.default_rng(2)
    src = rng.uniform(-5, 5, (6, 3))
    t = yaw_transform(0.7, (2.0, 1.0, 0.0))
    dst = apply_transform(t, src)
    dst[5] += 100.0  # corrupted point, weighted out
    w = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    result = weighted_kabsch(WeightedCorrespondences(src, dst, w))
    assert np.linalg.norm(result.transform.rotation - t.rotation) < 1e-9
    assert result.rms_residual < 1e-9


def test_collinear_points_are_degenerate():
    src = np.outer(np.arange(5, dtype=float), [1.0, 0.0, 0.0])
    with pytest.raises(DegenerateGeometry):
        weighted_kabsch(WeightedCorrespondences(src, src, np.ones(5)))


def test_fewer_than_three_effective_points_is_degenerate():
    src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    with pytest.raises(DegenerateGeometry):
        weighted_kabsch(WeightedCorrespondences(src, src, np.array([1.0, 1.0, 0.0, 0.0])))


def test_rms_residual_is_consistent_with_the_returned_transform():
    rng = np.random.default_rng(17)
    src, dst = random_correspondences(rng)
    w = rng.uniform(0.2, 3.0, len(src))
    result = weighted_kabsch(WeightedCorrespondences(src, dst, w))
    moved = apply_transform(result.transform, src)
    expected = math.sqrt(
        float((w * np.einsum("ij,ij->i", moved - dst, moved - dst)).sum() / w.sum())
    )
    assert result.rms_residual == pytest.approx(expected, abs=1e-12)


def test_correspondence_validation():
    good = np.zeros((3, 3))
    with pytest.raises(ValueError):
        WeightedCorrespondences(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        WeightedCorrespondences(good, np.zeros((4, 3)), np.ones(3))
    with pytest.raises(ValueError):
        WeightedCorrespondences(good, good, np.array([1.0, -0.1, 1.0]))
    with pytest.raises(ValueError):
        WeightedCorrespondences(good, good, np.zeros(3))
    bad = good.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        WeightedCorrespondences(bad, good, np.ones(3))


# ---- build_feature_clouds ----


def test_feature_clouds_stack_corners_with_match_confidence():
    ego = make_scene([make_box((0, 0, 0)), make_box((10, 0, 0), dims=(3, 1.5, 1.2))])
    coop = make_scene([make_box((10, 0, 0), dims=(3, 1.5, 1.2)), make_box((0, 0, 0))])
    matches = MatchSet((Match(0, 1, 2.0), Match(1, 0, 3.0)))
    corr = build_feature_clouds(matches, ego, coop)
    assert corr.source.shape == (16, 3)
    np.testing.assert_allclose(corr.weights, [2.0] * 8 + [3.0] * 8)
    np.testing.assert_allclose(corr.target[:8], corners_of(ego[0]))
    np.testing.assert_allclose(corr.source[:8], corners_of(coop[1]))


def test_feature_clouds_use_flipped_corners_when_flagged():
    box = make_box((2.0, 1.0, 0.0), yaw=0.6)
    ego = make_scene([box])
    coop = make_scene([box])
    flipped = build_feature_clouds(MatchSet((Match(0, 0, 1.0, coop_yaw_flipped=True),)), ego, coop)
    np.testing.assert_allclose(flipped.source[:8], corners_of(with_flipped_yaw(box)))


def test_feature_clouds_reject_empty_matches():
    scene = make_scene([make_box((0, 0, 0))])
    with pytest.raises(EmptyMatchSet):
        build_feature_clouds(MatchSet(()), scene, scene)
