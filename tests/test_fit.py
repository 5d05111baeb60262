"""The closed-form fit of a valid set (association._fit) against its corner
reference, weighted_kabsch of build_feature_clouds with unit weights, and
one fit per valid set in calibrate_scenes, across all refinement rounds."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from boxcalib import (
    DEFAULT_TOP_K,
    DegenerateGeometry,
    Match,
    MatchSet,
    NoiseConfig,
    RigidTransform,
    SynthConfig,
    build_feature_clouds,
    calibrate_scenes,
    noisy_pair,
    top_k_by_volume,
    transform_box,
    weighted_kabsch,
    with_flipped_yaw,
)
from boxcalib import association
from boxcalib.registration import RegistrationResult
from conftest import make_box, make_scene, yaw_transform

TOL = 1e-12


def corner_fit(ego, coop, pairs, flipped):
    unit = MatchSet([Match(i, j, 1.0, flipped) for i, j in pairs])
    return weighted_kabsch(build_feature_clouds(unit, ego, coop))


def closed_form_fit(ego, coop, pairs, flipped):
    R, t, rms, _, _ = association._fit(ego._arrays, coop._arrays, [(pairs, flipped)])
    return RegistrationResult(RigidTransform(R[0], t[0]), float(rms[0]))


def assert_same_fit(a, b):
    assert np.max(np.abs(a.transform.rotation - b.transform.rotation)) <= TOL
    assert np.max(np.abs(a.transform.translation - b.transform.translation)) <= TOL
    assert abs(a.rms_residual - b.rms_residual) <= TOL


def random_pairs(rng, n, flipped):
    """n box pairs of a road scene, centers up to 100 m away and within 2 m
    of the ground plane: the coop boxes are the ego boxes moved by a random
    yaw-only motion, then shifted by 0.5 m and turned by 5 degrees (standard
    deviations), resized and, if flipped, heading-reversed."""
    t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform([-50, -50, -2], [50, 50, 2]))
    ego, coop = [], []
    for _ in range(n):
        center = rng.uniform([-100, -100, -2], [100, 100, 2])
        box = make_box(center, rng.uniform(0.5, 6, 3), rng.uniform(0, 2 * math.pi))
        moved = transform_box(t, box)
        moved = make_box(
            moved.center + rng.normal(0, 0.5, 3),
            moved.dims * rng.uniform(0.8, 1.2, 3),
            moved.yaw + rng.normal(0, math.radians(5)),
        )
        ego.append(box)
        coop.append(with_flipped_yaw(moved) if flipped else moved)
    perm = rng.permutation(n)  # coop index k is the partner of ego index perm[k]
    pairs = tuple(sorted((int(p), k) for k, p in enumerate(perm)))
    return make_scene(ego), make_scene([coop[p] for p in perm]), pairs


@pytest.mark.parametrize("flipped", [False, True], ids=["unflipped", "flipped"])
def test_fit_matches_the_corner_reference(flipped):
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = 1 + trial % 20
        ego, coop, pairs = random_pairs(rng, n, flipped)
        assert_same_fit(
            closed_form_fit(ego, coop, pairs, flipped), corner_fit(ego, coop, pairs, flipped)
        )


def test_fit_of_a_subset_ignores_the_other_boxes():
    rng = np.random.default_rng(4)
    ego, coop, pairs = random_pairs(rng, 12, False)
    subset = pairs[2:7]
    assert_same_fit(closed_form_fit(ego, coop, subset, False), corner_fit(ego, coop, subset, False))


@pytest.mark.parametrize(
    "ego_boxes, coop_boxes",
    [
        # squares of coordinates near 1e155 overflow the cross-covariance
        ([make_box((1e155, 0, 0)), make_box((0, 1e155, 0))],
         [make_box((1e155, 0, 0)), make_box((0, 1e155, 0))]),
        # a needle pair fixes no rotation about its axis
        ([make_box((0, 0, 0), dims=(1e-9, 1e-9, 5.0))], [make_box((3, 1, 0), dims=(1e-9, 1e-9, 5.0))]),
    ],
    ids=["overflow", "needle"],
)
def test_fit_raises_where_the_corner_fit_does(ego_boxes, coop_boxes):
    ego, coop = make_scene(ego_boxes), make_scene(coop_boxes)
    pairs = tuple((k, k) for k in range(len(ego)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateGeometry):
            corner_fit(ego, coop, pairs, False)
        with pytest.raises(DegenerateGeometry):
            closed_form_fit(ego, coop, pairs, False)


def noisy_frames():
    """Noisy 15-box pairs, 12 per noise level, some with private boxes."""
    for sigma, yaw_deg in ((0.1, 1.0), (0.3, 3.0), (0.5, 5.0)):
        for k in range(12):
            base = SynthConfig(visibility=0.8 if k % 3 == 0 else 1.0)
            seed = np.random.SeedSequence([23, int(sigma * 10), k])
            yield noisy_pair(base, NoiseConfig(sigma, yaw_deg), seed)[:2]


def test_calibration_is_the_corner_fit_of_its_matches():
    for ego, coop in noisy_frames():
        report = calibrate_scenes(ego, coop)
        ego_k, coop_k = (top_k_by_volume(s, DEFAULT_TOP_K) for s in (ego, coop))
        # every match carries the winner's confidence: the weights are equal
        reference = weighted_kabsch(build_feature_clouds(report.matches, ego_k, coop_k))
        assert_same_fit(report, reference)


def test_calibrate_scenes_fits_each_valid_set_once(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the corner path ran")

    for name, module in list(sys.modules.items()):
        if name == "boxcalib" or name.startswith("boxcalib."):
            for attr in ("build_feature_clouds", "weighted_kabsch", "corners_of"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    fitted = []
    fit = association._fit

    def spy(ego, coop, keys):
        fitted.extend(keys)  # every round's keys, in one list per frame
        return fit(ego, coop, keys)

    monkeypatch.setattr(association, "_fit", spy)
    for ego, coop in noisy_frames():
        fitted.clear()
        calibrate_scenes(ego, coop)
        assert fitted, "every calibration fits its winner"
        assert len(set(fitted)) == len(fitted), "a valid set was fitted twice"
