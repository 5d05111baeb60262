"""The closed-form fit of a valid set (association._fit) against its
references, and one fit per valid set in calibrate_scenes, across all
refinement rounds.

The fit is the least-squares fit of the pairs' corners by a yaw rotation
plus a translation. Its reference is independent of the closed form: the
corner cost of the centered corner clouds (build_feature_clouds with unit
weights) on a dense grid of yaws, refined by scipy's minimize_scalar.
Near its minimum the cost is flat to rounding, so the reference's yaw is
good to a few 1e-9 rad: the fit's yaw must be within YAW_TOL of it, and
its corner cost no higher than the reference's (to 1e-12 relative). The
fit's translation and rms must be those of its own yaw, recomputed from
the corners, within TOL. Where the 6-DoF corner fit (weighted_kabsch) has
no tilt to fit, on planar sets whose centers share one z per view, the two
fits must agree within TOL.
"""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

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
    rot_z,
    top_k_by_volume,
    transform_box,
    weighted_kabsch,
    with_flipped_yaw,
)
from boxcalib import association
from boxcalib.registration import RegistrationResult
from conftest import fit_sets, fitted_sets, make_box, make_scene, yaw_transform

TOL = 1e-12
YAW_TOL = 5e-8  # rad, against the grid-and-minimize_scalar reference (worst seen: 4.6e-9)
GRID = np.linspace(-math.pi, math.pi, 720, endpoint=False)  # a half-degree grid of yaws


def unit_matches(pairs, flipped):
    return MatchSet([Match(i, j, 1.0, flipped) for i, j in pairs])


def corner_fit(ego, coop, pairs, flipped):
    return weighted_kabsch(build_feature_clouds(unit_matches(pairs, flipped), ego, coop))


def closed_form_fit(ego, coop, pairs, flipped):
    R, t, rms, fixed = fit_sets(ego._arrays, coop._arrays, [(pairs, flipped)])
    assert fixed.tolist() == [True], "the set fixes no yaw"
    return RegistrationResult(RigidTransform(R[0], t[0]), float(rms[0]))


def yaw_of(R):
    return math.atan2(R[1, 0], R[0, 0])


def yaw_reference(ego, coop, matches):
    """The yaw-only corner fit of matches with equal weights, by search:
    (yaw, cost, clouds), cost(yaw) the sum of squared residuals of the
    centered corners (the clouds' weights are not read)."""
    clouds = build_feature_clouds(matches, ego, coop)
    src = clouds.source - clouds.source.mean(axis=0)
    tgt = clouds.target - clouds.target.mean(axis=0)

    def cost(yaw):
        r = src @ rot_z(yaw).T - tgt
        return float(np.sum(r * r))

    turned = np.einsum("gij,nj->gni", np.array([rot_z(yaw) for yaw in GRID]), src)
    best, step = GRID[np.argmin(np.sum((turned - tgt) ** 2, axis=(1, 2)))], GRID[1] - GRID[0]
    found = minimize_scalar(cost, bounds=(best - step, best + step), method="bounded", options={"xatol": 1e-12})
    return found.x, cost, clouds


def assert_is_the_yaw_fit(fit, ego, coop, matches):
    yaw, cost, clouds = yaw_reference(ego, coop, matches)
    R, t = fit.transform.rotation, fit.transform.translation
    assert np.array_equal(R[2], [0.0, 0.0, 1.0]) and np.array_equal(R[:, 2], [0.0, 0.0, 1.0])
    assert abs(math.remainder(yaw_of(R) - yaw, 2 * math.pi)) <= YAW_TOL
    assert cost(yaw_of(R)) <= cost(yaw) * (1.0 + TOL)
    # the translation and rms of the fit's own motion, from the corners
    src_bar, tgt_bar = clouds.source.mean(axis=0), clouds.target.mean(axis=0)
    assert np.max(np.abs(t - (tgt_bar - R @ src_bar))) <= TOL
    residual = clouds.source @ R.T + t - clouds.target
    assert abs(fit.rms_residual - math.sqrt(np.mean(np.sum(residual**2, axis=1)))) <= TOL


def assert_same_fit(a, b):
    assert np.max(np.abs(a.transform.rotation - b.transform.rotation)) <= TOL
    assert np.max(np.abs(a.transform.translation - b.transform.translation)) <= TOL
    assert abs(a.rms_residual - b.rms_residual) <= TOL


def random_pairs(rng, n, flipped, planar=False):
    """n box pairs of a road scene, centers up to 100 m away and within 2 m
    of the ground plane: the coop boxes are the ego boxes moved by a random
    yaw-only motion, then shifted by 0.5 m and turned by 5 degrees (standard
    deviations), resized and, if flipped, heading-reversed. A planar scene
    puts every ego center at one z and shifts the coop centers in x and y
    only."""
    t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform([-50, -50, -2], [50, 50, 2]))
    ego, coop, ground = [], [], rng.uniform(-2, 2)
    for _ in range(n):
        center = rng.uniform([-100, -100, -2], [100, 100, 2])
        if planar:
            center[2] = ground
        box = make_box(center, rng.uniform(0.5, 6, 3), rng.uniform(0, 2 * math.pi))
        moved = transform_box(t, box)
        moved = make_box(
            moved.center + rng.normal(0, 0.5, 3) * (1.0, 1.0, 0.0 if planar else 1.0),
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
    # the yaw-only corner reference, on sets with noise in z
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = 1 + trial % 20
        ego, coop, pairs = random_pairs(rng, n, flipped)
        fit = closed_form_fit(ego, coop, pairs, flipped)
        assert_is_the_yaw_fit(fit, ego, coop, unit_matches(pairs, flipped))


@pytest.mark.parametrize("flipped", [False, True], ids=["unflipped", "flipped"])
def test_fit_of_a_planar_set_is_the_6dof_corner_fit(flipped):
    # with every center of a view at one z, the corner cross-covariance has
    # no xz or yz entry and the 6-DoF fit tilts nothing: the fits agree
    rng = np.random.default_rng(29)
    for trial in range(100):
        ego, coop, pairs = random_pairs(rng, 3 + trial % 18, flipped, planar=True)
        assert_same_fit(closed_form_fit(ego, coop, pairs, flipped), corner_fit(ego, coop, pairs, flipped))


def test_fit_of_a_subset_ignores_the_other_boxes():
    rng = np.random.default_rng(4)
    ego, coop, pairs = random_pairs(rng, 12, False)
    subset = pairs[2:7]
    assert_is_the_yaw_fit(closed_form_fit(ego, coop, subset, False), ego, coop, unit_matches(subset, False))


def test_every_fitted_rotation_is_a_yaw():
    # centers noisy in z too: the fit has no tilt to fit to that noise, so
    # R's z row and column are exactly (0, 0, 1) and its determinant is 1
    rng = np.random.default_rng(31)
    for trial in range(50):
        flipped = bool(trial % 2)
        ego, coop, pairs = random_pairs(rng, 20, flipped)
        keys = [(pairs[k : k + 2 + 3 * k], flipped) for k in range(6)]  # 2 to 17 pairs
        R = fit_sets(ego._arrays, coop._arrays, keys)[0]
        assert np.array_equal(R[:, 2], np.tile([0.0, 0.0, 1.0], (len(keys), 1)))
        assert np.array_equal(R[:, :, 2], np.tile([0.0, 0.0, 1.0], (len(keys), 1)))
        assert np.all(np.abs(np.linalg.det(R) - 1.0) <= 1e-15)


@pytest.mark.parametrize(
    "ego_boxes, coop_boxes",
    [
        # squares of coordinates near 1e155 overflow the cross-covariance
        ([make_box((1e155, 0, 0)), make_box((0, 1e155, 0))],
         [make_box((1e155, 0, 0)), make_box((0, 1e155, 0))]),
        # a vertical needle pair fixes no rotation about its axis; its
        # anchor is scored like any other and wins on its own valid set
        ([make_box((0, 0, 0), dims=(1e-9, 1e-9, 5.0))], [make_box((3, 1, 0), dims=(1e-9, 1e-9, 5.0))]),
    ],
    ids=["overflow", "needle"],
)
def test_fit_raises_where_the_corner_fit_does(ego_boxes, coop_boxes):
    # _fit flags the set as fixing no yaw, and calibrate_scenes raises
    ego, coop = make_scene(ego_boxes), make_scene(coop_boxes)
    pairs = tuple((k, k) for k in range(len(ego)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateGeometry):
            corner_fit(ego, coop, pairs, False)
        assert fit_sets(ego._arrays, coop._arrays, [(pairs, False)])[3].tolist() == [False]
        with pytest.raises(DegenerateGeometry):
            calibrate_scenes(ego, coop)


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e5], ids=["random", "tiny", "1e5"])
def test_the_fits_norms_are_np_linalg_norms_arithmetic(scale, monkeypatch):
    # _fit's Cauchy-Schwarz norms take the square root of np.add.reduce of
    # the squares, which np.linalg.norm runs for real input along an axis:
    # equal to it bit for bit, on offsets (pairs x 3, axis 1) and packed
    # axes (5 x pairs, axis 0) alike, subnormal squares included
    rng = np.random.default_rng(int(-math.log10(scale)) + 400)
    for shape, axis in (((37, 3), 1), ((5, 37), 0), ((1, 3), 1), ((5, 1), 0)):
        x = rng.normal(0.0, 1.0, shape) * scale
        assert np.array_equal(np.sqrt(np.add.reduce(x * x, axis=axis)), np.linalg.norm(x, axis=axis))

    def forbidden(*args, **kwargs):
        raise AssertionError("_fit called np.linalg.norm")

    ego, coop, pairs = random_pairs(rng, 12, False)
    monkeypatch.setattr(np.linalg, "norm", forbidden)
    assert fit_sets(ego._arrays, coop._arrays, [(pairs, False), (pairs[:3], False)])[3].tolist() == [True, True]


def noisy_frames():
    """Noisy 15-box pairs, 12 per noise level, some with private boxes."""
    for sigma, yaw_deg in ((0.1, 1.0), (0.3, 3.0), (0.5, 5.0)):
        for k in range(12):
            base = SynthConfig(visibility=0.8 if k % 3 == 0 else 1.0)
            seed = np.random.SeedSequence([23, int(sigma * 10), k])
            yield noisy_pair(base, NoiseConfig(sigma, yaw_deg), seed)[:2]


def test_calibration_is_the_corner_fit_of_its_matches():
    # every match carries the winner's confidence: the weights are equal
    for ego, coop in noisy_frames():
        report = calibrate_scenes(ego, coop)
        ego_k, coop_k = (top_k_by_volume(s, DEFAULT_TOP_K) for s in (ego, coop))
        fit = RegistrationResult(report.transform, report.rms_residual)
        assert_is_the_yaw_fit(fit, ego_k, coop_k, report.matches)


def test_calibrate_scenes_fits_each_valid_set_once(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the corner path or an SVD ran")

    # the corner path, and any SVD: a box fixes only a yaw, and atan2 finds it
    for name, module in list(sys.modules.items()):
        if name == "boxcalib" or name.startswith("boxcalib."):
            for attr in ("build_feature_clouds", "weighted_kabsch", "corners_of", "nearest_rotation"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    fitted = []
    fit = association._fit

    def spy(ego, coop, *sets):
        fitted.extend(fitted_sets(*sets))  # every round's valid sets, in one list per frame
        return fit(ego, coop, *sets)

    monkeypatch.setattr(association, "_fit", spy)
    for ego, coop in noisy_frames():
        fitted.clear()
        calibrate_scenes(ego, coop)
        assert fitted, "every calibration fits its winner"
        assert len(set(fitted)) == len(fitted), "a valid set was fitted twice"
