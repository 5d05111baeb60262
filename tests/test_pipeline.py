"""Whole-pipeline calibration on synthetic ground truth."""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcalib import (
    DEFAULT_TOP_K,
    ODistParams,
    CalibrationReport,
    CalibrationTrace,
    NoCoVisibleObjects,
    NoiseConfig,
    RigidTransform,
    Scene,
    SynthConfig,
    alignment_score,
    apply_transform,
    associate,
    build_affinity,
    calibrate_scenes,
    compose,
    generate_scene_pair,
    grid_product,
    health_check,
    inject_noise,
    invert,
    noisy_pair,
    odist,
    random_yaw_transform,
    rre,
    rte,
    top_k_by_volume,
    transform_scene,
    with_flipped_yaw,
)
from boxcalib.io import load_scene, report_to_dict, save_scene
from boxcalib.pipeline import CALIBRATION_FAILURES
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


@pytest.mark.parametrize("n_boxes", [10, 30])  # the scenes kept whole, and cut to the top 15
def test_trace_splits_the_elapsed_time_into_its_stages(n_boxes):
    *_, report = calibrated_pair(5, n_boxes=n_boxes)
    seconds = [s for name, s in dataclasses.asdict(report.trace).items() if name.endswith("_s")]
    assert isinstance(report.trace, CalibrationTrace)
    assert len(seconds) == 5
    assert all(math.isfinite(s) and s >= 0.0 for s in seconds)
    assert sum(seconds) <= report.elapsed_s


def test_trace_counts_the_refinement_rounds_and_the_sets_fitted():
    # every winner was fitted while refining; a lone pair is fitted once,
    # in refinement's one round
    lone = make_scene([make_box((1.0, 2.0, 0.0), yaw=0.3)])
    reports = [calibrated_pair(seed, n_boxes=n)[-1] for seed, n in ((5, 10), (5, 30), (8, 3))]
    reports.append(calibrate_scenes(lone, lone))
    for report in reports:
        counts = report.trace.refinement_rounds, report.trace.sets_fitted
        assert all(type(c) is int and c >= 0 for c in counts)
        assert report.trace.sets_fitted >= 1 and report.trace.refinement_rounds >= 1
    assert (reports[-1].trace.refinement_rounds, reports[-1].trace.sets_fitted) == (1, 1)


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
    with pytest.raises(ValueError, match="got inf"):
        calibrate_scenes(ego, coop, top_k=math.inf)
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
        "trace",
    }
    assert d["trace"] == dataclasses.asdict(report.trace)
    assert set(d["trace"]) == {
        "top_k_s", "scene_arrays_s", "anchor_pass_s", "refinement_s", "health_s",
        "refinement_rounds", "sets_fitted",
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


def test_reversed_coop_headings_report_the_same_health():
    # the matches carry the flip flag, so the health must score the
    # transform under the reversed headings too
    ego, coop, t_true = noisy_pair(SynthConfig(), NoiseConfig(), np.random.SeedSequence(3))
    reversed_coop = make_scene([with_flipped_yaw(b) for b in coop], agent_id="coop")
    given, report = calibrate_scenes(ego, coop), calibrate_scenes(ego, reversed_coop)
    assert all(m.coop_yaw_flipped for m in report.matches)
    assert rte(t_true.translation, report.transform.translation) < 1e-9
    assert report.health_confidence == given.health_confidence == len(ego)
    assert report.health_mean_distance == pytest.approx(given.health_mean_distance, abs=1e-12)


SWEEP_GRID = grid_product((0.0, 0.5, 1.0, 2.0), (0.0, 10.0, 25.0))  # boxcalib sweep's default grid


def sweep_frame(seed, k):
    """Trial k of a Sweep15 benchmark run of the given seed: 15 boxes seen
    by both agents, the grid cells round-robin."""
    cell = k % len(SWEEP_GRID)
    base = SynthConfig(n_boxes=15, visibility=1.0)
    return noisy_pair(base, SWEEP_GRID[cell], np.random.SeedSequence([seed, cell, k // len(SWEEP_GRID)]))[:2]


def calibrated_or_none(ego, coop):
    try:
        return calibrate_scenes(ego, coop)
    except CALIBRATION_FAILURES:
        return None


@pytest.mark.parametrize("seed", [501, 502, 503])
def test_the_coop_heading_convention_does_not_change_a_calibration(seed):
    # reversing every coop heading swaps the two heading variants of every
    # score: a result of two or more matches keeps its pairs, confidences,
    # health and transform, only the flip flags toggle, and every affinity
    # entry stays. A one-match result is left out: its two headings tie,
    # and the tie goes to the unflipped one (7 of the three seeds' first
    # 240 frames, all at sigma = 2 m)
    compared = 0
    for k in range(120):
        ego, coop = sweep_frame(seed, k)
        reversed_coop = make_scene([with_flipped_yaw(b) for b in coop], agent_id="coop")
        assert np.array_equal(build_affinity(ego, coop).entries, build_affinity(ego, reversed_coop).entries)
        given, flipped = calibrated_or_none(ego, coop), calibrated_or_none(ego, reversed_coop)
        if not any(r is not None and len(r.matches) >= 2 for r in (given, flipped)):
            continue
        compared += 1
        assert given is not None and flipped is not None, k
        toggled = [(m.ego_index, m.coop_index, m.confidence, not m.coop_yaw_flipped) for m in flipped.matches]
        assert toggled == [(m.ego_index, m.coop_index, m.confidence, m.coop_yaw_flipped) for m in given.matches], k
        assert flipped.health_confidence == given.health_confidence, k
        assert rte(given.transform.translation, flipped.transform.translation) <= 1e-9, k
        assert rre(given.transform.rotation, flipped.transform.rotation) <= 1e-9, k
    assert compared >= 115


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



# ---- invariances of calibrate_scenes on noisy scene pairs ----


@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5])
def test_moving_the_noisy_ego_view_composes_the_transform(sigma):
    # yaw-only motions G of the ego view: the matches stay and the
    # transform becomes G o T, to 1e-9 (rotation entries and meters)
    noise = NoiseConfig(sigma, 2.0)
    for k in range(60):
        ego, coop, _ = noisy_pair(SynthConfig(), noise, np.random.SeedSequence([61, int(sigma * 10), k]))
        motion = random_yaw_transform(np.random.default_rng([62, k]))
        report = calibrate_scenes(ego, coop)
        moved = calibrate_scenes(transform_scene(motion, ego), coop)
        assert moved.matches == report.matches
        expected = compose(motion, report.transform)
        assert np.max(np.abs(moved.transform.rotation - expected.rotation)) <= 1e-9
        assert np.max(np.abs(moved.transform.translation - expected.translation)) <= 1e-9


def noisy_views(sigma, visibility, k):
    base = SynthConfig(visibility=visibility)
    return noisy_pair(base, NoiseConfig(sigma, 2.0), np.random.SeedSequence([71, int(sigma * 10), k]))[:2]


def max_entry_difference(a, b):
    return max(np.max(np.abs(a.rotation - b.rotation)), np.max(np.abs(a.translation - b.translation)))


@pytest.mark.parametrize("visibility", [1.0, 0.8])
@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5])
def test_swapping_the_noisy_views_inverts_the_transform(sigma, visibility):
    # the matches come back transposed with the same confidence and flip
    # flags, and the transform inverted, to 1e-9 (rotation entries and meters)
    for k in range(40):
        ego, coop = noisy_views(sigma, visibility, k)
        forward = calibrate_scenes(ego, coop)
        backward = calibrate_scenes(coop, ego)
        assert {(m.coop_index, m.ego_index, m.confidence, m.coop_yaw_flipped) for m in backward.matches} == {
            (m.ego_index, m.coop_index, m.confidence, m.coop_yaw_flipped) for m in forward.matches
        }
        assert max_entry_difference(backward.transform, invert(forward.transform)) <= 1e-9


@pytest.mark.parametrize("visibility", [1.0, 0.8])
@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5])
def test_permuting_the_noisy_boxes_permutes_the_matches(sigma, visibility):
    # the matches are the same boxes under the new indices and the transform
    # stays, to 1e-9 (rotation entries and meters)
    for k in range(40):
        ego, coop = noisy_views(sigma, visibility, k)
        rng = np.random.default_rng([72, k])
        order_e, order_c = rng.permutation(len(ego)), rng.permutation(len(coop))
        shuffled = calibrate_scenes(
            Scene(tuple(ego[i] for i in order_e)), Scene(tuple(coop[i] for i in order_c))
        )
        report = calibrate_scenes(ego, coop)
        assert {
            (int(order_e[m.ego_index]), int(order_c[m.coop_index]), m.confidence, m.coop_yaw_flipped)
            for m in shuffled.matches
        } == {(m.ego_index, m.coop_index, m.confidence, m.coop_yaw_flipped) for m in report.matches}
        assert max_entry_difference(shuffled.transform, report.transform) <= 1e-9


# ---- a scene builds its arrays once, on first use ----

BENCH = Path(__file__).resolve().parent.parent / "bench"


def unbuilt(*scenes):
    """Copies of the scenes whose arrays are yet to be built (transform_scene
    builds them with the scene)."""
    return [Scene(s.boxes, s.agent_id, s.frame_id) for s in scenes]


def test_a_scene_builds_its_arrays_once_across_the_entry_points(builds):
    ego = spread_scene(8, seed=21)
    truth = yaw_transform(0.6, (5.0, -4.0, 0.3))
    ego, coop = unbuilt(ego, transform_scene(invert(truth), ego))
    builds.clear()
    odist(ego, coop, 0, 0)
    alignment_score(ego, coop, truth)
    health_check(ego, coop, truth)
    build_affinity(ego, coop)
    associate(ego, coop)
    calibrate_scenes(ego, coop)
    assert builds == [len(ego), len(coop)]


def test_a_trimmed_scene_builds_its_own_arrays(builds):
    ego = spread_scene(20, seed=22)
    ego, coop = unbuilt(ego, transform_scene(invert(yaw_transform(0.4, (3.0, 2.0, 0.0))), ego))
    builds.clear()
    calibrate_scenes(ego, coop, top_k=15)
    assert sorted(builds) == [15, 15, 20, 20]
    kept = top_k_by_volume(ego, 15)
    assert kept._arrays is not ego._arrays
    assert np.array_equal(kept._arrays.centers, [b.center for b in kept])
    assert top_k_by_volume(ego, 20)._arrays is ego._arrays  # kept whole: the scene itself


def test_synthesized_and_loaded_scenes_arrive_with_their_arrays(builds, tmp_path):
    # generate_scene_pair, inject_noise, transform_scene and load_scene
    # build a scene's arrays with it, so a calibration builds none
    ego, coop, truth = generate_scene_pair(SynthConfig(n_boxes=12, seed=3))
    save_scene(ego, tmp_path / "ego.json")
    scenes = (
        load_scene(tmp_path / "ego.json"),
        inject_noise(coop, NoiseConfig(0.5, 10.0, seed=4)),
        transform_scene(invert(truth), ego),
    )
    builds.clear()
    for scene in (coop, *scenes):
        calibrate_scenes(ego, scene)
    assert builds == []


def test_a_replaced_scene_builds_fresh_arrays(builds):
    scene = spread_scene(5, seed=23)
    first = scene._arrays
    copy = dataclasses.replace(scene)
    assert copy._arrays is not first and copy._arrays is copy._arrays
    assert builds == [5, 5]
    assert np.array_equal(copy._arrays.packed, first.packed)


@pytest.mark.parametrize("table", ["centers", "dims", "yaws", "packed"])
def test_a_cached_table_is_read_only(table):
    # every later call on the scene shares the table
    values = getattr(spread_scene(4, seed=24)._arrays, table)
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        values += 1.0


@pytest.fixture(scope="module")
def workloads():
    path = sys.path[:]
    sys.path.insert(0, str(BENCH))  # workloads imports its neighbours
    try:
        import workloads
    finally:
        sys.path[:] = path
    return workloads


def report_fields(ego, coop, top_k):
    """A calibration's transform bytes, matches, rms and health, or the
    name of the failure it raised."""
    try:
        report = calibrate_scenes(ego, coop, ODistParams(), top_k)
    except CALIBRATION_FAILURES as e:
        return type(e).__name__
    t = report.transform
    health = report.health_confidence, report.health_mean_distance
    return t.rotation.tobytes(), t.translation.tobytes(), report.matches, report.rms_residual, health


@pytest.mark.parametrize("name, frames", [("Sweep15", 6), ("Dense32", 2)])
def test_calibrating_the_same_scenes_twice_gives_the_same_report(workloads, tmp_path, name, frames):
    # the second call finds every array built; the benchmark's repeated
    # calibrate_scenes check relies on it giving the same answer bit for bit
    workload = getattr(workloads, name)(501, tmp_path)
    for k in range(frames):
        ego, coop = workload.frame(k)[:2]
        first = report_fields(ego, coop, workload.top_k)
        assert not isinstance(first, str), k
        assert report_fields(ego, coop, workload.top_k) == first, k
