"""Synthetic scene generation, noise injection, and the sweep harness."""
from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from boxcalib import (
    NoiseConfig,
    PlacementFailure,
    Scene,
    SynthConfig,
    apply_transform,
    generate_scene_pair,
    grid_product,
    inject_noise,
    kappa_for_circular_std,
    noise_sweep,
    noisy_pair,
    random_yaw_transform,
)
from boxcalib.geometry import DetectionBox, RigidTransform
from boxcalib.synth import _distance_multisets_generic, _separated


def box_key(box):
    return tuple(np.round(box.center, 9)) + tuple(np.round(box.dims, 9)) + (round(box.yaw, 9),)


# ---- generate_scene_pair ----


def test_identity_transform_full_visibility_reproduces_the_scene():
    cfg = SynthConfig(n_boxes=5, coop_transform=RigidTransform.identity(), seed=3)
    ego, coop, t_true = generate_scene_pair(cfg)
    assert np.allclose(t_true.rotation, np.eye(3))
    assert np.allclose(t_true.translation, 0.0)
    assert sorted(map(box_key, ego)) == sorted(map(box_key, coop))


def test_same_seed_is_bit_identical():
    cfg = SynthConfig(n_boxes=12, seed=77)
    ego_a, coop_a, t_a = generate_scene_pair(cfg)
    ego_b, coop_b, t_b = generate_scene_pair(cfg)
    assert np.array_equal(t_a.rotation, t_b.rotation)
    assert np.array_equal(t_a.translation, t_b.translation)
    for x, y in zip(list(ego_a) + list(coop_a), list(ego_b) + list(coop_b)):
        assert np.array_equal(x.center, y.center)
        assert np.array_equal(x.dims, y.dims)
        assert x.yaw == y.yaw


def test_different_seeds_differ():
    ego_a, _, _ = generate_scene_pair(SynthConfig(n_boxes=5, seed=1))
    ego_b, _, _ = generate_scene_pair(SynthConfig(n_boxes=5, seed=2))
    assert sorted(map(box_key, ego_a)) != sorted(map(box_key, ego_b))


def test_partial_visibility_yields_a_subset_in_the_ego_frame():
    cfg = SynthConfig(n_boxes=10, visibility=0.6, seed=5)
    ego, coop, t_true = generate_scene_pair(cfg)
    assert len(ego) == 10
    assert len(coop) == 6
    ego_keys = set(map(box_key, ego))
    for box in coop:
        mapped = apply_transform(t_true, box.center[None, :])[0]
        back = box_key(box)
        # dims and (rotated) center must come from some ego box
        candidates = [k for k in ego_keys if np.allclose(k[3:6], back[3:6], atol=1e-9)]
        assert any(np.allclose(k[0:3], mapped, atol=1e-6) for k in candidates)


def test_min_separation_is_respected():
    cfg = SynthConfig(n_boxes=15, min_separation=5.0, seed=11)
    ego, _, _ = generate_scene_pair(cfg)
    centers = np.array([b.center for b in ego])
    d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 5.0


def test_agent_ids_label_the_two_views():
    ego, coop, _ = generate_scene_pair(SynthConfig(n_boxes=4, seed=0))
    assert ego.agent_id == "ego"
    assert coop.agent_id == "coop"


def test_impossible_separation_raises_placement_failure():
    cfg = SynthConfig(
        n_boxes=30,
        x_range=(-5.0, 5.0),
        y_range=(-5.0, 5.0),
        min_separation=10.0,
        seed=0,
        guard_tolerance=0.0,
    )
    with pytest.raises(PlacementFailure):
        generate_scene_pair(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_boxes=0)
    with pytest.raises(ValueError):
        SynthConfig(min_separation=0.0)
    with pytest.raises(ValueError):
        SynthConfig(visibility=0.0)
    with pytest.raises(ValueError):
        SynthConfig(visibility=1.1)
    with pytest.raises(ValueError):
        SynthConfig(dims_range=((0.0, 6.0), (1.2, 2.8), (1.0, 2.5)))
    with pytest.raises(ValueError):
        SynthConfig(dims_range=((2.0, math.nan), (1.2, 2.8), (1.0, 2.5)))


@pytest.mark.parametrize("bounds", [(5.0, -5.0), (math.nan, 1.0), (0.0, math.inf)])
@pytest.mark.parametrize("name", ["x_range", "y_range", "z_range"])
def test_placement_ranges_must_be_finite_and_ordered(name, bounds):
    # (5, -5) failed inside generate_scene_pair with NumPy's "high - low < 0"
    with pytest.raises(ValueError, match=f"{name} must be a finite"):
        SynthConfig(**{name: bounds})
    flat = SynthConfig(n_boxes=1, **{name: (2.0, 2.0)})
    ego, _, _ = generate_scene_pair(flat)
    assert ego[0].center["xyz".index(name[0])] == 2.0


@pytest.mark.parametrize("name", ["x_range", "y_range", "z_range"])
def test_placement_ranges_must_span_a_finite_width(name):
    # each bound is finite but max - min overflows: generate_scene_pair
    # placed infinite centers and failed with "non-finite values"
    with pytest.raises(ValueError, match=f"{name} must span a finite max - min"):
        SynthConfig(**{name: (-1e308, 1e308)})
    wide = SynthConfig(n_boxes=1, **{name: (-8e307, 8e307)})
    ego, _, _ = generate_scene_pair(wide)
    assert np.isfinite(ego[0].center).all()


def test_zero_guard_tolerance_turns_the_guard_off():
    # an equilateral triangle: every box sees the same distances
    centers = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [5.0, 5.0 * math.sqrt(3.0), 0.0]])
    assert not _distance_multisets_generic(centers, 1.5)
    assert _distance_multisets_generic(centers, 0.0)
    with pytest.raises(TypeError, match="generic_guard"):
        SynthConfig(generic_guard=False)


def double_loop_generic(centers, tolerance):
    """The guard as it was written before it compared rows at once: each
    box's distances to the others, sorted, against every later box's."""
    n = centers.shape[0]
    if n < 3:
        return True
    d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    profiles = np.sort(np.array([np.delete(d[i], i) for i in range(n)]), axis=1)
    for i in range(n):
        for k in range(i + 1, n):
            if np.max(np.abs(profiles[i] - profiles[k])) < tolerance:
                return False
    return True


def test_the_guard_decides_as_the_double_loop_does():
    # random layouts, and regular polygons with a little jitter, which the
    # guard rejects at most tolerances; 0-2 boxes and tolerance 0 included
    rng = np.random.default_rng(126)
    decisions = set()
    for trial in range(600):
        n = int(rng.integers(0, 25))
        if trial % 2:
            turn = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            centers = 10.0 * np.stack([np.cos(turn), np.sin(turn), np.zeros(n)], axis=1)
            centers += rng.normal(0.0, 0.05, (n, 3))
        else:
            centers = rng.uniform(-30.0, 30.0, (n, 3))
        for tolerance in (0.0, 0.1, 1.5, 5.0, 20.0):
            expected = double_loop_generic(centers, tolerance)
            assert _distance_multisets_generic(centers, tolerance) is expected, (trial, n, tolerance)
            decisions.add((n < 3, tolerance == 0.0, expected))
    assert {(False, False, True), (False, False, False), (True, False, True), (False, True, True)} <= decisions


def per_pair_separated(candidate, placed, separation):
    """The placement test as generate_scene_pair wrote it before it tested a
    candidate against all placed centers at once."""
    return all(np.linalg.norm(candidate - p) >= separation for p in placed)


def test_the_placement_test_decides_as_the_per_pair_loop_does():
    # random layouts; integer grids, whose 3-4-5 distances sit exactly at a
    # separation of 5; and centers a few ulps either side of the separation,
    # where a vectorized sum of squares and the per-pair norm can round apart
    rng = np.random.default_rng(26)
    decisions = set()
    for trial in range(3000):
        kind, k = trial % 3, int(rng.integers(0, 20))
        separation = float(rng.choice([0.5, 1.0, 5.0, 7.3]))
        if kind == 0:
            candidate, placed = rng.uniform(-30.0, 30.0, 3), rng.uniform(-30.0, 30.0, (k, 3))
        elif kind == 1:
            candidate, placed, separation = rng.integers(-6, 7, 3) * 1.0, rng.integers(-6, 7, (k, 3)) * 1.0, 5.0
        else:
            candidate = rng.uniform(-30.0, 30.0, 3)
            toward = rng.normal(size=(k, 3))
            toward /= np.linalg.norm(toward, axis=1)[:, None]
            placed = candidate + separation * toward * (1.0 + rng.integers(-4, 5, (k, 1)) * 2.0**-52)
        expected = per_pair_separated(candidate, placed, separation)
        assert _separated(candidate, placed, separation) is expected, (trial, kind)
        decisions.add((kind, expected))
    assert decisions == {(kind, decided) for kind in range(3) for decided in (False, True)}


# ---- inject_noise ----


def test_zero_noise_returns_the_scene_unchanged():
    ego, _, _ = generate_scene_pair(SynthConfig(n_boxes=5, seed=9))
    assert inject_noise(ego, NoiseConfig(0.0, 0.0, seed=1)) is ego


def test_noise_perturbs_centers_and_yaws_but_not_dims():
    ego, _, _ = generate_scene_pair(SynthConfig(n_boxes=8, seed=9))
    noisy = inject_noise(ego, NoiseConfig(0.5, 10.0, seed=2))
    assert noisy is not ego
    assert len(noisy) == len(ego)
    for a, b in zip(ego, noisy):
        assert np.array_equal(a.dims, b.dims)
        assert not np.allclose(a.center, b.center)
        assert a.yaw != b.yaw


def test_noise_is_deterministic_under_seed():
    ego, _, _ = generate_scene_pair(SynthConfig(n_boxes=6, seed=9))
    a = inject_noise(ego, NoiseConfig(0.5, 10.0, seed=3))
    b = inject_noise(ego, NoiseConfig(0.5, 10.0, seed=3))
    c = inject_noise(ego, NoiseConfig(0.5, 10.0, seed=4))
    assert all(np.array_equal(x.center, y.center) for x, y in zip(a, b))
    assert any(not np.array_equal(x.center, y.center) for x, y in zip(a, c))


def big_flat_scene(n):
    """A dense single-use scene for Monte-Carlo noise statistics."""
    side = int(math.ceil(math.sqrt(n)))
    i = np.arange(n)
    centers = np.stack([100.0 * (i % side), 100.0 * (i // side), np.zeros(n)], axis=1)
    return Scene.from_arrays(centers, np.tile([4.0, 2.0, 1.5], (n, 1)), np.zeros(n), agent_id="test")


def test_position_noise_matches_the_half_normal_mean():
    n = 100_000
    scene = big_flat_scene(n)
    noisy = inject_noise(scene, NoiseConfig(0.5, 0.0, seed=42))
    dx = np.array([b.center[0] for b in noisy]) - np.array([b.center[0] for b in scene])
    expected = 0.5 * math.sqrt(2 / math.pi)
    assert abs(np.mean(np.abs(dx)) - expected) / expected < 0.02


def test_yaw_noise_matches_the_target_circular_std():
    n = 100_000
    scene = big_flat_scene(n)
    noisy = inject_noise(scene, NoiseConfig(0.0, 25.0, seed=43))
    dyaw = np.array([b.yaw for b in noisy]) - np.array([b.yaw for b in scene])
    r = abs(np.mean(np.exp(1j * dyaw)))
    circ_std_deg = math.degrees(math.sqrt(-2.0 * math.log(r)))
    assert abs(circ_std_deg - 25.0) / 25.0 < 0.03


def test_kappa_inversion_hits_the_requested_spread_exactly():
    from scipy.special import ive

    for std_deg in (1.0, 5.0, 10.0, 25.0, 45.0):
        s = math.radians(std_deg)
        kappa = kappa_for_circular_std(s)
        r = ive(1, kappa) / ive(0, kappa)
        assert math.sqrt(-2.0 * math.log(r)) == pytest.approx(s, rel=1e-9)


def test_a_cached_kappa_equals_a_fresh_solve_bit_for_bit():
    for std_deg in (0.5, 3.0, 10.0, 25.0, 90.0, 180.0):
        s = math.radians(std_deg)
        fresh = kappa_for_circular_std.__wrapped__(s)  # the solve, uncached
        first, again = kappa_for_circular_std(s), kappa_for_circular_std(s)
        assert np.float64(first).tobytes() == np.float64(fresh).tobytes()
        assert again is first  # served from the cache


def test_kappa_validation():
    with pytest.raises(ValueError):
        kappa_for_circular_std(0.0)
    with pytest.raises(ValueError):
        kappa_for_circular_std(-1.0)
    with pytest.raises(ValueError):
        NoiseConfig(-0.1, 0.0)
    with pytest.raises(ValueError):
        NoiseConfig(0.0, 181.0)


def per_box_noise(scene, noise):
    """inject_noise as it drew before its draws were batched: box by box,
    three normals for the center, then one von Mises for the yaw."""
    rng = np.random.default_rng(noise.seed)
    kappa = kappa_for_circular_std(math.radians(noise.yaw_std_deg)) if noise.yaw_std_deg > 0 else None
    boxes = []
    for b in scene:
        center = b.center + rng.normal(0.0, noise.sigma_pos, 3) if noise.sigma_pos > 0 else b.center
        yaw = b.yaw + float(rng.vonmises(0.0, kappa)) if kappa is not None else b.yaw
        boxes.append(DetectionBox(center, b.dims, yaw, b.confidence, b.label))
    return boxes


@pytest.mark.parametrize("sigma, yaw_std", [(0.5, 0.0), (2.0, 0.0), (0.0, 1e-4), (0.0, 10.0), (0.0, 180.0), (0.3, 3.0)])
def test_batched_draws_match_the_per_box_draws(sigma, yaw_std):
    # one axis on draws all boxes in one call; both on keep the per-box
    # interleaving; yaw stds from von Mises's wrapped-normal branch (a
    # tiny std, a huge kappa) to its flattest (180 deg)
    for seed in range(20):
        ego, coop, _ = generate_scene_pair(SynthConfig(n_boxes=12, visibility=0.5, seed=seed))
        for scene in (ego, coop, Scene(ego.boxes[::-1], "boxes")):
            noise = NoiseConfig(sigma, yaw_std, seed=100 + seed)
            for a, b in zip(inject_noise(scene, noise), per_box_noise(scene, noise), strict=True):
                assert a.center.tobytes() == b.center.tobytes() and a.dims.tobytes() == b.dims.tobytes()
                assert (a.yaw, a.confidence, a.label) == (b.yaw, b.confidence, b.label)


# ---- noisy_pair ----


def test_noisy_pair_keeps_a_configured_transform():
    seed = np.random.SeedSequence([4, 1, 2])
    noise = NoiseConfig(0.5, 10.0)
    drawn_ego, drawn_coop, drawn = noisy_pair(SynthConfig(n_boxes=8), noise, seed)
    fixed = RigidTransform.from_yaw(0.4, np.array([3.0, -2.0, 0.5]))
    ego, coop, t_true = noisy_pair(SynthConfig(n_boxes=8, coop_transform=fixed), noise, seed)
    assert np.array_equal(t_true.rotation, fixed.rotation)
    assert np.array_equal(t_true.translation, fixed.translation)
    assert not np.allclose(drawn.translation, fixed.translation)
    # the layout and the ego noise do not depend on the transform
    assert list(map(box_key, ego)) == list(map(box_key, drawn_ego))
    assert len(coop) == len(drawn_coop)


# ---- noise_sweep ----


def test_grid_product_is_sigma_major():
    grid = grid_product((0.0, 1.0), (0.0, 10.0, 25.0))
    assert [(g.sigma_pos, g.yaw_std_deg) for g in grid] == [
        (0.0, 0.0),
        (0.0, 10.0),
        (0.0, 25.0),
        (1.0, 0.0),
        (1.0, 10.0),
        (1.0, 25.0),
    ]


def test_sweep_zero_cell_is_exact():
    cells = noise_sweep(
        grid_product((0.0,), (0.0,)),
        SynthConfig(n_boxes=8, seed=1),
        n_trials=5,
        threshold_m=1.0,
        seed=7,
    )
    assert len(cells) == 1
    s = cells[0].summary
    assert s.success_rate == 1.0
    assert s.mrte_m < 1e-6
    assert s.mrre_deg < 1e-6


def test_sweep_is_deterministic():
    kwargs = dict(n_trials=4, threshold_m=1.0, seed=5)
    base = SynthConfig(n_boxes=8, seed=0)
    grid = grid_product((0.0, 0.5), (0.0,))
    a = noise_sweep(grid, base, **kwargs)
    b = noise_sweep(grid, base, **kwargs)
    for ca, cb in zip(a, b):
        for ta, tb in zip(ca.trials, cb.trials):
            assert ta == tb


def test_sweep_counts_failed_trials_in_the_totals():
    # tiny sparse scenes at heavy noise produce some solver failures; they
    # must appear in n_total but never in n_valid
    cells = noise_sweep(
        grid_product((2.0,), (25.0,)),
        SynthConfig(n_boxes=4, seed=0),
        n_trials=12,
        threshold_m=1.0,
        seed=3,
    )
    s = cells[0].summary
    assert s.n_total == 12
    assert len(cells[0].trials) == 12
    assert s.n_valid <= s.n_total


def test_sweep_rejects_an_empty_grid():
    with pytest.raises(ValueError):
        noise_sweep([], SynthConfig(n_boxes=5), n_trials=1)


# ---- the random streams, pinned ----


def seeds(*entropy, count):
    return [int(s) for s in np.random.SeedSequence(list(entropy)).generate_state(count, np.uint64)]


def synthesized_scenes():
    """Every scene synthesis makes for Sweep15(501) trials 0-23 (each noise
    cell twice) and Dense32(501) frames 0-3, drawn as bench/workloads.py
    draws them: generate_scene_pair's two scenes, then the two inject_noise
    calls. The cells cover each noise axis alone, both and neither; the
    dense ego scene is made from boxes, the others from arrays."""
    grid = grid_product((0.0, 0.5, 1.0, 2.0), (0.0, 10.0, 25.0))
    for k in range(24):
        cell, trial = k % len(grid), k // len(grid)
        s_scene, s_transform, s_ego, s_coop = seeds(501, cell, trial, count=4)
        transform = random_yaw_transform(np.random.default_rng(s_transform))
        ego, coop, _ = generate_scene_pair(
            SynthConfig(n_boxes=15, visibility=1.0, seed=s_scene, coop_transform=transform)
        )
        yield from (ego, coop)
        yield inject_noise(ego, replace(grid[cell], seed=s_ego))
        yield inject_noise(coop, replace(grid[cell], seed=s_coop))
    for k in range(4):
        s_scene, s_transform, s_drop, s_ego, s_coop = seeds(501, k, count=5)
        transform = random_yaw_transform(np.random.default_rng(s_transform))
        ego_all, coop, _ = generate_scene_pair(
            SynthConfig(n_boxes=40, visibility=0.8, seed=s_scene, coop_transform=transform)
        )
        dropped = set(np.random.default_rng(s_drop).choice(len(ego_all), 8, replace=False).tolist())
        ego = Scene(tuple(b for i, b in enumerate(ego_all) if i not in dropped), "ego")
        noise = NoiseConfig(0.3, 3.0) if k % 2 else NoiseConfig()
        yield from (ego_all, coop)
        yield inject_noise(ego, replace(noise, seed=s_ego))
        yield inject_noise(coop, replace(noise, seed=s_coop))


def test_synthesis_draws_the_pinned_streams():
    # the bytes of every center, dims and yaw, as the box-by-box generator
    # drew them (NumPy 2.4's Generator streams; a NumPy whose distributions
    # draw differently changes the hash at every commit alike)
    digest = hashlib.sha256()
    for scene in synthesized_scenes():
        for box in scene:
            digest.update(box.center.tobytes() + box.dims.tobytes() + np.float64(box.yaw).tobytes())
    assert digest.hexdigest() == "8f190679849173ee516aa863bb14f38524cf2ddc314e0111360df48e49e50f70"
