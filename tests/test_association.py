"""Scene-level association: pair scoring, affinity, and assignment."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcalib import (
    AffinityMatrix,
    NoCoVisibleObjects,
    NoiseConfig,
    ODistParams,
    RigidTransform,
    SynthConfig,
    alignment_score,
    apply_transform,
    associate,
    box_distance,
    build_affinity,
    calibrate_scenes,
    corners_of,
    invert,
    noisy_pair,
    odist,
    rot_z,
    solve_assignment,
    top_k_by_volume,
    transform_box,
    transform_scene,
    with_flipped_yaw,
)
from conftest import (
    assignment_max_oracle,
    make_box,
    make_scene,
    spread_scene,
    yaw_transform,
)

CENTER_ONLY = ODistParams(alpha=1.0, beta=0.0)


# ---- box_distance ----


def test_identical_boxes_have_zero_distance():
    box = make_box((3.0, -1.0, 0.5), yaw=0.7)
    assert box_distance(box, box) == 0.0


def test_center_term_alone_measures_the_shift():
    a = make_box((0, 0, 0))
    b = make_box((1, 0, 0))
    assert box_distance(a, b, ODistParams(alpha=1.0, beta=0.0)) == pytest.approx(1.0, abs=1e-12)


def test_corner_term_alone_is_normalized_per_corner():
    # 8 corners each displaced 1 m: Frobenius norm sqrt(8), scaled back to 1
    a = make_box((0, 0, 0))
    b = make_box((1, 0, 0))
    d = box_distance(a, b, ODistParams(alpha=0.0, beta=1 / math.sqrt(8)))
    assert d == pytest.approx(1.0, abs=1e-12)


def test_default_distance_of_a_pure_translation_is_twice_the_shift():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = make_box(rng.uniform(-10, 10, 3), dims=rng.uniform(1, 5, 3), yaw=rng.uniform(0, 6))
        shift = rng.uniform(-2, 2, 3)
        b = make_box(a.center + shift, dims=a.dims, yaw=a.yaw)
        assert box_distance(a, b) == pytest.approx(2 * np.linalg.norm(shift), rel=1e-12)


def test_distance_is_symmetric_and_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = make_box(rng.uniform(-10, 10, 3), dims=rng.uniform(1, 5, 3), yaw=rng.uniform(0, 6))
        b = make_box(rng.uniform(-10, 10, 3), dims=rng.uniform(1, 5, 3), yaw=rng.uniform(0, 6))
        assert box_distance(a, b) == pytest.approx(box_distance(b, a), rel=1e-12)
        assert box_distance(a, b) >= 0.0


def corner_distance_oracle(ego_corners, coop_corners, params):
    """box_distance from its definition: alpha * |center difference| +
    beta * Frobenius norm of the 8x3 corner difference."""
    center = np.linalg.norm(ego_corners.mean(axis=0) - coop_corners.mean(axis=0))
    return params.alpha * center + params.beta * np.linalg.norm(ego_corners - coop_corners)


def random_box(rng):
    return make_box(rng.uniform(-25, 25, 3), dims=rng.uniform(0.5, 6, 3), yaw=rng.uniform(0, 7))


def test_box_distance_matches_the_corner_definition():
    rng = np.random.default_rng(19)
    for params in (ODistParams(), ODistParams(alpha=0.3, beta=1.7), CENTER_ONLY):
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            for other in (b, with_flipped_yaw(b)):
                expected = corner_distance_oracle(corners_of(a), corners_of(other), params)
                assert box_distance(a, other, params) == pytest.approx(expected, rel=1e-12)


def test_alignment_distances_under_a_tilt_match_the_corner_definition():
    # a rotation off the z axis moves boxes out of the yaw-only family; the
    # scored distances still equal the distances between moved corners
    ego = spread_scene(6, seed=27)
    truth = yaw_transform(0.6, (5.0, -3.0, 0.2))
    coop = transform_scene(invert(truth), ego)
    c, s = math.cos(0.03), math.sin(0.03)
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    moved = RigidTransform(tilt @ truth.rotation, truth.translation + 0.1)
    score = alignment_score(ego, coop, moved)
    assert score.confidence == 6
    for i, j, d in score.valid_pairs:
        coop_corners = corners_of(coop[j]) @ moved.rotation.T + moved.translation
        expected = corner_distance_oracle(corners_of(ego[i]), coop_corners, ODistParams())
        assert d == pytest.approx(expected, rel=1e-12)


# ---- alignment_score ----


def pairing_oracle(ego, coop, transform, params):
    """alignment_score's valid set from its definition: every (i, j) whose
    moved corners are within tau, sorted by (distance, i, j) and paired
    greedily one-to-one, the kept pairs listed in (i, j) order."""
    candidates = []
    for i, e in enumerate(ego):
        for j, c in enumerate(coop):
            moved = corners_of(c) @ transform.rotation.T + transform.translation
            d = corner_distance_oracle(corners_of(e), moved, params)
            if d <= params.tau:
                candidates.append((d, i, j))
    used_ego, used_coop, kept = set(), set(), []
    for d, i, j in sorted(candidates):
        if i not in used_ego and j not in used_coop:
            used_ego.add(i)
            used_coop.add(j)
            kept.append((i, j, d))
    return sorted(kept)


def seen_from(truth, boxes):
    """The coop scene whose boxes land on `boxes` (ego frame) under truth."""
    return transform_scene(invert(truth), make_scene(boxes))


def crowded_fixture():
    # coop box 1 is within tau of ego boxes 1 and 2; coop boxes 2 and 3 are
    # within tau of ego box 3; the nearer box has the higher index both times
    ego = make_scene(
        [
            make_box((0, 0, 0)),
            make_box((10, 0, 0), dims=(3, 1.5, 1.2)),
            make_box((10.7, 0.9, 0), dims=(3.2, 1.5, 1.2)),
            make_box((30, 0, 0), dims=(5, 2, 2)),
        ]
    )
    truth = yaw_transform(2.2, (4.0, -7.0, 0.3))
    coop = seen_from(
        truth,
        [
            make_box((0.05, 0, 0)),
            make_box((10.55, 0.7, 0), dims=(3, 1.5, 1.2)),
            make_box((29.5, -0.5, 0.2), dims=(5, 2, 2), yaw=0.1),
            make_box((30.4, 0.1, 0), dims=(5, 2, 2)),
        ],
    )
    return ego, coop, truth


def tilted_fixture():
    # a rotation off the z axis; coop boxes 8 and 9 are second detections
    # of ego boxes 0 and 3, which compete with the first ones
    ego = spread_scene(8, seed=31)
    shifts = {0: (0.6, 0.3, 0.0), 3: (-0.4, 0.7, 0.1)}
    twins = [make_box(ego[k].center + shift, ego[k].dims, ego[k].yaw) for k, shift in shifts.items()]
    truth = yaw_transform(-0.9, (2.0, 6.0, -0.4))
    coop = seen_from(truth, [*ego, *twins])
    c, s = math.cos(0.04), math.sin(0.04)
    tilt = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return ego, coop, RigidTransform(tilt @ truth.rotation, truth.translation + 0.2)


def flipped_fixture():
    # coop box 1 is ego box 1 with its heading reversed; ego box 2, same
    # heading and farther off, competes for it
    small = (1.0, 0.8, 1.0)
    ego = make_scene(
        [
            make_box((0, 0, 0)),
            make_box((8, 0, 0), dims=small, yaw=0.3),
            make_box((8.9, 0.6, 0), dims=small, yaw=0.3 + math.pi),
        ]
    )
    truth = yaw_transform(0.7, (-3.0, 1.0, 0.0))
    reversed_box = make_box((8.1, 0, 0), dims=small, yaw=0.3 + math.pi)
    coop = seen_from(truth, [make_box((0, 0, 0)), reversed_box])
    return ego, coop, truth


def swapped(ego, coop, truth):
    return coop, ego, invert(truth)


def empty_fixtures():
    ego, coop, truth = crowded_fixture()
    empty = make_scene([])
    return [(empty, coop, truth), (ego, empty, truth), (empty, empty, truth)]


PAIRING_FIXTURES = {
    "crowded": crowded_fixture(),
    "crowded-swapped": swapped(*crowded_fixture()),
    "tilted": tilted_fixture(),
    "flipped": flipped_fixture(),
    **{f"empty-{k}": fixture for k, fixture in enumerate(empty_fixtures())},
}


@pytest.mark.parametrize("params", [ODistParams(), CENTER_ONLY], ids=["default", "center-only"])
@pytest.mark.parametrize("fixture", PAIRING_FIXTURES.keys())
def test_alignment_pairs_match_the_greedy_oracle(fixture, params):
    ego, coop, transform = PAIRING_FIXTURES[fixture]
    score = alignment_score(ego, coop, transform, params)
    want = pairing_oracle(ego, coop, transform, params)
    assert [p[:2] for p in score.valid_pairs] == [p[:2] for p in want]
    assert score.confidence == len(want)
    for (*_, got), (*_, expected) in zip(score.valid_pairs, want):
        assert abs(got - expected) <= 1e-12
    if want:
        assert abs(score.mean_distance - sum(p[2] for p in want) / len(want)) <= 1e-12
    else:
        assert score.mean_distance == math.inf


def test_pairing_fixtures_need_the_greedy_pass():
    # the oracle's candidates within tau are not already one-to-one
    for name in ("crowded", "crowded-swapped", "tilted", "flipped"):
        ego, coop, transform = PAIRING_FIXTURES[name]
        params = ODistParams()
        within = [
            (i, j)
            for i in range(len(ego))
            for j in range(len(coop))
            if pairing_oracle(make_scene([ego[i]]), make_scene([coop[j]]), transform, params)
        ]
        rows, cols = [i for i, _ in within], [j for _, j in within]
        assert len(set(rows)) < len(rows) or len(set(cols)) < len(cols), name


# ---- odist ----


def test_self_anchor_on_identical_scenes_scores_the_whole_scene():
    scene = spread_scene(6, seed=4)
    for i in range(len(scene)):
        score = odist(scene, scene, i, i)
        assert score.confidence == len(scene)
        assert score.mean_distance == pytest.approx(0.0, abs=1e-9)
        assert sorted((e, c) for e, c, _ in score.valid_pairs) == [(k, k) for k in range(6)]


def test_anchor_with_no_scene_support_keeps_only_the_seed_pair():
    anchor_dims = (4.2, 2.0, 1.6)
    ego = make_scene(
        [
            make_box((0, 0, 0), dims=anchor_dims),
            make_box((100, 0, 0), dims=(3, 1.5, 1.2)),
            make_box((100, 15, 0), dims=(5, 2.2, 2.0)),
        ]
    )
    coop = make_scene(
        [
            make_box((0, 0, 0), dims=anchor_dims),
            make_box((-70, 40, 0), dims=(3.4, 1.7, 1.3)),
            make_box((-55, -80, 0), dims=(4.6, 2.4, 1.8)),
        ]
    )
    score = odist(ego, coop, 0, 0)
    assert score.confidence == 1
    assert score.mean_distance == pytest.approx(0.0, abs=1e-9)


def test_single_box_mean_distance_grows_linearly_with_the_offset():
    # coop box congruent except for length stretched by 2*delta: after the
    # hypothesis aligns the centers, every corner is displaced delta along
    # the length axis, so the mean distance equals delta exactly.
    for delta in (0.1, 0.5, 1.0, 2.0):
        ego = make_scene([make_box((5, 2, 0), dims=(4.0, 2.0, 1.5))])
        coop = make_scene([make_box((-3, 7, 0), dims=(4.0 + 2 * delta, 2.0, 1.5))])
        score = odist(ego, coop, 0, 0)
        assert score.confidence == 1
        assert score.mean_distance == pytest.approx(delta, rel=1e-9)


def test_companion_offset_contributes_twice_through_both_terms():
    # anchor pair congruent, companion shifted by delta in the coop frame:
    # valid set is {anchor at 0, companion at 2*delta}, mean is delta
    delta = 0.4
    ego = make_scene([make_box((0, 0, 0)), make_box((12, 0, 0), dims=(3, 1.5, 1.2))])
    coop = make_scene(
        [make_box((0, 0, 0)), make_box((12 + delta, 0, 0), dims=(3, 1.5, 1.2))]
    )
    score = odist(ego, coop, 0, 0)
    assert score.confidence == 2
    assert score.mean_distance == pytest.approx(delta, rel=1e-9)


def test_greedy_pairing_is_one_to_one():
    # one coop companion sits between two ego boxes; it may claim only the
    # nearer one, so confidence is 2 rather than 3
    ego = make_scene(
        [
            make_box((0, 0, 0)),
            make_box((10.0, 0, 0), dims=(3, 1.5, 1.2)),
            make_box((10.4, 8, 0), dims=(3, 1.5, 1.2)),
        ]
    )
    coop = make_scene([make_box((0, 0, 0)), make_box((10.1, 0, 0), dims=(3, 1.5, 1.2))])
    score = odist(ego, coop, 0, 0, CENTER_ONLY)
    assert score.confidence == 2
    pairs = {(e, c) for e, c, _ in score.valid_pairs}
    assert pairs == {(0, 0), (1, 1)}
    assert score.mean_distance == pytest.approx(0.05, abs=1e-12)


def test_pair_at_exactly_tau_is_admitted():
    ego = make_scene([make_box((0, 0, 0)), make_box((10, 0, 0), dims=(3, 1.5, 1.2))])
    at_tau = make_scene(
        [make_box((0, 0, 0)), make_box((13.0, 0, 0), dims=(3, 1.5, 1.2))]
    )
    beyond = make_scene(
        [make_box((0, 0, 0)), make_box((13.0000001, 0, 0), dims=(3, 1.5, 1.2))]
    )
    assert odist(ego, at_tau, 0, 0, CENTER_ONLY).confidence == 2
    assert odist(ego, beyond, 0, 0, CENTER_ONLY).confidence == 1


def test_odist_checks_indices():
    scene = spread_scene(3, seed=0)
    with pytest.raises(IndexError):
        odist(scene, scene, 3, 0)


# ---- build_affinity ----


def test_identity_scene_affinity_is_diagonal_dominant():
    scene = spread_scene(5, seed=9)
    m = build_affinity(scene, scene)
    assert np.all(np.diag(m.entries) == 5.0)
    for i in range(5):
        off_row = np.delete(m.entries[i], i)
        off_col = np.delete(m.entries[:, i], i)
        assert np.all(off_row < 5.0)
        assert np.all(off_col < 5.0)


def test_anchor_mean_distance_does_not_gate_the_affinity():
    # companion offset 3.0 with the center-only metric: admitted into the
    # valid set (d = tau), so the anchor enters with both pairs however
    # large its unrefined mean distance, (0 + 3.0)/2 = 1.5 m
    ego = make_scene([make_box((0, 0, 0)), make_box((10, 0, 0), dims=(3, 1.5, 1.2))])
    at_limit = make_scene(
        [make_box((0, 0, 0)), make_box((13.0, 0, 0), dims=(3, 1.5, 1.2))]
    )
    assert odist(ego, at_limit, 0, 0, CENTER_ONLY).mean_distance == pytest.approx(1.5)
    assert build_affinity(ego, at_limit, CENTER_ONLY).entries[0, 0] == 2.0
    assert len(associate(ego, at_limit, CENTER_ONLY)) == 2


def test_single_congruent_boxes_give_a_unit_matrix():
    ego = make_scene([make_box((4, 4, 0), yaw=0.3)])
    coop = make_scene([make_box((-8, 2, 1), yaw=1.9)])
    m = build_affinity(ego, coop)
    assert m.entries.shape == (1, 1)
    assert m.entries[0, 0] == 1.0


def test_degenerate_boxes_score_zero_instead_of_raising():
    needle = make_box((0, 0, 0), dims=(4.0, 1e-12, 1e-12))
    ego = make_scene([needle, make_box((10, 0, 0))])
    coop = make_scene([needle, make_box((10, 0, 0))])
    m = build_affinity(ego, coop)
    assert m.entries[0, 0] == 0.0
    assert m.entries[0, 1] == 0.0
    assert m.entries[1, 0] == 0.0
    assert m.entries[1, 1] >= 1.0


def test_affinity_matrix_is_validated_and_read_only():
    with pytest.raises(ValueError):
        AffinityMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        AffinityMatrix(np.array([[-1.0]]))
    with pytest.raises(ValueError):
        AffinityMatrix(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        AffinityMatrix(np.ones((2, 2)), np.zeros((3, 2), dtype=bool))
    m = AffinityMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 7.0


def test_affinity_matrix_leaves_the_callers_arrays_writable():
    entries, flips = np.ones((2, 2)), np.zeros((2, 2), dtype=bool)
    m = AffinityMatrix(entries, flips)
    entries[0, 0], flips[0, 0] = 5.0, True
    assert m.entries[0, 0] == 1.0 and not m.coop_flip[0, 0]
    solve_assignment(entries)
    entries[1, 1] = 6.0


# ---- solve_assignment ----


def test_diagonal_dominant_matrix_selects_the_diagonal():
    matches = solve_assignment(np.array([[5.0, 0.0], [0.0, 3.0]]))
    assert [(m.ego_index, m.coop_index, m.confidence) for m in matches] == [
        (0, 0, 5.0),
        (1, 1, 3.0),
    ]


def test_off_diagonal_total_beats_a_greedy_row_choice():
    matches = solve_assignment(np.array([[2.0, 3.0], [4.0, 1.0]]))
    assert [(m.ego_index, m.coop_index, m.confidence) for m in matches] == [
        (0, 1, 3.0),
        (1, 0, 4.0),
    ]


def test_all_zero_matrix_yields_an_empty_match_set():
    assert len(solve_assignment(np.zeros((3, 4)))) == 0


def test_zero_entries_are_never_selected():
    # column 1 is all zeros; row 1 must stay unmatched rather than take it
    matches = solve_assignment(np.array([[2.0, 0.0], [1.0, 0.0]]))
    assert [(m.ego_index, m.coop_index) for m in matches] == [(0, 0)]


def test_ties_resolve_to_the_lexicographically_smallest_assignment():
    # ties go as scipy's solver breaks them; on these matrices it returns
    # the lexicographically smallest optimum
    all_ones = solve_assignment(np.ones((3, 3)))
    assert [(m.ego_index, m.coop_index) for m in all_ones] == [(0, 0), (1, 1), (2, 2)]
    staggered = solve_assignment(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    assert [(m.ego_index, m.coop_index) for m in staggered] == [(0, 0), (1, 1)]


def test_rectangular_and_empty_shapes_are_handled():
    wide = solve_assignment(np.array([[1.0, 4.0, 2.0]]))
    assert [(m.ego_index, m.coop_index) for m in wide] == [(0, 1)]
    tall = solve_assignment(np.array([[1.0], [4.0], [2.0]]))
    assert [(m.ego_index, m.coop_index) for m in tall] == [(1, 0)]


def test_assignment_rejects_invalid_arrays():
    with pytest.raises(ValueError):
        solve_assignment(np.array([[-1.0, 2.0]]))
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.nan, 2.0]]))
    with pytest.raises(ValueError):
        solve_assignment(np.ones(4))


def test_assignment_carries_flip_flags_from_the_affinity():
    flips = np.array([[False, True], [False, False]])
    matches = solve_assignment(AffinityMatrix(np.array([[0.0, 4.0], [2.0, 0.0]]), flips))
    by_pair = {(m.ego_index, m.coop_index): m.coop_yaw_flipped for m in matches}
    assert by_pair == {(0, 1): True, (1, 0): False}


def _random_affinity(rng):
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    entries = rng.integers(0, 6, (n, m)).astype(float)
    if rng.random() < 0.3:
        entries[int(rng.integers(0, n)), :] = 0.0
    if rng.random() < 0.3:
        entries[:, int(rng.integers(0, m))] = 0.0
    return entries


def test_assignment_matches_the_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        entries = _random_affinity(rng)
        matches = solve_assignment(entries)
        total = sum(m.confidence for m in matches)
        assert total == pytest.approx(assignment_max_oracle(entries), abs=1e-9)
        for m in matches:
            assert entries[m.ego_index, m.coop_index] > 0.0
            assert m.confidence == entries[m.ego_index, m.coop_index]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_assignment_optimality_property(rows):
    entries = np.array(rows, dtype=float)
    matches = solve_assignment(entries)
    total = sum(m.confidence for m in matches)
    assert total == pytest.approx(assignment_max_oracle(entries), abs=1e-9)


def _matrix(values):
    return st.integers(1, 7).flatmap(
        lambda n: st.integers(1, 7).flatmap(
            lambda m: st.lists(values, min_size=n * m, max_size=n * m).map(
                lambda flat: np.array(flat, dtype=float).reshape(n, m)
            )
        )
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _matrix(st.integers(0, 2)),  # many ties
        _matrix(st.floats(0.0, 100.0, allow_nan=False)),
        _matrix(st.sampled_from([0.0, 0.1, 0.2, 0.30000000000000004, 1e-10, 1e6])),
    )
)
def test_one_solve_is_optimal_one_to_one_and_repeatable(entries):
    matches = solve_assignment(entries)
    total = sum(m.confidence for m in matches)
    assert total == pytest.approx(assignment_max_oracle(entries), rel=1e-12, abs=1e-9)
    rows, cols = [m.ego_index for m in matches], [m.coop_index for m in matches]
    assert rows == sorted(set(rows)) and len(set(cols)) == len(cols)  # ascending, one-to-one
    assert all(entries[i, j] > 0.0 for i, j in zip(rows, cols))
    assert all(m.confidence == entries[m.ego_index, m.coop_index] for m in matches)
    assert solve_assignment(entries) == matches


# ---- associate ----


def test_identical_scenes_associate_as_the_identity():
    scene = spread_scene(7, seed=15)
    matches = associate(scene, scene)
    assert [(m.ego_index, m.coop_index) for m in matches] == [(i, i) for i in range(7)]
    assert all(m.confidence == 7.0 for m in matches)


def test_association_is_invariant_to_a_rigid_motion():
    ego = spread_scene(6, seed=23)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform(-20, 20, 3))
        coop = transform_scene(invert(t), ego)
        matches = associate(ego, coop)
        assert [(m.ego_index, m.coop_index) for m in matches] == [(i, i) for i in range(6)]


def test_association_recovers_a_known_shuffle():
    ego = spread_scene(6, seed=31)
    t = yaw_transform(1.2, (8.0, -3.0, 0.5))
    perm = [3, 0, 5, 1, 4, 2]
    coop = make_scene(
        [transform_box(invert(t), ego[i]) for i in perm], agent_id="coop"
    )
    matches = associate(ego, coop)
    expected = sorted((perm[j], j) for j in range(6))
    assert [(m.ego_index, m.coop_index) for m in matches] == expected


def test_swapping_the_scenes_swaps_the_roles():
    ego = spread_scene(5, seed=40)
    coop = transform_scene(invert(yaw_transform(0.9, (5.0, 2.0, -0.5))), ego)
    forward = {(m.ego_index, m.coop_index) for m in associate(ego, coop)}
    backward = {(m.coop_index, m.ego_index) for m in associate(coop, ego)}
    assert forward == backward


def test_matches_never_carry_zero_confidence():
    scene = spread_scene(5, seed=44)
    for m in associate(scene, scene):
        assert m.confidence > 0.0


def test_disjoint_scenes_raise_no_covisible():
    ego = make_scene(
        [make_box((0, 0, 0), dims=(1, 1, 1)), make_box((20, 0, 0), dims=(1.2, 1.1, 1.0))]
    )
    coop = make_scene(
        [make_box((0, 0, 0), dims=(14, 13, 12)), make_box((20, 0, 0), dims=(15, 12, 11))]
    )
    with pytest.raises(NoCoVisibleObjects):
        associate(ego, coop)


def test_empty_coop_scene_raises_no_covisible():
    ego = spread_scene(3, seed=2)
    with pytest.raises(NoCoVisibleObjects):
        associate(ego, make_scene([], agent_id="coop"))


def test_refinement_runs_to_its_fixed_point():
    # noise_sweep(seed=501) cell (0.5 m, 0 deg), trial 0: this pair's winning
    # anchor keeps improving for more than two refits
    seed = np.random.SeedSequence([501, 3, 0])
    ego, coop, truth = noisy_pair(SynthConfig(), NoiseConfig(0.5, 0.0), seed)
    clean_ego, clean_coop, _ = noisy_pair(SynthConfig(), NoiseConfig(), seed)
    ego_centers = np.array([b.center for b in clean_ego])
    true_pairs = set()
    for j, b in enumerate(clean_coop):
        gap = np.linalg.norm(ego_centers - apply_transform(truth, b.center), axis=1)
        true_pairs.add((int(gap.argmin()), j))
    report = calibrate_scenes(ego, coop)
    found = {(m.ego_index, m.coop_index) for m in report.matches}
    assert len(found) == 15
    assert found <= true_pairs


# ---- heading flips ----


def test_reversed_coop_headings_are_recovered_when_enabled():
    ego = spread_scene(5, seed=50)
    coop = make_scene([with_flipped_yaw(b) for b in ego], agent_id="coop")
    m = build_affinity(ego, coop)
    assert np.all(np.diag(m.entries) == 5.0)
    assert np.all(np.diag(m.coop_flip))
    matches = associate(ego, coop)
    assert all(m.coop_yaw_flipped for m in matches)


def test_reversed_headings_break_consensus_when_flips_are_disabled():
    ego = spread_scene(5, seed=50)
    coop = make_scene([with_flipped_yaw(b) for b in ego], agent_id="coop")
    m = build_affinity(ego, coop, ODistParams(try_yaw_flip=False))
    assert np.max(m.entries) <= 1.0
    assert not np.any(m.coop_flip)


def test_congruent_single_boxes_keep_the_unflipped_heading():
    # Both heading variants fit a lone congruent pair exactly, so their mean
    # distances differ only by rounding; that tie goes to the unflipped one.
    rng = np.random.default_rng(8)
    flipped = 0
    for _ in range(200):
        coop_box = make_box(
            rng.uniform(-30, 30, 3), dims=rng.uniform(1, 6, 3), yaw=rng.uniform(0, 2 * math.pi)
        )
        t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform(-20, 20, 3))
        ego_box = transform_box(t, coop_box)
        report = calibrate_scenes(make_scene([ego_box]), make_scene([coop_box]))
        if report.matches.matches[0].coop_yaw_flipped:
            flipped += 1
            continue
        expected = rot_z(ego_box.yaw - coop_box.yaw)
        assert np.linalg.norm(report.transform.rotation - expected) < 1e-9
    assert flipped == 0, f"{flipped} of 200 congruent pairs came back flipped"


# ---- top_k_by_volume ----


def test_top_k_keeps_the_largest_volumes():
    rng = np.random.default_rng(6)
    boxes = [
        make_box(rng.uniform(-30, 30, 3), dims=rng.uniform(1, 6, 3)) for _ in range(20)
    ]
    scene = make_scene(boxes)
    kept = top_k_by_volume(scene, 15)
    assert len(kept) == 15
    cutoff = sorted((b.volume for b in boxes), reverse=True)[14]
    assert min(b.volume for b in kept) >= cutoff


def test_top_k_preserves_scene_order_among_survivors():
    dims = [(2, 2, 2), (5, 2, 2), (1, 1, 1), (4, 3, 2), (3, 3, 3)]
    scene = make_scene([make_box((10 * i, 0, 0), dims=d) for i, d in enumerate(dims)])
    kept = top_k_by_volume(scene, 3)
    assert [b.center[0] for b in kept] == [10.0, 30.0, 40.0]


def test_top_k_ties_prefer_the_earlier_index():
    scene = make_scene(
        [
            make_box((0, 0, 0), dims=(2, 2, 2)),
            make_box((10, 0, 0), dims=(4, 2, 1)),  # same volume as box 0
            make_box((20, 0, 0), dims=(1, 1, 1)),
        ]
    )
    kept = top_k_by_volume(scene, 1)
    assert len(kept) == 1
    assert kept[0].center[0] == 0.0


def test_top_k_passthrough_cases():
    scene = spread_scene(4, seed=1)
    assert top_k_by_volume(scene, None) is scene
    assert top_k_by_volume(scene, math.inf) is scene
    assert top_k_by_volume(scene, 4) is scene
    assert top_k_by_volume(scene, 99) is scene
    with pytest.raises(ValueError):
        top_k_by_volume(scene, 0)


def test_top_k_accepts_integral_floats_and_numpy_integers():
    scene = spread_scene(4, seed=1)
    two = [b.center.tolist() for b in top_k_by_volume(scene, 2)]
    for k in (2.0, np.int64(2), np.float64(2.0)):
        assert [b.center.tolist() for b in top_k_by_volume(scene, k)] == two


@pytest.mark.parametrize("k", [2.5, 0.5, True, False, -math.inf, math.nan, -1, 0.0, "3"], ids=repr)
def test_top_k_rejects_what_is_not_an_integer_of_at_least_one(k):
    # a fractional k used to be truncated (2.5 kept 2 boxes, 0.5 named 0 in
    # the error) and a bool counted as an integer (True kept 1 box)
    with pytest.raises(ValueError, match=f"got {re.escape(repr(k))}$"):
        top_k_by_volume(spread_scene(4, seed=1), k)


# ---- parameter validation ----


def test_params_reject_out_of_range_thresholds():
    with pytest.raises(ValueError):
        ODistParams(tau=0.0)
    with pytest.raises(ValueError):
        ODistParams(tau=3.5)
    with pytest.raises(ValueError):
        ODistParams(alpha=-0.1)
    with pytest.raises(ValueError):
        ODistParams(alpha=0.0, beta=0.0)
