"""Self-tests of the benchmark's own arithmetic and ground truth.

    python3 -m pytest bench/test_bench.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import stats  # noqa: E402
from boxcalib import (  # noqa: E402
    RigidTransform,
    SynthConfig,
    generate_scene_pair,
    top_k_by_volume,
    transform_box,
)
from workloads import (  # noqa: E402
    Dense32,
    GroundTruthError,
    check_bijection,
    kept_indices,
    match_counts,
    shared_count,
    true_correspondences,
)


def test_tail_is_the_eleventh_largest_sample():
    value, percentile = stats.tail([float(v) for v in range(1, 101)])
    assert value == 90.0
    assert percentile == 90.0
    # 10 samples lie beyond the smallest of 11
    assert stats.tail([float(v) for v in range(11, 0, -1)]) == (1.0, 100.0 / 11)


def test_tail_without_ten_samples_beyond_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert stats.tail([float(v) for v in range(10)]) == (9.0, 100.0)
    with pytest.raises(ValueError):
        stats.tail([])


def test_failed_op_counts_against_budget_and_fail_rate():
    latencies = [0.01, 0.01, 0.5, 0.09]
    failed = [False, True, False, False]
    # the failed op was fast but still misses; the slow op misses too
    assert stats.within_budget_rate(latencies, failed) == 0.5
    assert stats.fail_rate(failed) == 0.25
    assert stats.within_budget_rate([0.1], [False]) == 1.0  # the budget is inclusive
    with pytest.raises(ValueError):
        stats.within_budget_rate([0.01], [False, True])


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = 11.75, 14.5, 17.25
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_digest_is_order_sensitive():
    assert stats.digest([(0, 1, False), (1, 0, True)]) != stats.digest([(1, 0, True), (0, 1, False)])
    assert stats.digest([("raised", "NoCoVisibleObjects")]) == stats.digest([("raised", "NoCoVisibleObjects")])


def _pair(seed, n_boxes=15, visibility=0.8):
    transform = RigidTransform.from_yaw(1.1, (12.0, -7.0, 0.5))
    return generate_scene_pair(SynthConfig(n_boxes=n_boxes, visibility=visibility, seed=seed,
                                           coop_transform=transform))


@pytest.mark.parametrize("seed", range(5))
def test_ground_truth_maps_each_coop_box_onto_its_ego_box(seed):
    ego, coop, truth = _pair(seed)
    gt = true_correspondences(ego, coop, truth)
    check_bijection(gt, len(coop))
    for j, i in gt.items():
        moved = transform_box(truth, coop[j])
        assert np.allclose(moved.center, ego[i].center, atol=1e-9)
        assert np.array_equal(coop[j].dims, ego[i].dims)
        assert math.isclose(moved.yaw, ego[i].yaw, abs_tol=1e-9) or math.isclose(
            abs(moved.yaw - ego[i].yaw), 2 * math.pi, abs_tol=1e-9)


def test_ground_truth_leaves_out_boxes_the_other_side_lacks():
    ego, coop, truth = _pair(3)
    gt = true_correspondences(ego, coop, truth)
    dropped = next(iter(gt.values()))
    keep = [i for i in range(len(ego)) if i != dropped]
    reduced = type(ego)(tuple(ego[i] for i in keep))
    gt_reduced = true_correspondences(reduced, coop, truth)
    assert len(gt_reduced) == len(coop) - 1
    assert {keep[i] for i in gt_reduced.values()} == set(gt.values()) - {dropped}
    with pytest.raises(GroundTruthError):
        check_bijection(gt_reduced, len(coop))
    with pytest.raises(GroundTruthError):
        check_bijection({0: 4, 1: 4}, 2)


def test_dense_frame_ground_truth_pairs_boxes_of_equal_dims():
    ego, coop, _, gt = Dense32(seed=7, work=BENCH).frame(0)
    assert len(ego) == len(coop) == 32
    assert 20 <= len(gt) < 32  # both sides hold private boxes
    assert len(set(gt.values())) == len(gt)
    for j, i in gt.items():
        assert np.array_equal(coop[j].dims, ego[i].dims)


def test_matches_are_remapped_through_top_k():
    ego, coop, truth = _pair(2, visibility=1.0)
    gt = true_correspondences(ego, coop, truth)
    ego_k, coop_k = top_k_by_volume(ego, 6), top_k_by_volume(coop, 6)
    ego_index, coop_index = kept_indices(ego, ego_k), kept_indices(coop, coop_k)
    volumes = sorted((b.volume for b in ego), reverse=True)
    assert sorted((ego[i].volume for i in ego_index), reverse=True) == volumes[:6]
    # with every box kept by volume on both sides, the same six objects survive
    assert shared_count(gt, ego_index, coop_index) == 6
    truthful = [(ego_index.index(gt[c]), k) for k, c in enumerate(coop_index)]
    assert match_counts(truthful, ego_index, coop_index, gt) == (6, 6)
    swapped = [(truthful[0][0], truthful[1][1]), (truthful[1][0], truthful[0][1])]
    assert match_counts(swapped, ego_index, coop_index, gt) == (0, 2)
