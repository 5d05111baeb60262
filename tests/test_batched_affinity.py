"""build_affinity's batched anchor pass against the scalar kernel.

The reference scores each anchor on its own with odist, the per-anchor
path every PairScore comes from. The batched pass must give the same
entries and flip flags exactly, on generated scenes and on fixtures built
to reach each of its fallbacks to the scalar kernel.
"""
from __future__ import annotations

import numpy as np
import pytest

from boxcalib import (
    DegenerateCorners,
    NoiseConfig,
    ODistParams,
    SynthConfig,
    build_affinity,
    grid_product,
    noisy_pair,
    odist,
)
from boxcalib import association

from conftest import make_box, make_scene

SWEEP_GRID = grid_product((0.0, 0.5, 1.0, 2.0), (0.0, 10.0, 25.0))  # boxcalib sweep's default grid
CENTER_ONLY = ODistParams(alpha=1.0, beta=0.0)


def reference_affinity(ego, coop, params):
    entries = np.zeros((len(ego), len(coop)))
    flips = np.zeros(entries.shape, dtype=bool)
    for i in range(len(ego)):
        for j in range(len(coop)):
            try:
                score = odist(ego, coop, i, j, params)
            except DegenerateCorners:
                continue
            entries[i, j] = score.confidence
            flips[i, j] = score.coop_flipped
    return entries, flips


@pytest.fixture
def scalar_anchors(monkeypatch):
    """The (ego, coop) anchors the batched pass hands to the scalar kernel."""
    calls: list[tuple[int, int]] = []
    scalar = association._pair_score

    def counted(ego, coop, i, j, params):
        calls.append((i, j))
        return scalar(ego, coop, i, j, params)

    monkeypatch.setattr(association, "_pair_score", counted)
    return calls


def assert_matches_reference(ego, coop, params=ODistParams()):
    affinity = build_affinity(ego, coop, params)
    entries, flips = reference_affinity(ego, coop, params)
    assert np.array_equal(affinity.entries, entries)
    assert np.array_equal(affinity.coop_flip, flips)


@pytest.mark.parametrize(
    "params", [ODistParams(), ODistParams(try_yaw_flip=False)], ids=["flip", "no-flip"]
)
def test_sweep_cells_match_the_scalar_kernel(params):
    base = SynthConfig(n_boxes=15, visibility=1.0)
    for cell, noise in enumerate(SWEEP_GRID):
        ego, coop, _ = noisy_pair(base, noise, np.random.SeedSequence([7, cell]))
        assert_matches_reference(ego, coop, params)


def test_dense_pair_with_private_boxes_matches_the_scalar_kernel():
    # 40 objects, the coop agent sees 32 of them, 8 ego boxes dropped: both
    # sides hold private boxes, every anchor is scored (no top-k)
    base = SynthConfig(n_boxes=40, visibility=0.8)
    ego, coop, _ = noisy_pair(base, NoiseConfig(0.3, 3.0), np.random.SeedSequence(11))
    dropped = set(np.random.default_rng(11).choice(len(ego), 8, replace=False).tolist())
    ego = make_scene([b for k, b in enumerate(ego) if k not in dropped])
    assert (len(ego), len(coop)) == (32, 32)
    assert_matches_reference(ego, coop)


def test_two_coop_boxes_near_one_ego_box_take_the_scalar_kernel(scalar_anchors):
    # (a): coop boxes 1 and 2 both land within tau of ego box 1, and the
    # greedy pairing keeps only the nearer one
    ego = make_scene([make_box((0, 0, 0)), make_box((10, 0, 0))])
    coop = make_scene([make_box((0, 0, 0)), make_box((10.3, 0, 0)), make_box((9.6, 0.4, 0))])
    assert build_affinity(ego, coop).entries[0, 0] == 2.0
    assert (0, 0) in scalar_anchors
    assert_matches_reference(ego, coop)
    assert_matches_reference(coop, ego)  # two ego boxes near one coop box


def test_pair_at_exactly_tau_takes_the_scalar_kernel(scalar_anchors):
    # (b): the companion pair sits at distance 3.0 = tau
    ego = make_scene([make_box((0, 0, 0)), make_box((10, 0, 0), dims=(3, 1.5, 1.2))])
    coop = make_scene([make_box((0, 0, 0)), make_box((13.0, 0, 0), dims=(3, 1.5, 1.2))])
    assert build_affinity(ego, coop, CENTER_ONLY).entries[0, 0] == 2.0
    assert (0, 0) in scalar_anchors
    assert_matches_reference(ego, coop, CENTER_ONLY)


@pytest.mark.parametrize("offset", [1.5e-9, 2.5e-9, 0.5e-9])
def test_mean_at_a_rounding_half_point_takes_the_scalar_kernel(scalar_anchors, offset):
    # (c): anchor (0, 0) pairs the companion box in either heading variant
    # (ego boxes on both sides), both at distance 2 * offset, so both means
    # sit on a half-point of the 1e-9 m rounding that decides the tie
    ego = make_scene([make_box((0, 0, 0)), make_box((-10, 0, 0)), make_box((10, 0, 0))])
    coop = make_scene([make_box((0, 0, 0)), make_box((10 + offset, 0, 0))])
    affinity = build_affinity(ego, coop)
    assert affinity.entries[0, 0] == 2.0
    assert (0, 0) in scalar_anchors
    assert_matches_reference(ego, coop)


def test_congruent_single_boxes_are_decided_in_the_batch(scalar_anchors):
    # both variants fit exactly, means 0: a tie the rounding cannot split
    rng = np.random.default_rng(3)
    for _ in range(20):
        box = make_box(rng.uniform(-30, 30, 3), dims=rng.uniform(1, 6, 3), yaw=rng.uniform(0, 6.28))
        other = make_box(rng.uniform(-30, 30, 3), dims=box.dims, yaw=rng.uniform(0, 6.28))
        affinity = build_affinity(make_scene([box]), make_scene([other]))
        assert affinity.entries[0, 0] == 1.0 and not affinity.coop_flip[0, 0]
    assert scalar_anchors == []


def test_needle_anchors_score_zero_without_the_scalar_kernel(scalar_anchors):
    needle = make_box((0, 0, 0), dims=(4.0, 1e-12, 1e-12))
    ego = make_scene([needle, make_box((10, 0, 0)), make_box((3, 9, 0), dims=(2, 2, 2))])
    coop = make_scene([make_box((10, 0, 0)), needle, make_box((3, 9, 0), dims=(2, 2, 2))])
    affinity = build_affinity(ego, coop)
    assert affinity.entries[0, 1] == 0.0 and affinity.entries[0, 0] == 0.0
    assert all(i != 0 and j != 1 for i, j in scalar_anchors)
    assert_matches_reference(ego, coop)
