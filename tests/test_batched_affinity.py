"""build_affinity's anchor blocks against the transform kernel.

The reference scores each anchor's motion, R = rot_z(yaw_i - yaw_j) and
t = e_i - R c_j, through the transform kernel with the coop headings as
given only (given_heading_score), once on the coop scene and once on a
copy with every heading reversed, the better variant by confidence and
then mean distance in nanometres rounded half to even, the unflipped one
winning ties. The blocks must give the same entries and flip flags
exactly, on generated scenes and on fixtures built at the edges of the
pairing rules, needle anchors included. An anchor must score the same
through odist as in the affinity, with the same valid pairs in the same
order as its own transform's score, and associate must score every
anchor in one pass over the ego boxes and then score only refinement's
refits, each under both coop headings.
"""
from __future__ import annotations

import numpy as np
import pytest

from boxcalib import (
    NoiseConfig,
    ODistParams,
    RigidTransform,
    Scene,
    SynthConfig,
    associate,
    build_affinity,
    grid_product,
    noisy_pair,
    odist,
    rot_z,
    with_flipped_yaw,
)
from boxcalib import association

from conftest import given_heading_score, make_box, make_scene

SWEEP_GRID = grid_product((0.0, 0.5, 1.0, 2.0), (0.0, 10.0, 25.0))  # boxcalib sweep's default grid
CENTER_ONLY = ODistParams(alpha=1.0, beta=0.0)
HALF_POINTS = (1.5e-9, 2.5e-9, 0.5e-9)
# (offset, shift, flipped) for mirrored_pair: the flipped mean is smaller by
# 1e-12 m, a tie, or by 2e-9 m, a win
NEAR_TIES = [(3e-10, 1e-12, False), (3e-9, 2e-9, True)]


def anchor_motion(ego_box, coop_box):
    """The motion of anchor (ego_box, coop_box): the rotation by their yaw
    difference that takes the coop box's center onto the ego box's."""
    R = rot_z(ego_box.yaw - coop_box.yaw)
    return RigidTransform(R, ego_box.center - R @ coop_box.center)


def transform_scores(ego, coop, params):
    """Both heading variants of every anchor scored by the transform kernel.
    Each variant is scored under its own headings alone, so the heading
    rule is derived here, not taken from alignment_score."""
    reversed_coop = Scene(tuple(with_flipped_yaw(b) for b in coop))
    return {
        (i, j): [given_heading_score(ego, c, anchor_motion(ego[i], c[j]), params) for c in (coop, reversed_coop)]
        for i in range(len(ego))
        for j in range(len(coop))
    }


def reference_affinity(ego, coop, params):
    entries = np.zeros((len(ego), len(coop)))
    flips = np.zeros(entries.shape, dtype=bool)
    for (i, j), variants in transform_scores(ego, coop, params).items():
        ranks = [(-s.confidence, np.rint(s.mean_distance * 1e9)) for s in variants]  # nanometres, half to even
        best = ranks.index(min(ranks))  # the first of equals: unflipped wins ties
        entries[i, j] = variants[best].confidence
        flips[i, j] = best == 1
    return entries, flips


def assert_matches_reference(ego, coop, params=ODistParams()):
    affinity = build_affinity(ego, coop, params)
    entries, flips = reference_affinity(ego, coop, params)
    assert np.array_equal(affinity.entries, entries)
    assert np.array_equal(affinity.coop_flip, flips)


def dense_pair():
    # 40 objects, the coop agent sees 32 of them, 8 ego boxes dropped: both
    # sides hold private boxes, every anchor is scored (no top-k)
    base = SynthConfig(n_boxes=40, visibility=0.8)
    ego, coop, _ = noisy_pair(base, NoiseConfig(0.3, 3.0), np.random.SeedSequence(11))
    dropped = set(np.random.default_rng(11).choice(len(ego), 8, replace=False).tolist())
    return make_scene([b for k, b in enumerate(ego) if k not in dropped]), coop


def crowded_pair():
    # coop boxes 1 and 2 both land within tau of ego box 1
    ego = make_scene([make_box((0, 0, 0)), make_box((10, 0, 0))])
    coop = make_scene([make_box((0, 0, 0)), make_box((10.3, 0, 0)), make_box((9.6, 0.4, 0))])
    return ego, coop


def pair_at_tau():
    # the companion pair sits at distance 3.0 = tau under CENTER_ONLY
    ego = make_scene([make_box((0, 0, 0)), make_box((10, 0, 0), dims=(3, 1.5, 1.2))])
    coop = make_scene([make_box((0, 0, 0)), make_box((13.0, 0, 0), dims=(3, 1.5, 1.2))])
    return ego, coop


def mirrored_pair(offset, shift=0.0):
    # anchor (0, 0) pairs the companion box in either heading variant (ego
    # boxes on both sides): unflipped at distance 2 * offset, flipped at
    # 2 * |offset - shift|, so the means are offset and |offset - shift|
    ego = make_scene([make_box((0, 0, 0)), make_box((-10 - shift, 0, 0)), make_box((10, 0, 0))])
    coop = make_scene([make_box((0, 0, 0)), make_box((10 + offset, 0, 0))])
    return ego, coop


def needle_pair():
    needle = make_box((0, 0, 0), dims=(4.0, 1e-12, 1e-12))
    ego = make_scene([needle, make_box((10, 0, 0)), make_box((3, 9, 0), dims=(2, 2, 2))])
    coop = make_scene([make_box((10, 0, 0)), needle, make_box((3, 9, 0), dims=(2, 2, 2))])
    return ego, coop


def sweep_pair(cell):
    base = SynthConfig(n_boxes=15, visibility=1.0)
    return noisy_pair(base, SWEEP_GRID[cell], np.random.SeedSequence([7, cell]))[:2]


def test_sweep_cells_match_the_scalar_kernel():
    for cell in range(len(SWEEP_GRID)):
        assert_matches_reference(*sweep_pair(cell))


def test_dense_pair_with_private_boxes_matches_the_scalar_kernel():
    ego, coop = dense_pair()
    assert (len(ego), len(coop)) == (32, 32)
    assert_matches_reference(ego, coop)


def test_two_coop_boxes_near_one_ego_box_take_the_scalar_kernel():
    # the block pairs this cell with _greedy, which keeps only the nearer
    # coop box for ego box 1
    ego, coop = crowded_pair()
    assert build_affinity(ego, coop).entries[0, 0] == 2.0
    assert {(e, c) for e, c, _ in odist(ego, coop, 0, 0).valid_pairs} == {(0, 0), (1, 1)}
    assert_matches_reference(ego, coop)
    assert_matches_reference(coop, ego)  # two ego boxes near one coop box


def test_pair_at_exactly_tau_takes_the_scalar_kernel():
    ego, coop = pair_at_tau()
    assert build_affinity(ego, coop, CENTER_ONLY).entries[0, 0] == 2.0
    assert_matches_reference(ego, coop, CENTER_ONLY)


@pytest.mark.parametrize("offset", HALF_POINTS)
def test_mean_at_a_rounding_half_point_takes_the_scalar_kernel(offset):
    # both means sit on a half-point of the 1e-9 m rounding that decides the tie
    ego, coop = mirrored_pair(offset)
    assert build_affinity(ego, coop).entries[0, 0] == 2.0
    assert_matches_reference(ego, coop)


@pytest.mark.parametrize("offset, shift, flipped", NEAR_TIES)
def test_a_flipped_variant_wins_only_by_more_than_a_nanometer(offset, shift, flipped):
    ego, coop = mirrored_pair(offset, shift)
    affinity = build_affinity(ego, coop)
    assert affinity.entries[0, 0] == 2.0 and affinity.coop_flip[0, 0] == flipped
    assert_matches_reference(ego, coop)


def test_congruent_single_boxes_are_decided_in_the_batch():
    # both variants fit exactly, means 0: a tie that stays unflipped
    rng = np.random.default_rng(3)
    for _ in range(20):
        box = make_box(rng.uniform(-30, 30, 3), dims=rng.uniform(1, 6, 3), yaw=rng.uniform(0, 6.28))
        other = make_box(rng.uniform(-30, 30, 3), dims=box.dims, yaw=rng.uniform(0, 6.28))
        affinity = build_affinity(make_scene([box]), make_scene([other]))
        assert affinity.entries[0, 0] == 1.0 and not affinity.coop_flip[0, 0]


def test_needle_anchors_score_as_the_scalar_kernel_scores_them():
    # the level needle's anchor pairs every box, as a box's anchor would
    ego, coop = needle_pair()
    affinity = build_affinity(ego, coop)
    assert affinity.entries[0, 1] == 3.0 and not affinity.coop_flip[0, 1]
    assert_matches_reference(ego, coop)


@pytest.mark.parametrize(
    "ego, coop, params",
    [
        pytest.param(*dense_pair(), ODistParams(), id="dense"),
        pytest.param(*crowded_pair(), ODistParams(), id="crowded"),
        pytest.param(*reversed(crowded_pair()), ODistParams(), id="crowded-swapped"),
        pytest.param(*pair_at_tau(), CENTER_ONLY, id="at-tau"),
        *[
            pytest.param(*mirrored_pair(offset), ODistParams(), id=f"half-point-{offset:g}")
            for offset in HALF_POINTS
        ],
        *[
            pytest.param(*mirrored_pair(offset, shift), ODistParams(), id=f"near-tie-{shift:g}")
            for offset, shift, _ in NEAR_TIES
        ],
        pytest.param(*needle_pair(), ODistParams(), id="needle"),
    ],
)
def test_an_anchor_scores_the_same_in_its_own_block(ego, coop, params):
    # odist scores anchor (i, j) in a call of its own; build_affinity scores
    # it with every other anchor of the scene pair
    affinity = build_affinity(ego, coop, params)
    for (i, j), variants in transform_scores(ego, coop, params).items():
        score = odist(ego, coop, i, j, params)
        assert score.confidence == affinity.entries[i, j]
        assert score.coop_flipped == affinity.coop_flip[i, j]
        own = variants[int(score.coop_flipped)]  # the anchor's own transform
        assert [p[:2] for p in score.valid_pairs] == [p[:2] for p in own.valid_pairs]  # in order
        assert score.mean_distance == pytest.approx(own.mean_distance, abs=1e-12)
    with pytest.raises(IndexError):
        odist(ego, coop, len(ego), 0, params)
    with pytest.raises(IndexError):
        odist(ego, coop, 0, len(coop), params)


@pytest.mark.parametrize(
    "ego, coop",
    [pytest.param(*dense_pair(), id="dense"), pytest.param(*sweep_pair(7), id="sweep")],
)
def test_associate_scores_each_ego_index_in_one_block(monkeypatch, ego, coop):
    # one anchor pass scores every ego index once and fills the affinity;
    # the seeds' scores are read from it, not scored again, and the only
    # motions scored afterwards are refits, each about (t, 0) under the
    # coop headings as given and reversed, as alignment_score scores them
    passes, fits, motions = [], [], []
    anchor_pass, fit, score_motions = association._anchor_pass, association._fit, association._score_motions

    def pass_spy(ego_a, coop_a, *args):
        passes.append((len(ego_a.centers), len(coop_a.centers)))
        return anchor_pass(ego_a, coop_a, *args)

    def fit_spy(*args):
        fits.append(fit(*args))
        return fits[-1]

    def motions_spy(ego_a, coop_a, R, e_star, c_star, flipped, params):
        motions.append(len(flipped))
        R_fit, t_fit, _, _ = fits[-1]
        assert len(motions) <= len(fits), "a motion other than a refit was scored"
        assert np.array_equal(R, R_fit.repeat(2, axis=0)) and np.array_equal(e_star, t_fit.repeat(2, axis=0))
        assert not np.any(c_star) and list(flipped) == [False, True] * len(R_fit)
        return score_motions(ego_a, coop_a, R, e_star, c_star, flipped, params)

    monkeypatch.setattr(association, "_anchor_pass", pass_spy)
    monkeypatch.setattr(association, "_fit", fit_spy)
    monkeypatch.setattr(association, "_score_motions", motions_spy)
    assert len(associate(ego, coop)) > 1
    assert passes == [(len(ego), len(coop))]
    assert motions == [2 * len(R) for R, *_ in fits]
