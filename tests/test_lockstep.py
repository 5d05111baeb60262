"""Lockstep refinement (association._refine) against sequential refinement.

The reference below is the refinement association ran before its rounds
were batched: each assigned anchor in turn refits its valid set with one
yaw-only closed-form fit and scores the refit with one dense transform
score, until the refit no longer ranks better, sharing one cache of fits
by valid set; a refit of a set that fixes no yaw is never taken, and
the best refined anchor wins unless its own set fixes no yaw, when the
frame raises DegenerateGeometry. Both refine only the best five
nonzero anchors of the affinity matrix, which the test picks itself: a
stable sort by unrefined _rank of every nonzero anchor in (ego, coop)
order, so ties keep that order, the first five, put back in that order.
Every anchor must end at the same valid set with the same confidence and
flip flag, the same valid sets must be fitted, the winner's matches must
be identical and its transform and rms must agree within TOL; a frame
raises in one exactly when it raises in the other.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from boxcalib import (
    DegenerateGeometry,
    NoCoVisibleObjects,
    NoiseConfig,
    ODistParams,
    RigidTransform,
    SynthConfig,
    noisy_pair,
    transform_box,
    with_flipped_yaw,
)
from boxcalib import association
from boxcalib.association import _key, _pair_up, _rank
from boxcalib.geometry import RANK_RATIO_MIN, rot_z

from conftest import axes_reference, make_box, make_scene
from test_anchor_prune import dense_frame
from test_degenerate_seeds import needle_frame
from test_fit import noisy_frames

TOL = 1e-12
REFINED = 5  # the anchors refinement starts from


def sequential_fit(ego, coop, pairs, flipped):
    """The yaw-only closed-form fit of one valid set: (R, t, rms), or None
    if the set fixes no yaw. The yaw is atan2(b, a) of the corner
    cross-covariance H's a = H00 + H11 and b = H10 - H01, and a set fixes
    no yaw when (a, b) is not finite or no longer than RANK_RATIO_MIN times
    its Cauchy-Schwarz bound."""
    rows, cols = np.array(pairs).T
    axes_e, axes_c = axes_reference(ego)[rows], axes_reference(coop)[cols + len(coop.yaws) * flipped]
    e, c = ego.centers[rows], coop.centers[cols]
    e_bar, c_bar = e.mean(axis=0), c.mean(axis=0)
    H = 8.0 * (e - e_bar).T @ (c - c_bar) + 2.0 * np.einsum("kij,klj->il", axes_e, axes_c)
    a, b = H[0, 0] + H[1, 1], H[1, 0] - H[0, 1]
    bound = 8.0 * np.linalg.norm(e - e_bar, axis=1) @ np.linalg.norm(c - c_bar, axis=1)
    bound += 2.0 * np.linalg.norm(axes_e, axis=(1, 2)) @ np.linalg.norm(axes_c, axis=(1, 2))
    if not (math.isfinite(a) and math.isfinite(b)) or math.hypot(a, b) <= RANK_RATIO_MIN * bound:
        return None
    R = rot_z(math.atan2(b, a))
    t = e_bar - R @ c_bar
    r, da = c @ R.T + t - e, R @ axes_c - axes_e
    return R, t, math.sqrt((8.0 * np.sum(r * r) + 2.0 * np.sum(da * da)) / (8 * len(rows)))


def sequential_score(ego, coop, R, t, flipped, params):
    """The dense one-cell score of the coop scene moved by (R, t)."""
    m = len(coop.yaws)
    axes = R @ axes_reference(coop)[m * flipped : m * flipped + m]
    dc = ego.centers[:, None, :] - (coop.centers @ R.T + t)[None, :, :]
    da = axes_reference(ego)[: len(ego.yaws), None] - axes[None, :]
    c2, da2 = np.einsum("ijk,ijk->ij", dc, dc), np.einsum("ijkl,ijkl->ij", da, da)
    p, q = np.divmod(np.arange(c2.size), c2.shape[1])
    up = _pair_up(np.zeros(c2.size, np.intp), p, q, c2.ravel(), da2.ravel(), 1, c2.shape, params)
    return association._scores(up, np.zeros(1, np.intp), [flipped])[0]


def sequential_refine(ego, coop, score, params, refits):
    while True:
        key = _key(score)
        if key not in refits:
            fit = sequential_fit(ego, coop, *key)
            refits[key] = fit, fit and sequential_score(ego, coop, *fit[:2], key[1], params)
        refined = refits[key][1]
        if refined is None or _rank(refined) >= _rank(score):
            return score
        score = refined


def nonzero_anchors(ego, coop, params):
    """The scenes' arrays and the pass scores of every anchor of nonzero
    confidence, in (ego, coop) order."""
    arrays = ego._arrays, coop._arrays
    frame = association._anchor_pass(*arrays, params)
    nonzero = [(i, j) for i, row in enumerate(frame[0].max(axis=1).tolist()) for j, a in enumerate(row) if a > 0]
    if not nonzero:
        raise NoCoVisibleObjects("no anchor")
    return arrays, association._pair_scores(frame, nonzero)


def best_anchors(anchors):
    """The REFINED best anchors by _rank (a stable sort), in their given order."""
    best = sorted(range(len(anchors)), key=lambda k: _rank(anchors[k]))[:REFINED]
    return [anchors[k] for k in sorted(best)]


def sequential_associate(ego, coop, params):
    """(refined scores, fitted keys, matches, (R, t, rms)) as the sequential
    refinement gives them."""
    arrays, anchors = nonzero_anchors(ego, coop, params)
    anchors = best_anchors(anchors)
    refits = {}
    refined = [sequential_refine(*arrays, score, params, refits) for score in anchors]
    best = min(refined, key=_rank)
    key = _key(best)
    fit = refits[key][0]
    if fit is None:
        raise DegenerateGeometry("the winner's valid set fixes no yaw")
    matches = [(i, j, best.confidence, best.coop_flipped) for i, j in key[0]]
    return refined, set(refits), matches, fit


def lockstep_associate(ego, coop, params):
    arrays, anchors = nonzero_anchors(ego, coop, params)
    refined, fits, _ = association._refine(*arrays, best_anchors(anchors), params)
    matches, transform, rms, *_ = association._associate(*arrays, params)
    shown = [(m.ego_index, m.coop_index, m.confidence, m.coop_yaw_flipped) for m in matches]
    return refined, set(fits), shown, (transform.rotation, transform.translation, rms)


def outcome(associate, ego, coop, params):
    try:
        return associate(ego, coop, params)
    except (NoCoVisibleObjects, DegenerateGeometry) as e:
        return type(e)


def reversed_heading_frame():
    # every coop heading reversed, on a noisy 15-box pair with private boxes
    base = SynthConfig(visibility=0.8)
    ego, coop, _ = noisy_pair(base, NoiseConfig(0.3, 3.0), np.random.SeedSequence([29, 1]))
    return ego, make_scene([with_flipped_yaw(b) for b in coop])


def fixed_point_frame():
    # test_association.test_refinement_runs_to_its_fixed_point's pair: the
    # winning anchor keeps improving for more than two refits
    seed = np.random.SeedSequence([501, 3, 0])
    return noisy_pair(SynthConfig(), NoiseConfig(0.5, 0.0), seed)[:2]


def overflow_frame(near=0):
    # boxes 1e154 m out, the same in both views, whose fits overflow the
    # cross-covariance; with near > 0 a group of ordinary boxes, turned by
    # 0.4 rad in the coop view, rides along: their valid sets fit, and they
    # are fitted in the same round as the sets that overflow
    far = [make_box((0, 0, 0)), make_box((1e154, 0, 0), yaw=0.3), make_box((0, 1e154, 0), yaw=1.1)]
    rng = np.random.default_rng(near)
    ordinary = [make_box(rng.uniform(-30, 30, 3), yaw=rng.uniform(0, 6)) for _ in range(near)]
    motion = RigidTransform.from_yaw(0.4, (3.0, -2.0, 0.1))
    turned = [transform_box(motion, make_box(b.center + 0.05, dims=b.dims, yaw=b.yaw)) for b in ordinary]
    return make_scene([*ordinary, *far]), make_scene([*far, *turned])


FRAMES = {
    **{f"noisy-{k}": frame for k, frame in enumerate(noisy_frames())},
    "reversed-headings": reversed_heading_frame(),
    "dense-32x32": dense_frame(0),
    "fixed-point": fixed_point_frame(),
    "overflow": overflow_frame(),
    # four ordinary boxes: an overflowing set ranks among the best five anchors
    "overflow-with-others": overflow_frame(near=4),
    # a losing seed's valid set, two needles stacked at one xy, fixes no yaw
    "stacked-needles": needle_frame(2),
}


@pytest.mark.parametrize("frame", FRAMES.keys())
def test_lockstep_refinement_equals_the_sequential_one(frame):
    ego, coop = FRAMES[frame]
    params = ODistParams()
    with np.errstate(over="ignore", invalid="ignore"):
        want = outcome(sequential_associate, ego, coop, params)
        got = outcome(lockstep_associate, ego, coop, params)
    if isinstance(want, type) or isinstance(got, type):
        assert got == want, "raised in one refinement only"
        return
    (want_scores, want_keys, want_matches, want_fit) = want
    (got_scores, got_keys, got_matches, got_fit) = got
    assert got_keys == want_keys, "a different set of valid sets was fitted"
    for w, g in zip(want_scores, got_scores, strict=True):
        assert _key(g) == _key(w) and g.confidence == w.confidence
        assert abs(g.mean_distance - w.mean_distance) <= TOL
        assert np.max(np.abs(np.array(g.valid_pairs) - np.array(w.valid_pairs)), initial=0.0) <= TOL
    assert got_matches == want_matches
    for g, w in zip(got_fit, want_fit):
        assert np.max(np.abs(np.asarray(g) - np.asarray(w))) <= TOL


def test_the_frames_cover_raising_and_flipped_refinements():
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = {name: outcome(sequential_associate, *frame, ODistParams()) for name, frame in FRAMES.items()}
    raised = {name for name, o in outcomes.items() if o is DegenerateGeometry}
    assert raised == {"overflow", "overflow-with-others"}
    assert outcomes["reversed-headings"][2][0][3], "the reversed frame wins flipped"
    assert len(outcomes["dense-32x32"][1]) > 1, "the dense frame refits more than one set"


def test_a_set_fits_the_same_alone_and_in_a_round():
    # a fit depends only on its valid set, not on the sets fitted with it
    ego, coop = dense_frame(0)
    arrays, anchors = nonzero_anchors(ego, coop, ODistParams())
    keys = list(dict.fromkeys(_key(s) for s in anchors if len(s.valid_pairs) >= 2))
    assert len(keys) > 1
    together = association._fit(*arrays, keys)
    for k, key in enumerate(keys):
        alone = association._fit(*arrays, [key])
        for a, b in zip(alone, together):
            assert np.array_equal(a[0], b[k]), f"valid set {k}"
