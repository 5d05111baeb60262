"""Refinement starts from the best five assigned anchors (association._REFINED).

The tolerance against refining every assigned anchor with the same
_refine: whenever that reference's winner is among the best five by
unrefined _rank, the calibration is identical to the reference, bit for
bit; the frames where it is not may calibrate differently. Noise-free
frames stay exact either way. The frames are the first 120 trials of
boxcalib sweep's default grid, 15 boxes, at seeds 501-503, drawn round
robin over the cells as noise_sweep draws trial t of cell c, plus dense
frames.
"""
from __future__ import annotations

import numpy as np
import pytest

from boxcalib import (
    NoiseConfig,
    ODistParams,
    SynthConfig,
    calibrate_scenes,
    grid_product,
    noisy_pair,
    rre,
    rte,
)
from boxcalib import association
from boxcalib.association import _key, _rank

from test_anchor_prune import dense_frame
from test_lockstep import REFINED, assigned_anchors, best_anchors

GRID = grid_product((0.0, 0.5, 1.0, 2.0), (0.0, 10.0, 25.0))  # boxcalib sweep's default grid
SEEDS = (501, 502, 503)


def sweep_frames(seed, count=120):
    """(ego, coop, truth, noise) of trials 0 .. count - 1, round robin over
    GRID; 15 boxes, so top_k_by_volume keeps every box."""
    for k in range(count):
        cell = k % len(GRID)
        stream = np.random.SeedSequence([seed, cell, k // len(GRID)])
        yield (*noisy_pair(SynthConfig(n_boxes=15), GRID[cell], stream), GRID[cell])


FRAMES = {seed: list(sweep_frames(seed)) for seed in SEEDS}


def refine_all(ego, coop, params):
    """The reference, every assigned anchor refined: whether its winner is
    among the best five, and its matches, R and t bytes and rms."""
    arrays, anchors = assigned_anchors(ego, coop, params)
    refined, fits, _ = association._refine(*arrays, anchors, params)
    best = min(refined, key=_rank)
    key = _key(best)
    R, t, rms = fits[key][0] if key in fits else [x[0] for x in association._fit(*arrays, [key])[:3]]
    matches = [(i, j, best.confidence, best.coop_flipped) for i, j in key[0]]
    among = anchors[refined.index(best)] in best_anchors(anchors)
    return among, matches, R.tobytes(), t.tobytes(), float(rms)


def calibrated(ego, coop, params):
    """_associate's matches (with the flag), R and t bytes and rms."""
    arrays = ego._arrays, coop._arrays
    matches, fit, *_ = association._associate(*arrays, params)
    shown = [(m.ego_index, m.coop_index, m.confidence, m.coop_yaw_flipped) for m in matches]
    R, t = fit.transform.rotation, fit.transform.translation
    return shown, R.tobytes(), t.tobytes(), fit.rms_residual


def test_refine_receives_the_best_five_assigned_anchors_in_ego_order(monkeypatch):
    params = ODistParams()
    seeds, refine = [], association._refine

    def refine_spy(ego, coop, anchors, *args):
        seeds.append(list(anchors))
        return refine(ego, coop, anchors, *args)

    monkeypatch.setattr(association, "_refine", refine_spy)
    frames = [frame[:2] for frame in FRAMES[501][:48]] + [dense_frame(k) for k in range(4)]
    more = 0
    for ego, coop in frames:
        arrays, anchors = assigned_anchors(ego, coop, params)
        seeds.clear()
        association._associate(*arrays, params)
        assert len(seeds) == 1 and len(seeds[0]) == min(len(anchors), REFINED)
        assert seeds[0] == best_anchors(anchors)  # the assigned anchors come in ascending ego index
        assert sorted(map(_rank, seeds[0])) == sorted(map(_rank, anchors))[:REFINED]
        more += len(anchors) > REFINED
    assert more >= 20, "too few frames choose among more than five anchors"


def test_only_the_refined_anchors_get_a_pair_score(monkeypatch):
    # the assigned anchors are ranked on the pass's arrays; a PairScore
    # (a tuple of every valid pair) is built only for the ones refined
    params = ODistParams()
    received, pair_scores = [], association._pair_scores

    def pair_scores_spy(frame, anchors):
        received.append(len(anchors))
        return pair_scores(frame, anchors)

    for ego, coop in (dense_frame(k) for k in range(2)):
        arrays, anchors = assigned_anchors(ego, coop, params)
        assert len(anchors) > REFINED
        monkeypatch.setattr(association, "_pair_scores", pair_scores_spy)
        received.clear()
        association._associate(*arrays, params)
        monkeypatch.undo()
        assert received == [REFINED]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_winner_among_the_best_five_calibrates_as_refining_them_all(seed):
    params = ODistParams()
    compared = 0
    for ego, coop, _, _ in FRAMES[seed]:
        among, *want = refine_all(ego, coop, params)
        if among:
            compared += 1
            assert list(calibrated(ego, coop, params)) == want
    assert compared >= 100, f"only {compared} of 120 reference winners are among the best five"


@pytest.mark.parametrize("seed", SEEDS)
def test_noise_free_frames_stay_exact(seed):
    exact = [frame[:3] for frame in FRAMES[seed] if frame[3].sigma_pos == frame[3].yaw_std_deg == 0.0]
    assert len(exact) == 10
    # and dense noise-free frames, every box kept: 40 objects, the coop agent sees 32
    dense = SynthConfig(n_boxes=40, visibility=0.8)
    exact += [noisy_pair(dense, NoiseConfig(), np.random.SeedSequence([seed, k])) for k in range(4)]
    for ego, coop, truth in exact:
        report = calibrate_scenes(ego, coop, top_k=None)
        assert rte(truth.translation, report.transform.translation) <= 1e-9
        assert rre(truth.rotation, report.transform.rotation) <= 1e-9
