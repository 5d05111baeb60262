"""Refinement starts from the best five nonzero anchors of the anchor
pass (association._REFINED, association._seeds), and the calibration's
health is read from it.

The seeds are the first five of a pure-Python stable sort by _rank of
every nonzero anchor's score, taken in (ego, coop) order, put back in
that order; _seeds sorts arrays by the same key, whose mean term is
np.rint(mean * 1e9) there and _rank_key's in Python. The tolerance against refining every nonzero anchor with the
same _refine: whenever that reference's winner is among the best five by
unrefined _rank, the calibration is identical to the reference, bit for
bit; the frames where it is not may calibrate differently. Noise-free
frames stay exact either way. On scenes kept whole the health is
alignment_score's, bit for bit, without scoring the transform again, a
one-pair winner's too, since refinement refits every seed's valid set; a
top_k that trims a scene scores it on the full scenes. The frames are the
first 120 trials of boxcalib sweep's default grid, 15 boxes, at seeds
501-503, drawn round robin over the cells as noise_sweep draws trial t of
cell c, plus dense frames and fixtures full of ties.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from boxcalib import (
    NoiseConfig,
    ODistParams,
    RigidTransform,
    SynthConfig,
    alignment_score,
    build_affinity,
    calibrate_scenes,
    grid_product,
    noisy_pair,
    odist,
    rre,
    rte,
    top_k_by_volume,
    transform_scene,
)
from boxcalib import association, pipeline
from boxcalib.association import _rank

from conftest import key_of, make_box, make_scene, refine
from test_anchor_prune import dense_frame
from test_batched_affinity import NEAR_TIES, mirrored_pair
from test_lockstep import REFINED, best_anchors, nonzero_anchors

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
    """The reference, every nonzero anchor refined: whether its winner is
    among the best five, and its matches, R and t bytes and rms."""
    arrays, frame, anchors, scores = nonzero_anchors(ego, coop, params)
    refined, fits, _ = refine(*arrays, frame, anchors, params)
    best = min(refined, key=_rank)
    key = key_of(best)
    R, t, rms, _ = fits[key]
    matches = [(i, j, best.confidence, best.coop_flipped) for i, j in key[0]]
    among = scores[refined.index(best)] in [scores[k] for k in best_anchors(scores)]
    return among, matches, R.tobytes(), t.tobytes(), float(rms)


def calibrated(ego, coop, params):
    """_associate's matches (with the flag), R and t bytes and rms."""
    arrays = ego._arrays, coop._arrays
    matches, transform, rms, *_ = association._associate(*arrays, params)
    shown = [(m.ego_index, m.coop_index, m.confidence, m.coop_yaw_flipped) for m in matches]
    return shown, transform.rotation.tobytes(), transform.translation.tobytes(), rms


def lattice_pair(side, yaw=0.3):
    # side x side identical boxes 6 m apart, seen by the coop agent under a
    # yaw motion: every one of the side^2 true anchors pairs every box at
    # a distance of rounding alone, so the best anchors tie by far more
    # than five, and shifted anchors tie in groups below them
    ego = make_scene([make_box((6.0 * x, 6.0 * y, 0.0)) for x in range(side) for y in range(side)])
    motion = RigidTransform.from_yaw(yaw, (4.0, -3.0, 0.2))
    return ego, transform_scene(motion, ego)


TIE_FIXTURES = {
    "lattice-3": lattice_pair(3),
    "lattice-4": lattice_pair(4),
    "lattice-4-reversed": lattice_pair(4, yaw=0.3 + np.pi),
    **{f"near-tie-{shift:g}": mirrored_pair(offset, shift) for offset, shift, _ in NEAR_TIES},
}


def stable_sort_seeds(ego, coop, params):
    """The reference seeds: odist's score of every nonzero anchor of
    build_affinity, in (ego, coop) order, sorted by _rank in Python's
    stable sort; the first REFINED, back in (ego, coop) order. Also whether
    there were more than REFINED, whether the REFINED-th ties the next one,
    and whether two seeds share a box, which an assignment would forbid."""
    entries = build_affinity(ego, coop, params).entries.tolist()
    anchors = [(i, j) for i, row in enumerate(entries) for j, a in enumerate(row) if a > 0]
    scores = [odist(ego, coop, i, j, params) for i, j in anchors]
    order = sorted(range(len(scores)), key=lambda k: _rank(scores[k]))
    best = sorted(order[:REFINED])
    ties = len(order) > REFINED and _rank(scores[order[REFINED - 1]]) == _rank(scores[order[REFINED]])
    rows, cols = zip(*[anchors[k] for k in best]) if best else ((), ())
    shared = len(set(rows)) < len(rows) or len(set(cols)) < len(cols)
    return [scores[k] for k in best], len(order) > REFINED, ties, shared


def refine_spy(monkeypatch):
    """The PairScores of the seeds each _refine call starts from."""
    seeds, refine_seeds = [], association._refine

    def spy(ego, coop, up, cells, flips, *args):
        seeds.append(association._scores(up, cells, flips))
        return refine_seeds(ego, coop, up, cells, flips, *args)

    monkeypatch.setattr(association, "_refine", spy)
    return seeds


def test_refine_receives_the_first_five_of_a_stable_sort_of_nonzero_anchors(monkeypatch):
    params = ODistParams()
    seeds = refine_spy(monkeypatch)
    frames = [frame[:2] for frame in FRAMES[501][:48]] + [dense_frame(k) for k in range(4)]
    more = tied = shared = 0
    for ego, coop in [*frames, *TIE_FIXTURES.values()]:
        want, *counts = stable_sort_seeds(ego, coop, params)
        seeds.clear()
        association.associate(ego, coop, params)
        assert seeds == [want]
        more, tied, shared = more + counts[0], tied + counts[1], shared + counts[2]
    assert more >= 50, "too few frames choose among more than five anchors"
    assert tied >= 10, "too few frames tie at the fifth seed"
    assert shared >= 10, "too few frames refine two anchors of one box"


def test_the_rank_keys_mean_term_is_np_rint_of_nanometres():
    # the Python key and the arrays' key must put every mean in one class:
    # means whose nanometre value is exactly k + 0.5 (near 0, 1 mm and 3 m,
    # the largest tau) round half to even, their neighbours one ulp away
    # round to the nearer integer
    halves = []
    for k in (*range(40), *range(10**6, 10**6 + 40), *range(3 * 10**9 - 40, 3 * 10**9)):
        mean = (k + 0.5) / 1e9
        halves += [m for m in (mean, *np.nextafter(mean, [0.0, 1.0]).tolist()) if m * 1e9 == k + 0.5][:1]
    assert len(halves) >= 90 and {round(m * 1e9) - math.floor(m * 1e9) for m in halves} == {0, 1}  # half to even
    means = [*halves, *np.nextafter(halves, 0.0).tolist(), *np.nextafter(halves, 1.0).tolist()]
    tiny = np.finfo(float).tiny
    means += [0.0, 5e-324, float(np.nextafter(tiny, 0.0)), tiny, 1e5, math.inf]
    want = np.rint(np.array(means) * 1e9).tolist()
    assert [association._rank_key(2.0, m) for m in means] == [(-2.0, n) for n in want]


def test_only_the_winner_and_its_health_get_pair_scores(monkeypatch):
    # the nonzero anchors are ranked on the pass's arrays and refined on
    # index arrays; PairScores (a tuple of every valid pair) are built only
    # for the winner's health, its refit's two cells
    params = ODistParams()
    received, scores = [], association._scores

    def scores_spy(up, cells, flipped):
        received.append((cells.tolist(), list(flipped)))
        return scores(up, cells, flipped)

    for ego, coop in (dense_frame(k) for k in range(2)):
        arrays, _, anchors, _ = nonzero_anchors(ego, coop, params)
        assert len(anchors) > REFINED
        monkeypatch.setattr(association, "_scores", scores_spy)
        received.clear()
        association._associate(*arrays, params)
        monkeypatch.undo()
        ((cells, flipped),) = received
        assert cells[0] % 2 == 0 and cells[1] == cells[0] + 1 and flipped == [False, True]



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


def health_spy(monkeypatch):
    """The scene pairs calibrate_scenes scores a transform on."""
    calls, score = [], pipeline.alignment_score

    def spy(ego, coop, *args):
        calls.append((ego, coop))
        return score(ego, coop, *args)

    monkeypatch.setattr(pipeline, "alignment_score", spy)
    return calls


def test_the_health_read_from_refinement_is_alignment_score_bit_for_bit(monkeypatch):
    calls = health_spy(monkeypatch)
    frames = [(*frame[:2], 15) for seed in SEEDS for frame in FRAMES[seed]]
    frames += [(*dense_frame(k), None) for k in range(4)]
    lone = make_scene([make_box((1.0, 2.0, 0.0), yaw=0.3)])
    for ego, coop, top_k in [*frames, (lone, lone, None)]:
        assert top_k_by_volume(ego, top_k) is ego and top_k_by_volume(coop, top_k) is coop
        calls.clear()
        report = calibrate_scenes(ego, coop, top_k=top_k)
        # refinement refits every seed's valid set, a one-pair winner's too
        assert calls == []
        want = alignment_score(ego, coop, report.transform)
        assert (report.health_confidence, report.health_mean_distance) == (want.confidence, want.mean_distance)
        assert np.float64(report.health_mean_distance).tobytes() == np.float64(want.mean_distance).tobytes()
    assert len(report.matches) == 1, "the lone pair's winner is one pair"


def test_a_top_k_that_trims_a_scene_scores_the_health_on_the_full_scenes(monkeypatch):
    calls = health_spy(monkeypatch)
    differs = 0
    frames = [(*frame[:2], 10) for frame in FRAMES[501][:36]]
    frames += [(*noisy_pair(SynthConfig(n_boxes=30, visibility=0.8), NoiseConfig(0.3, 3.0),
                            np.random.SeedSequence([29, k]))[:2], 15) for k in range(4)]
    for ego, coop, top_k in frames:
        tops = top_k_by_volume(ego, top_k), top_k_by_volume(coop, top_k)
        assert tops[0] is not ego or tops[1] is not coop
        calls.clear()
        report = calibrate_scenes(ego, coop, top_k=top_k)
        assert calls == [(ego, coop)]
        want = alignment_score(ego, coop, report.transform)
        assert (report.health_confidence, report.health_mean_distance) == (want.confidence, want.mean_distance)
        kept = association._associate(tops[0]._arrays, tops[1]._arrays, ODistParams())[3]
        differs += (kept.confidence, kept.mean_distance) != (want.confidence, want.mean_distance)
        # the rows cut from the full scenes calibrate as the top_k_by_volume scenes do
        whole = calibrate_scenes(*tops, top_k=None)
        assert report.matches == whole.matches
        assert np.float64(report.rms_residual).tobytes() == np.float64(whole.rms_residual).tobytes()
        assert report.transform.rotation.tobytes() == whole.transform.rotation.tobytes()
        assert report.transform.translation.tobytes() == whole.transform.translation.tobytes()
    assert differs >= 10, "the kept scenes' score would pass for the full scenes' too often"


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
