"""The frame pass's grid of candidates against the dense candidate search.

The reference builds the frame's tables itself (Tables) and takes the
anchor block of one ego index without the grid: it tests every (variant,
anchor, ego p, coop q) cell's squared center difference against the reach
and goes on from np.nonzero of that array. Every row of the frame pass
(_anchor_pass), which takes its candidates from a grid of the offsets in
the boxes' heading frames, must return the same (conf, mean, flip, (cell,
p, q, d)), bit for bit and with the same dtypes, on generated frames, on
frames near the coordinate bound (where the rounding allowance matters),
on boxes stacked at one xy, on small frames laid on the grid's cell edges
(hypothesis), at the edges of the scoring parameters and on one-box
scenes. The reference takes the axes term from the module's own (_da2)
on the packed axes table (_SceneArrays.packed), with the reversed
heading's rotation (xy rows negated) and reversed coop axes (the table's
columns m + q) where the pass uses rot_z(phi) and the given axes; its
center differences and everything after them are its own.
odist, which scores an anchor's motions with the transform kernel and
runs no pass, must give every anchor, a needle's too, the score the frame
pass gives it. All of it holds however the pass splits its rows
into chunks: at the default candidate budget, at a budget that makes
every row its own chunk and at one that splits each dense frame into at
least three, counted by the reference's own grid (window_cells).
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcalib import (
    NoiseConfig,
    ODistParams,
    RigidTransform,
    SynthConfig,
    noisy_pair,
    odist,
    transform_scene,
)
from boxcalib import association
from boxcalib.association import TAU_MAX, _greedy
from boxcalib.geometry import rot_z
from boxcalib.io import MAX_COORDINATE_M

from conftest import make_box, make_scene, rot_z_reference

PARAMS = {
    "default": ODistParams(),
    "tau-max": ODistParams(tau=TAU_MAX, alpha=0.5, beta=0.5),
    "small-tau": ODistParams(tau=0.2),
    "alpha-0": ODistParams(alpha=0.0),
    "beta-0": ODistParams(beta=0.0),
}


def heading_frame(arrays):
    """[b, q, xy]: the xy offsets of every box q from box b, in b's heading
    frame, rot_z(-yaw_b) (x_q - x_b), by geometry.rot_z."""
    offsets = arrays.centers[None, :, :] - arrays.centers[:, None, :]
    turns = np.array([rot_z(yaw)[:2, :2].T for yaw in arrays.yaws]).reshape(-1, 2, 2)
    return np.einsum("bxy,bqy->bqx", turns, offsets[..., :2])


class Tables:
    """The frame's tables, built here as the reference: both scenes' arrays,
    cos and sin of the heading differences yaw_e - yaw_c, the coop offsets
    c_q - c_j, the offsets of both scenes in their boxes' heading frames
    (heading_frame) and the grid windows' rounding allowance."""

    def __init__(self, ego, coop):
        self.ego, self.coop = ego._arrays, coop._arrays
        phi = self.ego.yaws[:, None] - self.coop.yaws[None, :]
        self.cos, self.sin = np.cos(phi), np.sin(phi)
        self.offsets = self.coop.centers[None, :, :] - self.coop.centers[:, None, :]
        self.ego_frame, self.coop_frame = heading_frame(self.ego), heading_frame(self.coop)
        centers = np.concatenate([self.ego.centers, self.coop.centers])
        self.allowance = 1e-6 * (1.0 + np.max(np.abs(centers), initial=0.0))


def dense_block(pair, i, params):
    """The anchor block of pair (Tables) with the full candidate grid, no
    radius prune."""
    n, m = pair.cos.shape
    sign = np.array([1.0, -1.0])[:, None, None, None]
    cells = len(sign) * m
    u = pair.ego.centers - pair.ego.centers[i]
    v = pair.offsets
    cos, sin = pair.cos[i][:, None], pair.sin[i][:, None]
    # dc2 axes: [variant, anchor, ego p, coop q]
    rx = (cos * v[..., 0] - sin * v[..., 1])[:, None, :]
    ry = (sin * v[..., 0] + cos * v[..., 1])[:, None, :]
    dc2 = (
        np.square(u[None, :, None, 0] - sign * rx)
        + np.square(u[None, :, None, 1] - sign * ry)
        + np.square(u[None, :, None, 2] - v[:, None, :, 2])
    )
    reach = params.tau / (params.alpha + params.beta * math.sqrt(8.0))
    f, a, p, q = np.nonzero(dc2 <= reach * reach * (1.0 + 1e-9))
    c2 = dc2[f, a, p, q]
    # anchor (i, a)'s rotation about z, xy rows negated in the flipped variant
    flat = sign.ravel()[f]
    cos, sin = flat * pair.cos[i, a], flat * pair.sin[i, a]
    axes_e, axes_c = pair.ego.packed[:, p], pair.coop.packed[:, q + m * f]
    da2 = association._da2(axes_e, np.array([[cos, -sin], [sin, cos]]), axes_c)
    d = params.alpha * np.sqrt(c2) + params.beta * np.sqrt(8.0 * c2 + 2.0 * da2)
    inside = d <= params.tau
    cell, p, q, d = (f * m + a)[inside], p[inside], q[inside], d[inside]

    rows = np.bincount(cell * n + p, minlength=cells * n).reshape(cells, n)
    cols = np.bincount(cell * m + q, minlength=cells * m).reshape(cells, m)
    crowded = (rows.max(axis=1, initial=0) > 1) | (cols.max(axis=1, initial=0) > 1)
    keep = np.ones(len(d), dtype=bool)
    for c in np.flatnonzero(crowded):
        lo, hi = np.searchsorted(cell, [c, c + 1])
        keep[lo:hi] = False
        keep[lo + _greedy(p[lo:hi], q[lo:hi], d[lo:hi])] = True
    cell, p, q, d = cell[keep], p[keep], q[keep], d[keep]

    conf = np.bincount(cell, minlength=cells).reshape(len(sign), m)
    total = np.bincount(cell, weights=d, minlength=cells).reshape(len(sign), m)
    mean = np.divide(total, conf, out=np.full(total.shape, math.inf), where=conf > 0)
    flip = conf[-1] > conf[0]
    for b in np.flatnonzero((conf[-1] == conf[0]) & (mean[-1] < mean[0])):
        flip[b] = round(float(mean[-1, b]) * 1e9) < round(float(mean[0, b]) * 1e9)  # nanometres, half to even
    return conf, mean, flip, (cell, p, q, d)


def assert_same_blocks(ego, coop, params, with_odist=True):
    """Every row of the frame pass equals the dense block of its ego index,
    and with_odist, odist gives every anchor the score the frame pass gives
    it."""
    pair = Tables(ego, coop)
    n, m = pair.cos.shape
    frame = association._anchor_pass(pair.ego, pair.coop, params)
    conf, mean, flip, (cell, p, q, d) = frame
    width = conf.shape[1] * m  # cells per row
    for i in range(n):
        lo, hi = np.searchsorted(cell, [i * width, (i + 1) * width])
        got = [conf[i], mean[i], flip[i], cell[lo:hi] - i * width, p[lo:hi], q[lo:hi], d[lo:hi]]
        *want, want_kept = dense_block(pair, i, params)
        for g, w in zip(got, [*want, *want_kept]):
            assert g.dtype == w.dtype and np.array_equal(g, w), f"ego index {i}"
        if with_odist:
            scores = association._pair_scores(frame, [(i, j) for j in range(m)])
            for j, score in enumerate(scores):
                assert odist(ego, coop, i, j, params) == score, f"anchor ({i}, {j})"


def dense_frame(seed, sigma=0.3, yaw_deg=3.0):
    # 40 objects, the coop agent sees 32, 8 ego boxes dropped: 32 x 32 with
    # private boxes on both sides
    base = SynthConfig(n_boxes=40, visibility=0.8)
    ego, coop, _ = noisy_pair(base, NoiseConfig(sigma, yaw_deg), np.random.SeedSequence([81, seed]))
    dropped = set(np.random.default_rng([82, seed]).choice(len(ego), 8, replace=False).tolist())
    return make_scene([b for k, b in enumerate(ego) if k not in dropped]), coop


def far_frame(seed):
    # the same frame moved next to the coordinate bound, where the rounding
    # of centers and radii is largest
    ego, coop = dense_frame(seed)
    shift = np.array([MAX_COORDINATE_M - 100.0, 100.0 - MAX_COORDINATE_M, 0.0])
    motion = RigidTransform.from_yaw(0.7, shift)
    ego, coop = transform_scene(motion, ego), transform_scene(motion, coop)
    largest = max(np.max(np.abs(b.center)) for b in (*ego, *coop))
    assert 0.999 * MAX_COORDINATE_M < largest <= MAX_COORDINATE_M
    return ego, coop


def stacked_pair():
    # four boxes at one xy, differing only in z, in both views: every radius
    # among them is 0, so the prune keeps their cells and the z term decides
    stack = [make_box((5.0, -3.0, z), dims=(4.0, 2.0, 1.5 + 0.1 * z), yaw=0.4) for z in (0, 1, 2.5, 4)]
    others = [make_box((-12.0, 7.0, 0.0), yaw=1.0), make_box((18.0, 2.0, 0.3), dims=(5, 2, 2))]
    ego = make_scene(stack + others)
    motion = RigidTransform.from_yaw(2.1, np.array([3.0, -8.0, 0.5]))
    coop = transform_scene(motion, make_scene(stack[::-1] + others[:1]))
    return ego, coop


def rim_pair(tau, k=12, seed=0):
    # k companions 30-50 km from the anchor box in both views, each coop one
    # farther by tau along the direction the anchor's motion maps it to: the
    # companion pairs lie tau apart, on the rim of the exact test
    rng = np.random.default_rng(seed)
    yaw_e, yaw_c = rng.uniform(0.0, 2.0 * np.pi, 2)
    phi, r = rng.uniform(0.0, 2.0 * np.pi, k), rng.uniform(3e4, 5e4, k)
    psi = phi - (yaw_e - yaw_c)
    e = np.stack([r * np.cos(phi), r * np.sin(phi), np.zeros(k)], axis=1)
    c = np.stack([(r + tau) * np.cos(psi), (r + tau) * np.sin(psi), np.zeros(k)], axis=1)
    ego = make_scene([make_box(x, yaw=yaw_e) for x in [np.zeros(3), *e]])
    coop = make_scene([make_box(x, yaw=yaw_c) for x in [np.zeros(3), *c]])
    return ego, coop


def edge_pair(tau, k=12, seed=0):
    # each view's boxes on one line along their common heading, k companions
    # 30-50 km from the anchor box: ego ones on the edges of the grid cells
    # of a pass without the allowance (cells of tau (1 + 1e-9) in the heading
    # frame's x), each coop one tau nearer, so the anchor's companion pairs
    # lie tau apart across an edge, where rounding can put them two cells apart
    rng = np.random.default_rng(seed)
    yaw_e, yaw_c = rng.uniform(0.0, 2.0 * np.pi, 2)
    cell = tau * (1.0 + 1e-9)
    x = rng.integers(int(3e4 / cell), int(5e4 / cell), k) * cell

    def line(yaw, along):
        return make_scene([make_box((t * math.cos(yaw), t * math.sin(yaw), 0.0), yaw=yaw) for t in along])

    return line(yaw_e, [0.0, *x]), line(yaw_c, [0.0, *(x - tau)])


SCENES = {
    **{f"dense-{s}": dense_frame(s) for s in range(3)},
    "dense-sigma-0.5": dense_frame(3, sigma=0.5, yaw_deg=2.0),
    **{f"far-{s}": far_frame(s) for s in range(2)},
    "stacked": stacked_pair(),
}


@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
@pytest.mark.parametrize("scene", SCENES.keys())
def test_pruned_blocks_equal_the_dense_search(scene, params):
    assert_same_blocks(*SCENES[scene], params)


@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
def test_one_box_scenes_keep_the_dense_search(params):
    ego, coop = dense_frame(4)
    assert_same_blocks(make_scene(ego[:1]), make_scene(coop[:1]), params)  # 1 x 1
    assert_same_blocks(make_scene(ego[:1]), coop, params)  # 1 x m
    assert_same_blocks(ego, make_scene(coop[:1]), params)  # n x 1


# candidate budgets of _anchor_pass's chunks besides the module's own: one
# that puts every row in a chunk of its own, over budget, and one that
# splits every dense frame into several chunks
BUDGETS = {"row": 1, "middle": 1 << 10}


def grid_cells(pair, params):
    """The cells, on the grid of the pass's window size, of the ego offsets
    [i, p] and of the coop offsets [j, q] under each heading variant [s, j,
    q], both (..., xy), from the reference's heading frames."""
    reach = params.tau / (params.alpha + params.beta * math.sqrt(8.0))
    size = reach * (1.0 + 1e-9) + pair.allowance
    signs = np.array([1.0, -1.0])[:, None, None, None]
    return np.floor(pair.ego_frame / size), np.floor(signs * pair.coop_frame / size)


def window_cells(pair, params):
    """The (p, variant, j, q) window cells of each ego index i: the ego
    offset's and the variant's coop offset's cells are next to each other
    (or the same) along both axes."""
    ego, coop = grid_cells(pair, params)
    near = np.all(np.abs(ego[:, :, None, None, None] - coop[None, None]) <= 1.0, axis=-1)
    return np.count_nonzero(near, axis=(1, 2, 3, 4))


@pytest.mark.parametrize("scene", [s for s in SCENES if s.startswith("dense-")])
def test_the_middle_budget_splits_dense_frames_into_three_chunks(scene):
    # a chunk holds less than the budget plus one row's cells
    cells = window_cells(Tables(*SCENES[scene]), PARAMS["default"])
    assert cells.sum() >= 3 * (BUDGETS["middle"] + cells.max())


@pytest.mark.parametrize("budget", BUDGETS.values(), ids=BUDGETS.keys())
@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
@pytest.mark.parametrize("scene", SCENES.keys())
def test_chunked_passes_equal_the_dense_search(scene, params, budget, monkeypatch):
    # odist runs no pass, so the chunks cannot change what it gives
    monkeypatch.setattr(association, "_CANDIDATE_BUDGET", budget)
    assert_same_blocks(*SCENES[scene], params, with_odist=False)


@pytest.mark.parametrize("budget", BUDGETS.values(), ids=BUDGETS.keys())
@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
def test_chunked_one_box_scenes_keep_the_dense_search(params, budget, monkeypatch):
    monkeypatch.setattr(association, "_CANDIDATE_BUDGET", budget)
    test_one_box_scenes_keep_the_dense_search(params)


def test_pairs_on_the_rim_need_the_allowance(monkeypatch):
    params = ODistParams(tau=5e-5, alpha=1.0, beta=0.0)  # reach = tau
    pairs = {seed: edge_pair(params.tau, seed=seed) for seed in (0, 1)}
    for ego, coop in pairs.values():
        pair = Tables(ego, coop)
        cell, p, q, _ = dense_block(pair, 0, params)[3]
        # the exact test keeps some of anchor (0, 0)'s companion pairs, 30-50 km out
        assert np.any((cell == 0) & (p == q) & (p > 0))
        monkeypatch.setattr(pair, "allowance", 0.0)
        ego_cells, _ = grid_cells(pair, params)
        # without the allowance the ego companions lie on cell edges along x,
        # and all offsets in one row of cells along y, so the keys stay exact
        x = pair.ego_frame[0, 1:, 0] / (params.tau * (1.0 + 1e-9))
        assert np.allclose(x, np.round(x), rtol=0.0, atol=1e-6)
        assert np.ptp(ego_cells[..., 1]) <= 1.0 and np.all(np.abs(pair.coop_frame[..., 1]) < 1e-9)
        assert_same_blocks(ego, coop, params)
    monkeypatch.setattr(association, "_ALLOWANCE", 0.0)
    lost = []  # (seed, ego index) whose rows lose pairs without the allowance
    for seed, (ego, coop) in pairs.items():
        pair = Tables(ego, coop)
        conf, _, _, (cell, _, _, _) = association._anchor_pass(pair.ego, pair.coop, params)
        width = conf.shape[1] * len(coop)
        for i in range(len(ego)):
            if np.count_nonzero(cell // width == i) < len(dense_block(pair, i, params)[3][0]):
                lost.append((seed, i))
    # rounding puts companion pairs that the exact test keeps two cells
    # apart, outside the windows of a pass without the allowance
    assert lost, "the rim pairs never leave a window"


ANGLE = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


@st.composite
def grid_frames(draw):
    """(ego, coop, params) of a small frame laid on the pass's grid. A coop
    box at -bound along x sets the largest coordinate, so the cell size,
    reach (1 + 1e-9) + 1e-6 (1 + bound), is known; the ego boxes share one
    heading and sit whole cells apart along its axes, and the coop boxes are
    ego boxes turned about z, some reversed, each pushed up to twice the
    reach along its heading, so offsets in the heading frames fall on cell
    edges and pairs on the rim of tau."""
    params = ODistParams(
        tau=draw(st.floats(1e-6, TAU_MAX)),
        **draw(st.sampled_from([{}, {"alpha": 0.0}, {"beta": 0.0}])),
    )
    bound = draw(st.sampled_from([50.0, 1e3, MAX_COORDINATE_M]))
    reach = params.tau / (params.alpha + params.beta * math.sqrt(8.0))
    cell = reach * (1.0 + 1e-9) + 1e-6 * (1.0 + bound)
    yaw, turn = draw(ANGLE), draw(ANGLE)
    steps = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5))
    ego_at = [np.array([0.5, -0.5, 0.0]) * bound + rot_z(yaw) @ (a * cell, b * cell, 0.0) for a, b in steps]
    ego = make_scene([make_box(x, yaw=yaw) for x in ego_at])
    coop = [make_box((-bound, 0.0, 0.0), yaw=draw(ANGLE))]
    for x in ego_at[: draw(st.integers(1, len(ego_at)))]:
        heading = yaw + turn + draw(st.sampled_from([0.0, math.pi]))
        push = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) * reach
        moved = np.array([-0.25, 0.25, 0.0]) * bound + rot_z(turn) @ (x - ego_at[0]) + rot_z(heading) @ (push, 0.0, 0.0)
        coop.append(make_box(moved, yaw=heading))
    return ego, make_scene(coop), params


@settings(max_examples=150, deadline=None)
@given(grid_frames())
def test_the_pass_equals_the_dense_search_on_grid_frames(frame):
    # the superset argument and the key bound, at the edges of the cells,
    # the coordinates and the scoring parameters
    assert_same_blocks(*frame)


def scaled_axes(boxes):
    """The packed axes (_SceneArrays.packed) of boxes [(dims, yaw), ...],
    under their headings as given and reversed."""
    arrays = make_scene([make_box((0.0, 0.0, 0.0), d, y) for d, y in boxes])._arrays
    return np.split(arrays.packed, 2, axis=-1)


BOX = st.tuples(st.tuples(*[st.floats(0.01, 50.0)] * 3), st.floats(-10.0, 10.0))  # (dims, yaw)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(BOX, BOX, st.floats(-10.0, 10.0)), min_size=1, max_size=8))
def test_a_reversed_heading_under_phi_plus_pi_takes_the_axes_term_of_the_given_one(pairs):
    # the pass scores both coop headings from rot_z(phi) and the given
    # axes: the reversed heading negates rot_z's xy rows and the coop
    # axes' xy columns, and every product (-r)(-a) is r a bit for bit
    ego, coop, phi = zip(*pairs)
    (axes_e, _), (given, reversed_axes) = scaled_axes(ego), scaled_axes(coop)
    cos, sin = np.cos(phi), np.sin(phi)
    given_heading = association._da2(axes_e, np.array([[cos, -sin], [sin, cos]]), given)
    reversed_heading = association._da2(axes_e, np.array([[-cos, sin], [-sin, -cos]]), reversed_axes)
    assert given_heading.tobytes() == reversed_heading.tobytes()


def anchor_motion_scores(pair, params, anchors):
    """The transform kernel's score of each anchor (i, j) of pair (Tables):
    its motions about (e_i, c_j), rot_z(phi) under the given coop heading
    and rot_z(phi + pi) under the reversed one, scored in one _score_motions
    call; the better by _rank, the given heading winning ties."""
    i, j = np.array(anchors, dtype=np.intp).reshape(-1, 2).T
    R = rot_z_reference(pair.cos[i, j], pair.sin[i, j]).transpose(2, 0, 1)
    # [anchor, variant]: rot_z(phi + pi) negates the xy rows
    R = np.stack([R, R * association._FLIP_AXES[:, None]], axis=1).reshape(-1, 3, 3)
    flipped = np.tile([False, True], len(i))
    e_star, c_star = np.repeat(pair.ego.centers[i], 2, axis=0), np.repeat(pair.coop.centers[j], 2, axis=0)
    scores = association._score_motions(pair.ego, pair.coop, R, e_star, c_star, flipped, params)
    return [min(scores[k : k + 2], key=association._rank) for k in range(0, len(scores), 2)]


def test_the_transform_kernel_scores_the_rim_anchors_as_the_pass_does(monkeypatch):
    # far from the origin, at the tau edge, the two kernels once rounded
    # differently, and refinement's first step ranks a refit from one
    # against its seed from the other: the seeds must be the transform
    # kernel's scores of the anchors' motions, of the five best nonzero
    # anchors (a stable sort by _rank) in (ego, coop) order
    params = ODistParams(tau=5e-4, alpha=1.0, beta=0.0)
    seeds, refine = [], association._refine

    def refine_spy(ego, coop, anchors, *args):
        seeds.append(list(anchors))
        return refine(ego, coop, anchors, *args)

    monkeypatch.setattr(association, "_refine", refine_spy)
    for seed in (0, 1):
        ego, coop = rim_pair(params.tau, seed=seed)
        pair = Tables(ego, coop)
        anchors = list(np.ndindex(pair.cos.shape))
        frame = association._anchor_pass(pair.ego, pair.coop, params)
        kernel = anchor_motion_scores(pair, params, anchors)
        assert kernel == association._pair_scores(frame, anchors)
        seeds.clear()
        matches = association.associate(ego, coop, params)
        assert len(matches) > 1 and len(seeds) == 1
        nonzero = [k for k, score in enumerate(kernel) if score.confidence > 0]  # anchors in (ego, coop) order
        best = sorted(nonzero, key=lambda k: association._rank(kernel[k]))[:5]
        assert len(nonzero) > 5 and seeds[0] == [kernel[k] for k in sorted(best)]


@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
def test_a_pass_over_an_empty_scene_is_empty(params):
    ego, coop = SCENES["dense-0"]
    for n, m in ((0, len(coop)), (len(ego), 0), (0, 0)):
        arrays = make_scene(ego[:n])._arrays, make_scene(coop[:m])._arrays
        conf, mean, flip, kept = association._anchor_pass(*arrays, params)
        assert conf.shape == mean.shape == (n, 2, m) and flip.shape == (n, m)
        assert conf.dtype == np.intp and mean.dtype == np.float64 and flip.dtype == bool
        assert [k.dtype for k in kept] == [np.intp, np.intp, np.intp, np.float64]
        assert all(len(k) == 0 for k in kept)
