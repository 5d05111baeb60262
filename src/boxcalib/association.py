"""Scene-level object association between two agents' detections.

No initial relative pose is assumed. Every (ego box, coop box) pair is
treated as a candidate anchor: the rigid motion mapping the coop box onto
the ego box is the closed-form Kabsch fit of their corners (a rotation by
the yaw difference, see registration.pair_hypothesis), the whole coop scene
is brought into the ego frame under that motion, and the quality of the
pair is scored by how well the rest of the scene lines up:

* confidence: how many box pairs fall within tau of each other under a
  greedy one-to-one pairing by ascending distance, and
* mean_distance: the mean pair distance over that valid set.

Anchor confidences fill an affinity matrix and a one-to-one assignment
with maximum total affinity picks the candidate anchors. No anchor is
judged on its unrefined mean distance: each assigned anchor is refined on
its valid set by corner fits to a fixed point, and the final matches are
the refined consensus (valid set) of the best assigned anchor, as in
LO-RANSAC: pairs the assignment picked only because they agree with
themselves never join it. A fit (_fit) is the unit-weight least-squares
fit of the pairs' corners, computed in closed form from the centers and
scaled axes; each distinct valid set is fit once, and the winner's fit
is the calibration's transform (_associate).

Two kernels generate candidate box pairs, as squared center and axes
differences, and one tail (_pair_up) scores them: the one distance
expression (_distance), the tau gate, the greedy one-to-one pairing
(_greedy) and the valid-set size and mean. So every PairScore lists its
valid pairs in (ego, coop) order. The anchor kernel (_anchor_block)
scores the anchors of one ego box with every coop box at once, from
closed forms in the heading differences, after dropping the pairs no
anchor motion can bring within reach: a rotation about z keeps xy
lengths, so a pair's center difference is at least the difference of
their xy distances to the anchor boxes. One block per ego index fills
its affinity row, and every anchor's PairScore (odist's, and the ones
refinement starts from) is read from it. The transform kernel (_terms,
_score) scores a given rigid motion: refits, alignment_score and the
health check. One rule ranks scores (_rank).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import DetectionBox, RigidTransform, Scene, rot_z
from .registration import DegenerateCorners, RegistrationResult, nearest_rotation, rank_deficient

# A reversed heading (yaw + pi) negates a box's length and width axes.
_FLIP_AXES = np.array([-1.0, -1.0, 1.0])

TAU_MAX = 3.0  # upper bound of the pairing gate, meters


class NoCoVisibleObjects(RuntimeError):
    """No box pair supports a consistent alignment of the two scenes."""


@dataclass(frozen=True)
class ODistParams:
    """Scoring parameters.

    tau gates the per-pair distance when forming the valid set. alpha and beta
    weight the center-distance and corner-distance terms of box_distance;
    the default beta = 1/sqrt(8) puts the 8-corner Frobenius norm on a
    per-corner scale. try_yaw_flip additionally evaluates every anchor
    under a reversed coop heading convention (yaw + pi) and keeps the
    better variant, which recovers detectors that disagree about the
    front of a box.
    """

    tau: float = 3.0
    alpha: float = 1.0
    beta: float = math.sqrt(0.125)
    try_yaw_flip: bool = True

    def __post_init__(self):
        if not (0.0 < self.tau <= TAU_MAX):
            raise ValueError(f"tau must be in (0, {TAU_MAX:g}], got {self.tau}")
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and nonnegative")
        if self.alpha + self.beta <= 0:
            raise ValueError("alpha and beta must not both be zero")


@dataclass(frozen=True)
class PairScore:
    """Scene-consistency score of one candidate anchor pair."""

    confidence: float  # size of the valid set (integer-valued)
    mean_distance: float  # mean pair distance over the valid set, inf if empty
    valid_pairs: tuple[tuple[int, int, float], ...]
    coop_flipped: bool = False


@dataclass(frozen=True)
class Match:
    ego_index: int
    coop_index: int
    confidence: float
    coop_yaw_flipped: bool = False


@dataclass(frozen=True)
class MatchSet:
    matches: tuple[Match, ...]

    def __post_init__(self):
        object.__setattr__(self, "matches", tuple(self.matches))
        rows = [m.ego_index for m in self.matches]
        cols = [m.coop_index for m in self.matches]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("matches must be one-to-one")
        if any(m.confidence <= 0 for m in self.matches):
            raise ValueError("match confidence must be positive")

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self):
        return iter(self.matches)


@dataclass(frozen=True)
class AffinityMatrix:
    """entries[i, j] is the anchor confidence of (ego i, coop j), zero
    where the anchor is degenerate or pairs nothing within tau. coop_flip
    marks anchors whose winning variant used the reversed coop heading."""

    entries: np.ndarray
    coop_flip: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2:
            raise ValueError("entries must be 2-D")
        if np.any(e < 0) or not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite and nonnegative")
        flip = self.coop_flip
        flip = np.zeros(e.shape, dtype=bool) if flip is None else np.array(flip, dtype=bool)
        if flip.shape != e.shape:
            raise ValueError("coop_flip shape mismatch")
        e.setflags(write=False)
        flip.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "coop_flip", flip)


def box_distance(a: DetectionBox, b: DetectionBox, params: ODistParams = ODistParams()) -> float:
    """alpha * |center difference| + beta * Frobenius norm of corner difference."""
    one_a, one_b = _SceneArrays(Scene((a,))), _SceneArrays(Scene((b,)))
    c2, da2 = _terms(one_a, one_b, np.eye(3), np.zeros(3), False)
    return float(_distance(c2, da2, params)[0, 0])


class _SceneArrays:
    """Stacked per-scene geometry reused across anchor evaluations: centers,
    dims, yaws and the scaled axes A = rot_z(yaw) @ diag(dims) of each box."""

    def __init__(self, scene: Scene):
        n = len(scene)
        self.centers = np.array([b.center for b in scene]).reshape(n, 3)
        self.dims = np.array([b.dims for b in scene]).reshape(n, 3)
        self.yaws = np.array([b.yaw for b in scene])
        self.axes = np.array([rot_z(b.yaw) * b.dims for b in scene]).reshape(n, 3, 3)


def _distance(c2: np.ndarray, da2: np.ndarray, params: ODistParams) -> np.ndarray:
    """box_distance from the squared center difference c2 and the squared
    difference da2 of the scaled axes. A box's corners are c + S diag(dims/2)
    rot_z(yaw)^T, and the 8x3 sign matrix S has zero column sums and S^T S
    = 8 I, so the corner term is exactly sqrt(8 c2 + 2 da2)."""
    return params.alpha * np.sqrt(c2) + params.beta * np.sqrt(8.0 * c2 + 2.0 * da2)


def _terms(ego: _SceneArrays, coop: _SceneArrays, R: np.ndarray, t: np.ndarray, flipped: bool):
    """The (n, m) c2 and da2 (see _distance) of every (ego box, coop box)
    pair, the coop boxes moved by (R, t), which maps their scaled axes A to
    R A, and heading-reversed if flipped."""
    axes = R @ coop.axes * _FLIP_AXES if flipped else R @ coop.axes
    dc = ego.centers[:, None, :] - (coop.centers @ R.T + t)[None, :, :]
    da = ego.axes[:, None] - axes[None, :]
    return np.einsum("ijk,ijk->ij", dc, dc), np.einsum("ijkl,ijkl->ij", da, da)


def _greedy(rows: np.ndarray, cols: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The one-to-one pairing by ascending distance of candidate pairs
    given in (row, col) order: the positions of the pairs it keeps, in the
    order it keeps them. Equal distances keep the (row, col) order, so the
    result does not depend on evaluation order."""
    order = np.argsort(d, kind="stable")
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    kept = []
    for k, r, c in zip(order.tolist(), rows[order].tolist(), cols[order].tolist()):
        if r not in used_rows and c not in used_cols:
            used_rows.add(r)
            used_cols.add(c)
            kept.append(k)
    return np.array(kept, dtype=np.intp)


def _pair_up(cell, p, q, c2, da2, cells: int, shape: tuple[int, int], params: ODistParams):
    """Score the candidate pairs (ego p, coop q) of cells 0 <= cell < cells,
    sorted by cell and each cell's pairs in (p, q) order, from their c2 and
    da2 (see _distance); shape is (ego boxes, coop boxes). Returns (conf,
    mean, kept): each cell's valid-set size and mean distance (inf if
    empty), and the valid pairs as arrays (cell, p, q, d) in candidate
    order. The valid set is the pairs within tau that _greedy keeps. It
    runs only on a cell whose row or column holds two pairs within tau: in
    every other cell it would keep them all."""
    n, m = shape
    d = _distance(c2, da2, params)
    inside = d <= params.tau
    cell, p, q, d = cell[inside], p[inside], q[inside], d[inside]
    rows = np.bincount(cell * n + p, minlength=cells * n).reshape(cells, n)
    cols = np.bincount(cell * m + q, minlength=cells * m).reshape(cells, m)
    crowded = (rows.max(axis=1, initial=0) > 1) | (cols.max(axis=1, initial=0) > 1)
    keep = np.ones(len(d), dtype=bool)
    for c in np.flatnonzero(crowded):
        lo, hi = np.searchsorted(cell, [c, c + 1])  # cell is sorted
        keep[lo:hi] = False
        keep[lo + _greedy(p[lo:hi], q[lo:hi], d[lo:hi])] = True
    cell, p, q, d = cell[keep], p[keep], q[keep], d[keep]
    conf = np.bincount(cell, minlength=cells)
    total = np.bincount(cell, weights=d, minlength=cells)
    mean = np.divide(total, conf, out=np.full(total.shape, math.inf), where=conf > 0)
    return conf, mean, (cell, p, q, d)


def _cell_score(conf, mean, kept, c: int, flipped: bool) -> PairScore:
    """The PairScore of cell c of a _pair_up result."""
    cell, p, q, d = kept
    valid = cell == c
    pairs = zip(p[valid].tolist(), q[valid].tolist(), d[valid].tolist())
    return PairScore(float(conf[c]), float(mean[c]), tuple(pairs), flipped)


def _score(ego: _SceneArrays, coop: _SceneArrays, R, t, flipped: bool, params) -> PairScore:
    """Scene-consistency score of the coop scene moved by (R, t) and, if
    flipped, heading-reversed: the one-cell _pair_up of every (ego, coop)
    pair, its valid pairs in (ego, coop) order."""
    c2, da2 = _terms(ego, coop, R, t, flipped)
    p, q = np.divmod(np.arange(c2.size), c2.shape[1])
    up = _pair_up(np.zeros(c2.size, np.intp), p, q, c2.ravel(), da2.ravel(), 1, c2.shape, params)
    return _cell_score(*up, 0, flipped)


def _rank_key(confidence: float, mean_distance: float) -> tuple[float, float]:
    """Sort key of scores, best first: higher confidence, then lower mean
    distance to 1e-9 m (as Python rounds a float, not a NumPy scalar).
    Means that differ only by rounding tie, so callers' tie rules (unflipped
    variant first, lower ego index first) decide, not floating-point noise."""
    return -confidence, round(float(mean_distance), 9)


def _rank(score: PairScore) -> tuple[float, float]:
    return _rank_key(score.confidence, score.mean_distance)


class _ScenePair:
    """Both scenes' arrays and what all anchors of the pair share: cos and
    sin of the heading differences phi = yaw_e - yaw_c and of phi / 2, the
    coop offsets c_q - c_j, the xy radii |e_p - e_i| and |c_q - c_j| with
    the allowance for their rounding, the flip-free parts of the axes
    term, and the needle anchors, whose corners do not fix a rotation (the
    rank test of registration.pair_hypothesis). Each table is computed
    once, so an anchor's distances do not depend on the block it is scored
    in."""

    def __init__(self, ego: Scene, coop: Scene):
        self.ego, self.coop = _SceneArrays(ego), _SceneArrays(coop)
        phi = self.ego.yaws[:, None] - self.coop.yaws[None, :]
        self.cos, self.sin = np.cos(phi), np.sin(phi)
        self.cos_half, self.sin_half = np.cos(0.5 * phi), np.sin(0.5 * phi)
        self.offsets = self.coop.centers[None, :, :] - self.coop.centers[:, None, :]
        xy = self.ego.centers[:, :2]
        self.ego_radii = np.linalg.norm(xy[None, :, :] - xy[:, None, :], axis=-1)
        self.coop_radii = np.linalg.norm(self.offsets[..., :2], axis=-1)
        centers = np.concatenate([self.ego.centers, self.coop.centers])
        self.allowance = 1e-6 * (1.0 + np.max(np.abs(centers), initial=0.0))
        dims_e, dims_c = self.ego.dims[:, None, :], self.coop.dims[None, :, :]
        self.same = np.sum(np.square(dims_e - dims_c), axis=-1)
        self.cross = 4.0 * (dims_e[..., 0] * dims_c[..., 0] + dims_e[..., 1] * dims_c[..., 1])
        self.needles = rank_deficient(dims_e * dims_c)


def _anchor_block(pair: _ScenePair, i: int, params: ODistParams):
    """Score the anchors (i, j) of ego index i with every coop index j,
    under both heading variants when params.try_yaw_flip, else unflipped.

    Returns (conf, mean, flip, kept): _pair_up's results for cells variant
    * m + j, conf and mean shaped (variants, m), kept in (cell, p, q) order,
    and flip, the anchors whose flipped variant wins by _rank_key (ties stay unflipped).

    With theta = phi[i, j], U = ego centers - e_i and V = coop centers -
    c_j, the center difference of ego p and coop q is U_p - rot_z(theta)
    V_q, and rot_z(theta + pi) only negates its xy part. The axes term is
    (l_p - l_q)^2 + (w_p - w_q)^2 + (h_p - h_q)^2
    + 4 (l_p l_q + w_p w_q) sin^2(delta / 2), delta = phi[p, q] - theta,
    the same for both variants; sin(delta / 2) is expanded from the
    half-angle tables. No 1 - cos and no |u|^2 + |v|^2 - 2 u.Rv: those
    cancel on coincident boxes.

    A pair comes within tau only if its center difference is within
    reach = tau / (alpha + beta sqrt(8)). rot_z(theta) and rot_z(theta +
    pi) keep xy lengths and the z term is nonnegative, so under both
    variants |U_p - rot_z(theta) V_q| >= | |U_p|_xy - |V_q|_xy |, the
    difference of the radii tables. The (anchor, p, q) whose radii differ
    by more than reach plus pair.allowance are dropped before any rotation,
    and the rest take the exact test dc2 <= reach^2 (1 + 1e-9) per
    variant, in the order a dense (variant, anchor, p, q) grid would give.
    The allowance, 1e-6 (1 + the largest |center coordinate|), exceeds the
    rounding of the radii and rotated offsets, a few ulps of the
    coordinates, about a billionfold: the prune drops only what the exact
    test would.
    """
    n, m = pair.needles.shape
    signs = [1.0, -1.0] if params.try_yaw_flip else [1.0]
    u = pair.ego.centers - pair.ego.centers[i]
    v = pair.offsets
    cos, sin = pair.cos[i][:, None], pair.sin[i][:, None]
    rx = cos * v[..., 0] - sin * v[..., 1]
    ry = sin * v[..., 0] + cos * v[..., 1]
    # d >= (alpha + beta sqrt(8)) |center difference|: no farther pair comes within tau
    reach = params.tau / (params.alpha + params.beta * math.sqrt(8.0))
    # |center difference| >= | |U_p|_xy - |V_q|_xy |: (anchor, p, q) in order
    gap = np.abs(pair.ego_radii[i][None, :, None] - pair.coop_radii[:, None, :])
    a, p, q = np.nonzero(gap <= reach * (1.0 + 1e-9) + pair.allowance)
    ux, uy, dz2 = u[p, 0], u[p, 1], np.square(u[p, 2] - v[a, q, 2])
    rx, ry = rx[a, q], ry[a, q]
    # dc2 axes: [variant, surviving (anchor, p, q)]
    dc2 = np.stack([np.square(ux - s * rx) + np.square(uy - s * ry) + dz2 for s in signs])
    f, k = np.nonzero(dc2 <= reach * reach * (1.0 + 1e-9))
    c2, a, p, q = dc2[f, k], a[k], p[k], q[k]
    half = pair.sin_half[p, q] * pair.cos_half[i, a] - pair.cos_half[p, q] * pair.sin_half[i, a]
    da2 = pair.same[p, q] + pair.cross[p, q] * np.square(half)
    conf, mean, kept = _pair_up(f * m + a, p, q, c2, da2, len(signs) * m, (n, m), params)
    conf, mean = conf.reshape(len(signs), m), mean.reshape(len(signs), m)
    flip = conf[-1] > conf[0]
    for b in np.flatnonzero((conf[-1] == conf[0]) & (mean[-1] < mean[0])):
        flip[b] = _rank_key(conf[-1, b], mean[-1, b]) < _rank_key(conf[0, b], mean[0, b])
    return conf, mean, flip, kept


def _pair_score(block, j: int) -> PairScore:
    """The score of anchor (i, j), read from the _anchor_block of ego
    index i: the winning variant of coop index j, 0 <= j < m."""
    conf, mean, flip, kept = block
    w = int(flip[j])
    return _cell_score(conf.ravel(), mean.ravel(), kept, w * conf.shape[1] + j, bool(w))


def odist(ego: Scene, coop: Scene, i: int, j: int, params: ODistParams = ODistParams()) -> PairScore:
    """Score anchor pair (ego[i], coop[j]) by whole-scene alignment
    consistency; the valid pairs come in (ego, coop) index order. Raises
    DegenerateCorners for a needle anchor, whose corners fix no rotation."""
    pair = _ScenePair(ego, coop)
    if pair.needles[i, j]:  # IndexError for an index out of range
        raise DegenerateCorners(f"anchor ({i}, {j}): rank-deficient cross-covariance")
    return _pair_score(_anchor_block(pair, i, params), j % len(coop))  # j < 0: from the end


def alignment_score(
    ego: Scene, coop: Scene, transform: RigidTransform, params: ODistParams = ODistParams()
) -> PairScore:
    """Scene-consistency score of a given transform (no anchor search).

    Pairs are formed exactly as in odist (_pair_up): greedy one-to-one by
    ascending distance within tau, listed in (ego, coop) index order.
    """
    ego_a, coop_a = _SceneArrays(ego), _SceneArrays(coop)
    return _score(ego_a, coop_a, transform.rotation, transform.translation, False, params)


def _score_anchors(pair: _ScenePair, params: ODistParams):
    """The affinity matrix (each anchor's confidence and winning flip flag,
    zero for needle anchors) and blocks[i], the _anchor_block of ego index
    i that filled row i: the one scoring pass over the anchors."""
    needles = pair.needles
    blocks = [_anchor_block(pair, i, params) for i in range(len(needles))]
    entries = np.zeros(needles.shape)
    flips = np.zeros(needles.shape, dtype=bool)
    for i, (conf, _, flip, _) in enumerate(blocks):
        entries[i] = np.where(needles[i], 0.0, conf.max(axis=0))
        flips[i] = flip & ~needles[i]
    return AffinityMatrix(entries, flips), blocks


def build_affinity(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> AffinityMatrix:
    """Score every anchor pair; entry (i, j) is its confidence."""
    return _score_anchors(_ScenePair(ego, coop), params)[0]


def _max_assignment_total(entries: np.ndarray) -> float:
    if entries.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(entries, maximize=True)
    return float(entries[rows, cols].sum())


def _assignment_bounds(rest: np.ndarray) -> np.ndarray:
    """For each column c of a nonnegative matrix, an upper bound on
    _max_assignment_total of the matrix without column c: an assignment
    takes at most one entry per row and one per column, so it cannot beat
    the sum of the row maxima or the sum of the column maxima."""
    rows, cols = rest.shape
    if rows == 0 or cols <= 1:
        return np.zeros(cols)
    top = np.partition(rest, cols - 2, axis=1)
    first, second = top[:, -1], top[:, -2]
    dropped = rest.argmax(axis=1)[None, :] == np.arange(cols)[:, None]
    by_rows = np.where(dropped, second, first).sum(axis=1)
    by_cols = np.where(np.eye(cols, dtype=bool), 0.0, rest.max(axis=0)).sum(axis=1)
    return np.minimum(by_rows, by_cols)


def solve_assignment(affinity: AffinityMatrix | np.ndarray) -> MatchSet:
    """One-to-one assignment maximizing total affinity.

    Zero entries are never selected (an unsupported pairing is worse than
    no pairing). Among assignments of equal total, the one whose sorted
    (ego, coop) index list is lexicographically smallest is returned, so
    results are reproducible across solver versions.
    """
    if not isinstance(affinity, AffinityMatrix):
        affinity = AffinityMatrix(affinity)
    entries, flips = affinity.entries, affinity.coop_flip

    n, m = entries.shape
    best_total = _max_assignment_total(entries)
    tol = 1e-9 * max(1.0, abs(best_total))
    if best_total <= tol:
        return MatchSet(())

    # Fix pairs in lexicographic order, keeping only choices that still
    # reach the optimal total on the remaining submatrix. At the start of
    # iteration i, `remaining` holds rows i.. restricted to the free cols,
    # so the current row is always its row 0.
    # A choice whose bound (see _assignment_bounds) falls short of the
    # optimum by more than 2 tol cannot pass the test below, rounding
    # included, so its submatrix is not solved.
    forced_total = 0.0
    free_cols = list(range(m))
    matches: list[Match] = []
    remaining = entries
    for i in range(n):
        chosen = None
        rest = remaining[1:]
        bounds = _assignment_bounds(rest)
        for cj, j in enumerate(free_cols):
            if entries[i, j] <= 0.0:
                continue
            head = forced_total + entries[i, j]
            if head + bounds[cj] < best_total - 2.0 * tol:
                continue
            candidate = head + _max_assignment_total(np.delete(rest, cj, axis=1))
            if candidate >= best_total - tol:
                chosen = (cj, j)
                break
        if chosen is None:
            remaining = rest
            continue
        cj, j = chosen
        matches.append(Match(i, j, float(entries[i, j]), bool(flips[i, j])))
        forced_total += entries[i, j]
        free_cols.pop(cj)
        remaining = np.delete(rest, cj, axis=1)
    return MatchSet(tuple(matches))


def _fit(ego: _SceneArrays, coop: _SceneArrays, pairs, flipped: bool) -> RegistrationResult:
    """weighted_kabsch of the build_feature_clouds of the matches (ego
    index, coop index, flipped) with unit weights, in closed form.
    Centered corners are S A^T / 2 (see _distance), so the corner
    cross-covariance is 8 sum de dc^T + 2 sum A_e A_c^T, de and dc the
    centers minus their means, and a pair's squared corner residuals sum
    to 8 |r|^2 + 2 |R A_c - A_e|_F^2, r its center residual."""
    rows, cols = np.array(pairs).T
    e, c, axes_e = ego.centers[rows], coop.centers[cols], ego.axes[rows]
    axes_c = coop.axes[cols] * _FLIP_AXES if flipped else coop.axes[cols]
    e_bar, c_bar = e.mean(axis=0), c.mean(axis=0)
    H = 8.0 * (e - e_bar).T @ (c - c_bar) + 2.0 * np.einsum("kij,klj->il", axes_e, axes_c)
    R = nearest_rotation(H)
    t = e_bar - R @ c_bar
    r, da = c @ R.T + t - e, R @ axes_c - axes_e
    rms = math.sqrt((8.0 * np.sum(r * r) + 2.0 * np.sum(da * da)) / (8 * len(rows)))
    return RegistrationResult(RigidTransform(R, t), rms)


def _refine(
    ego: _SceneArrays,
    coop: _SceneArrays,
    score: PairScore,
    params: ODistParams,
    refits: dict[tuple, tuple[RegistrationResult, PairScore]],
) -> PairScore:
    """Refit an anchor's transform on its valid set (_fit) until the refit
    no longer scores better. This ends: each kept refit strictly lowers
    _rank, and a refit depends only on the valid set it fits, so no valid
    set comes back. The refinements of different anchors often reach the
    same valid set, so refits keeps each fit and its score by valid set. A
    one-pair valid set is the anchor itself and is left alone."""
    while len(score.valid_pairs) >= 2:
        key = tuple((i, j) for i, j, _ in score.valid_pairs), score.coop_flipped
        if key not in refits:
            fit = _fit(ego, coop, *key)
            R, t = fit.transform.rotation, fit.transform.translation
            refits[key] = fit, _score(ego, coop, R, t, key[1], params)
        refined = refits[key][1]
        if _rank(refined) >= _rank(score):
            break
        score = refined
    return score


def _associate(ego: Scene, coop: Scene, params: ODistParams) -> tuple[MatchSet, RegistrationResult]:
    """associate's matches and their fit (_fit): the cached fit _refine
    stopped at, or the one fit of a one-pair valid set."""
    pair = _ScenePair(ego, coop)
    affinity, blocks = _score_anchors(pair, params)
    assigned = solve_assignment(affinity)
    if len(assigned) == 0:
        raise NoCoVisibleObjects("no anchor pair supports a consistent scene alignment")
    refits: dict[tuple, tuple[RegistrationResult, PairScore]] = {}
    anchors = [_pair_score(blocks[a.ego_index], a.coop_index) for a in assigned]
    refined = [_refine(pair.ego, pair.coop, score, params, refits) for score in anchors]
    # assigned is in ascending ego index and min keeps the first of equals
    best = min(refined, key=_rank)
    key = tuple((i, j) for i, j, _ in best.valid_pairs), best.coop_flipped
    fit = refits[key][0] if key in refits else _fit(pair.ego, pair.coop, *key)
    return MatchSet(tuple(Match(i, j, best.confidence, best.coop_flipped) for i, j in key[0])), fit


def associate(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> MatchSet:
    """Full association: the refined consensus of the best assigned anchor.

    The affinity matrix and the optimal assignment choose the candidate
    anchors by their unrefined confidences. Each assigned anchor's score,
    read from the block that filled its affinity entry (_pair_score), is
    refined to a fixed point (see _refine); the one with the highest
    refined confidence, then the least mean distance, then the lowest ego
    index wins. Its valid set, sorted by ego index, is returned; every
    match carries the winner's confidence and heading-flip flag.
    """
    return _associate(ego, coop, params)[0]


def top_k_by_volume(scene: Scene, k: int | float | None) -> Scene:
    """Keep the k largest boxes by volume, preserving scene order.

    Pass None (or infinity) to keep everything. Ties at the volume cutoff
    are resolved toward the earlier index.
    """
    if k is None or (isinstance(k, float) and math.isinf(k)):
        return scene
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= len(scene):
        return scene
    ranked = sorted(range(len(scene)), key=lambda i: (-scene[i].volume, i))
    keep = sorted(ranked[:k])
    return Scene(tuple(scene[i] for i in keep), scene.agent_id, scene.frame_id)
