"""Scene-level object association between two agents' detections.

No initial relative pose is assumed. Every (ego box, coop box) pair is
treated as a candidate anchor: the rigid motion mapping the coop box onto
the ego box is the closed-form Kabsch fit of their corners (a rotation by
the yaw difference, see registration.yaw_rotation), the whole coop scene
is brought into the ego frame under that motion, and the quality of the
pair is scored by how well the rest of the scene lines up:

* confidence: how many box pairs fall within tau of each other under a
  greedy one-to-one pairing by ascending distance, and
* mean_distance: the mean pair distance over that valid set.

Anchor confidences fill an affinity matrix and a one-to-one assignment
with maximum total affinity picks the candidate anchors. No anchor is
judged on its unrefined mean distance: each assigned anchor is refined on
its valid set by closed-form corner fits to a fixed point, and the final
matches are the refined consensus (valid set) of the best assigned anchor,
as in LO-RANSAC: pairs the assignment picked only because they agree with
themselves never join it.

One kernel, _score, defines a score. The affinity matrix is filled by a
batched pass per ego index (_score_anchors) that evaluates the same
distances in closed form for all anchors of that index at once and
decides each entry and flip flag itself only where rounding cannot change
the kernel's decision; anywhere else, and for the anchors the assignment
picks, the kernel scores the anchor. So every PairScore that leaves this
module, and the ones refinement and the health check use, comes from
_score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import DetectionBox, RigidTransform, Scene, rot_z
from .registration import build_feature_clouds, rank_deficient, weighted_kabsch, yaw_rotation

# A reversed heading (yaw + pi) negates a box's length and width axes.
_FLIP_AXES = np.array([-1.0, -1.0, 1.0])

TAU_MAX = 3.0  # upper bound of the pairing gate, meters

# The batched anchor pass and _distances evaluate the same distances in a
# different order, so they differ by rounding: at most this many meters
# per meter of scene extent and per unit of the distance's gain
# alpha + beta sqrt(8) (see _batch_slack). Benchmark frames reach 2.9e-15;
# rounding the rotated offsets and their angles can reach about 2.5e-14.
_ROUNDING_PER_M = 5e-14


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
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
            raise ValueError("alpha and beta must be nonnegative and not both zero")


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
    return float(_distances(one_a, one_b, np.eye(3), np.zeros(3), False, params)[0, 0])


class _SceneArrays:
    """Stacked per-scene geometry reused across anchor evaluations: centers,
    dims, yaws and the scaled axes A = rot_z(yaw) @ diag(dims) of each box."""

    def __init__(self, scene: Scene):
        n = len(scene)
        self.scene = scene
        self.centers = np.array([b.center for b in scene]).reshape(n, 3)
        self.dims = np.array([b.dims for b in scene]).reshape(n, 3)
        self.yaws = np.array([b.yaw for b in scene])
        self.axes = np.array([rot_z(b.yaw) * b.dims for b in scene]).reshape(n, 3, 3)


def _distances(
    ego: _SceneArrays,
    coop: _SceneArrays,
    rotation: np.ndarray,
    translation: np.ndarray,
    flipped: bool,
    params: ODistParams,
) -> np.ndarray:
    """box_distance of every (ego box, coop box) pair, the coop boxes moved
    by (rotation, translation) and, if flipped, heading-reversed.

    A box's corners are c + S diag(dims/2) rot_z(yaw)^T, and the 8x3 sign
    matrix S has zero column sums and S^T S = 8 I, so the corner term is
    exactly sqrt(8 |dc|^2 + 2 |dA|_F^2). A rigid motion maps A to R A.
    """
    axes = rotation @ coop.axes
    if flipped:
        axes = axes * _FLIP_AXES
    dc = ego.centers[:, None, :] - (coop.centers @ rotation.T + translation)[None, :, :]
    da = ego.axes[:, None] - axes[None, :]
    dc2 = np.einsum("ijk,ijk->ij", dc, dc)
    da2 = np.einsum("ijkl,ijkl->ij", da, da)
    return params.alpha * np.sqrt(dc2) + params.beta * np.sqrt(8.0 * dc2 + 2.0 * da2)


def _score(
    ego: _SceneArrays,
    coop: _SceneArrays,
    rotation: np.ndarray,
    translation: np.ndarray,
    flipped: bool,
    params: ODistParams,
) -> PairScore:
    """Scene-consistency score of the coop scene moved by (rotation,
    translation): one-to-one pairing by ascending distance, admitting pairs
    within tau.

    Ties in distance are broken by (ego index, coop index) so the result
    does not depend on evaluation order.
    """
    d = _distances(ego, coop, rotation, translation, flipped, params)
    n, m = d.shape
    flat = np.flatnonzero(d <= params.tau)
    order = flat[np.argsort(d.reshape(-1)[flat], kind="stable")]
    row_used = np.zeros(n, dtype=bool)
    col_used = np.zeros(m, dtype=bool)
    picked: list[tuple[int, int, float]] = []
    for f in order:
        i, j = divmod(int(f), m)
        if row_used[i] or col_used[j]:
            continue
        row_used[i] = True
        col_used[j] = True
        picked.append((i, j, float(d[i, j])))
    mean = float(np.mean([p[2] for p in picked])) if picked else math.inf
    return PairScore(float(len(picked)), mean, tuple(picked), flipped)


def _rank(score: PairScore) -> tuple[float, float]:
    """Sort key of anchor scores, best first: higher confidence, then lower
    mean distance to 1e-9 m. Means that differ only by rounding tie, so
    callers' tie rules (unflipped variant first, lower ego index first)
    decide instead of floating-point noise."""
    return -score.confidence, round(score.mean_distance, 9)


def _pair_score(
    ego: _SceneArrays, coop: _SceneArrays, i: int, j: int, params: ODistParams
) -> PairScore:
    scores = []
    for flipped in [False, True] if params.try_yaw_flip else [False]:
        coop_yaw = coop.yaws[j] + math.pi if flipped else coop.yaws[j]
        R = yaw_rotation(ego.yaws[i], ego.dims[i], coop_yaw, coop.dims[j])
        t = ego.centers[i] - R @ coop.centers[j]
        scores.append(_score(ego, coop, R, t, flipped, params))
    return min(scores, key=_rank)  # min keeps the first of equals: unflipped wins ties


def odist(ego: Scene, coop: Scene, i: int, j: int, params: ODistParams = ODistParams()) -> PairScore:
    """Score anchor pair (ego[i], coop[j]) by whole-scene alignment consistency."""
    return _pair_score(_SceneArrays(ego), _SceneArrays(coop), i, j, params)


def alignment_score(
    ego: Scene, coop: Scene, transform: RigidTransform, params: ODistParams = ODistParams()
) -> PairScore:
    """Scene-consistency score of a given transform (no anchor search).

    Pairs are formed exactly as in odist: greedy one-to-one by ascending
    distance, admitting pairs within tau.
    """
    ego_a, coop_a = _SceneArrays(ego), _SceneArrays(coop)
    return _score(ego_a, coop_a, transform.rotation, transform.translation, False, params)


def _gain(params: ODistParams) -> float:
    """d >= gain * |center difference|, and an error in the center
    difference moves d by at most gain times as much."""
    return params.alpha + params.beta * math.sqrt(8.0)


def _batch_slack(ego: _SceneArrays, coop: _SceneArrays, params: ODistParams) -> float:
    """How far a batched distance or mean may lie from _distances' value:
    rounding grows with the coordinates and sizes in play."""
    arrays = (ego.centers, coop.centers, ego.dims, coop.dims)
    extent = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    return _ROUNDING_PER_M * _gain(params) * (1.0 + extent)


def _score_anchors(ego: _SceneArrays, coop: _SceneArrays, params: ODistParams) -> AffinityMatrix:
    """The affinity matrix: each anchor's confidence and the winning
    variant's flip flag, as _pair_score decides them, from one batched
    pass per ego index.

    Block i scores the anchors (i, j) of every coop box j under both
    heading variants at once, from closed forms of what _distances
    computes. With theta = yaw_e[i] - yaw_c[j], U = ego centers - e_i and
    V = coop centers - c_j, the center difference of ego p and coop q is
    U_p - rot_z(theta) V_q, and rot_z(theta + pi) only negates its xy
    part. The axes term is
    (l_p - l_q)^2 + (w_p - w_q)^2 + (h_p - h_q)^2
    + 4 (l_p l_q + w_p w_q) sin^2(delta / 2), delta the difference of the
    two heading differences, and a flip leaves it unchanged. Differences
    and half angles are kept: the expanded forms cancel on coincident
    boxes. Needle anchors, the ones yaw_rotation refuses, score zero.

    When each row and column of an anchor's distance matrix holds at most
    one pair within tau, the greedy pairing keeps all of them, so the
    confidence is a count and the mean a sum over a mask. The batched
    distances agree with _distances only to rounding (_batch_slack), so
    an anchor takes the scalar _pair_score instead when (a) a row or
    column holds two pairs within tau in either variant, (b) a distance
    lies within the slack of tau, or (c) both variants have the same
    confidence and, with each mean moved by up to the slack, _rank's
    1e-9 m rounding could order them either way. Every decision the pass
    makes itself is then the one the scalar kernel makes.
    """
    n, m = ego.centers.shape[0], coop.centers.shape[0]
    entries = np.zeros((n, m))
    flips = np.zeros((n, m), dtype=bool)
    if n == 0 or m == 0:
        return AffinityMatrix(entries, flips)
    needles = rank_deficient(ego.dims[:, None, :] * coop.dims[None, :, :])
    # what no anchor changes: coop offsets V[j, q] = c_q - c_j, heading
    # differences phi[p, q] and the flip-free parts of the axes term
    v = coop.centers[None, :, :] - coop.centers[:, None, :]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    phi = ego.yaws[:, None] - coop.yaws[None, :]
    dims_e, dims_c = ego.dims[:, None, :], coop.dims[None, :, :]
    same = np.sum(np.square(dims_e - dims_c), axis=-1)
    cross = 4.0 * (dims_e[..., 0] * dims_c[..., 0] + dims_e[..., 1] * dims_c[..., 1])
    # rot_z(theta + pi) V = -rot_z(theta) V
    sign = np.array([1.0, -1.0] if params.try_yaw_flip else [1.0])[:, None, None, None]
    cells = len(sign) * m  # (variant, anchor coop j) pairs of a block
    slack = _batch_slack(ego, coop, params)
    # no pair whose centers are farther apart than this comes within tau + slack
    reach = (params.tau + slack) / _gain(params)
    reach2 = reach * reach * (1.0 + 1e-9)
    for i in range(n):
        u = ego.centers - ego.centers[i]
        theta = phi[i]
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        # dc2 axes: [variant, anchor coop j, ego p, coop q]
        rx = (cos * vx - sin * vy)[:, None, :]
        ry = (sin * vx + cos * vy)[:, None, :]
        dc2 = (
            np.square(u[None, :, None, 0] - sign * rx)
            + np.square(u[None, :, None, 1] - sign * ry)
            + np.square(u[None, :, None, 2] - vz[:, None, :])
        )
        f, a, p, q = np.nonzero(dc2 <= reach2)  # a: the anchor's coop index
        c2 = dc2[f, a, p, q]
        half = np.sin(0.5 * (phi[p, q] - theta[a]))
        da2 = same[p, q] + cross[p, q] * np.square(half)
        d = params.alpha * np.sqrt(c2) + params.beta * np.sqrt(8.0 * c2 + 2.0 * da2)

        cell = f * m + a
        inside = d <= params.tau
        conf = np.bincount(cell[inside], minlength=cells)
        total = np.bincount(cell[inside], weights=d[inside], minlength=cells)
        rows = np.bincount(cell[inside] * n + p[inside], minlength=cells * n)
        cols = np.bincount(cell[inside] * m + q[inside], minlength=cells * m)
        near = np.bincount(cell, weights=np.abs(d - params.tau) <= slack, minlength=cells)
        unsure = (
            (rows.reshape(cells, n).max(axis=1) > 1)
            | (cols.reshape(cells, m).max(axis=1) > 1)
            | (near > 0)
        ).reshape(-1, m).any(axis=0)
        conf = conf.reshape(-1, m)
        flip = np.zeros(m, dtype=bool)
        if params.try_yaw_flip:
            # _rank rounds means to 1e-9 m: the roundings within reach of each batched mean
            nano = total.reshape(-1, m) / np.maximum(conf, 1) * 1e9
            low, high = np.rint(nano - slack * 1e9), np.rint(nano + slack * 1e9)
            tie = (conf[0] == conf[1]) & (conf[0] > 0)
            flip = (conf[1] > conf[0]) | (tie & (high[1] < low[0]))
            unsure |= tie & (high[1] >= low[0]) & (low[1] < high[0])
        entries[i] = conf.max(axis=0)
        flips[i] = flip
        for j in np.flatnonzero(unsure & ~needles[i]):
            score = _pair_score(ego, coop, i, int(j), params)
            entries[i, j] = score.confidence
            flips[i, j] = score.coop_flipped
    entries[needles] = 0.0
    flips[needles] = False
    return AffinityMatrix(entries, flips)


def build_affinity(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> AffinityMatrix:
    """Score every anchor pair; entry (i, j) is its confidence."""
    return _score_anchors(_SceneArrays(ego), _SceneArrays(coop), params)


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


def _refine(
    ego: _SceneArrays,
    coop: _SceneArrays,
    score: PairScore,
    params: ODistParams,
    refits: dict[tuple, PairScore],
) -> PairScore:
    """Refit an anchor's transform on its valid set, a closed-form corner
    fit with unit weights on the pairs in index order, until the refit no
    longer scores better. This ends: each kept refit strictly lowers _rank,
    and a refit depends only on the valid set it fits, so no valid set
    comes back. The refinements of different anchors often reach the same
    valid set, so refits keeps each refit's score by its valid set. A
    one-pair valid set is the anchor itself and is left alone."""
    while len(score.valid_pairs) >= 2:
        pairs = tuple(sorted((i, j) for i, j, _ in score.valid_pairs))
        flipped = score.coop_flipped
        if (pairs, flipped) not in refits:
            unit = MatchSet([Match(i, j, 1.0, flipped) for i, j in pairs])
            fit = weighted_kabsch(build_feature_clouds(unit, ego.scene, coop.scene)).transform
            refits[pairs, flipped] = _score(ego, coop, fit.rotation, fit.translation, flipped, params)
        refined = refits[pairs, flipped]
        if _rank(refined) >= _rank(score):
            break
        score = refined
    return score


def associate(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> MatchSet:
    """Full association: the refined consensus of the best assigned anchor.

    The affinity matrix and the optimal assignment choose the candidate
    anchors by their unrefined confidences. Each assigned anchor is then
    scored by the scalar kernel (_pair_score; the affinity pass keeps no
    scores) and refined to a fixed point (see _refine); the one with the
    highest refined confidence, then the least mean distance, then the
    lowest ego index wins. Its valid set, sorted by ego index, is
    returned; every match carries the winner's confidence and heading-flip
    flag.
    """
    ego_a = _SceneArrays(ego)
    coop_a = _SceneArrays(coop)
    assigned = solve_assignment(_score_anchors(ego_a, coop_a, params))
    if len(assigned) == 0:
        raise NoCoVisibleObjects("no anchor pair supports a consistent scene alignment")
    refits: dict[tuple, PairScore] = {}
    anchors = [_pair_score(ego_a, coop_a, a.ego_index, a.coop_index, params) for a in assigned]
    refined = [_refine(ego_a, coop_a, score, params, refits) for score in anchors]
    # assigned is in ascending ego index and min keeps the first of equals
    best = min(refined, key=_rank)
    return MatchSet(
        tuple(
            Match(i, j, best.confidence, best.coop_flipped)
            for i, j, _ in sorted(best.valid_pairs)
        )
    )


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
