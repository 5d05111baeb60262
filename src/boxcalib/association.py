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

High-confidence, low-distance anchors fill an affinity matrix and a
one-to-one assignment with maximum total affinity picks the candidate
anchors. Each assigned anchor is then refined on its own valid set by a
closed-form corner fit, and the final matches are the refined consensus
(valid set) of the best assigned anchor, as in RANSAC: pairs the
assignment picked only because they agree with themselves never join it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import DetectionBox, RigidTransform, Scene, rot_z
from .registration import DegenerateCorners, build_feature_clouds, weighted_kabsch, yaw_rotation

# Closed-form refits of an assigned anchor on its valid set.
REFINE_PASSES = 2

# A reversed heading (yaw + pi) negates a box's length and width axes.
_FLIP_AXES = np.array([-1.0, -1.0, 1.0])


class NoCoVisibleObjects(RuntimeError):
    """No box pair supports a consistent alignment of the two scenes."""


@dataclass(frozen=True)
class ODistParams:
    """Scoring parameters.

    tau gates the per-pair distance when forming the valid set, tau1 gates
    the mean distance when filling the affinity matrix. alpha and beta
    weight the center-distance and corner-distance terms of box_distance;
    the default beta = 1/sqrt(8) puts the 8-corner Frobenius norm on a
    per-corner scale. try_yaw_flip additionally evaluates every anchor
    under a reversed coop heading convention (yaw + pi) and keeps the
    better variant, which recovers detectors that disagree about the
    front of a box.
    """

    tau: float = 3.0
    tau1: float = 1.5
    alpha: float = 1.0
    beta: float = math.sqrt(0.125)
    try_yaw_flip: bool = True

    def __post_init__(self):
        if not (0.0 < self.tau <= 3.0):
            raise ValueError(f"tau must be in (0, 3], got {self.tau}")
        if not (0.0 < self.tau1 <= 2.0):
            raise ValueError(f"tau1 must be in (0, 2], got {self.tau1}")
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
    """entries[i, j] is the anchor confidence of (ego i, coop j), zeroed
    where the anchor was filtered (mean distance >= tau1 or empty valid
    set). coop_flip marks anchors whose winning variant used the reversed
    coop heading."""

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
    variants = [False, True] if params.try_yaw_flip else [False]
    best: PairScore | None = None
    for flipped in variants:
        coop_yaw = coop.yaws[j] + math.pi if flipped else coop.yaws[j]
        R = yaw_rotation(ego.yaws[i], ego.dims[i], coop_yaw, coop.dims[j])
        t = ego.centers[i] - R @ coop.centers[j]
        score = _score(ego, coop, R, t, flipped, params)
        if best is None or _rank(score) < _rank(best):
            best = score
    assert best is not None
    return best


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


def _score_anchors(
    ego_a: _SceneArrays, coop_a: _SceneArrays, params: ODistParams
) -> tuple[AffinityMatrix, dict[tuple[int, int], PairScore]]:
    """The affinity matrix plus the score of every anchor that entered it."""
    n, m = ego_a.centers.shape[0], coop_a.centers.shape[0]
    entries = np.zeros((n, m))
    flips = np.zeros((n, m), dtype=bool)
    kept: dict[tuple[int, int], PairScore] = {}
    for i in range(n):
        for j in range(m):
            try:
                score = _pair_score(ego_a, coop_a, i, j, params)
            except DegenerateCorners:
                continue
            if score.mean_distance < params.tau1:
                entries[i, j] = score.confidence
                flips[i, j] = score.coop_flipped
                kept[(i, j)] = score
    return AffinityMatrix(entries, flips), kept


def build_affinity(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> AffinityMatrix:
    """Score every anchor pair, keeping confidences where mean distance < tau1."""
    return _score_anchors(_SceneArrays(ego), _SceneArrays(coop), params)[0]


def _max_assignment_total(entries: np.ndarray) -> float:
    if entries.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(entries, maximize=True)
    return float(entries[rows, cols].sum())


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
    forced_total = 0.0
    free_cols = list(range(m))
    matches: list[Match] = []
    remaining = entries
    for i in range(n):
        chosen = None
        for cj, j in enumerate(free_cols):
            if entries[i, j] <= 0.0:
                continue
            sub = np.delete(remaining[1:], cj, axis=1)
            candidate = forced_total + entries[i, j] + _max_assignment_total(sub)
            if candidate >= best_total - tol:
                chosen = (cj, j)
                break
        if chosen is None:
            remaining = remaining[1:]
            continue
        cj, j = chosen
        matches.append(Match(i, j, float(entries[i, j]), bool(flips[i, j])))
        forced_total += entries[i, j]
        free_cols.pop(cj)
        remaining = np.delete(remaining[1:], cj, axis=1)
    return MatchSet(tuple(matches))


def _refine(
    ego: _SceneArrays, coop: _SceneArrays, score: PairScore, params: ODistParams
) -> PairScore:
    """Refit an anchor's transform on its valid set and rescore the scene.

    Each pass fits the corners of the valid pairs in closed form (unit
    weights) and keeps the refit only if it scores better; a valid set of
    one pair is the anchor itself and is left alone.
    """
    for _ in range(REFINE_PASSES):
        if len(score.valid_pairs) < 2:
            break
        unit = MatchSet([Match(i, j, 1.0, score.coop_flipped) for i, j, _ in score.valid_pairs])
        fit = weighted_kabsch(build_feature_clouds(unit, ego.scene, coop.scene)).transform
        refined = _score(ego, coop, fit.rotation, fit.translation, score.coop_flipped, params)
        if _rank(refined) >= _rank(score):
            break
        score = refined
    return score


def associate(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> MatchSet:
    """Full association: the refined consensus of the best assigned anchor.

    The affinity matrix and the optimal assignment choose the candidate
    anchors, gated on their unrefined scores. Each assigned anchor is then
    refined on its valid set (see _refine), and the one with the highest
    refined confidence, then the least mean distance, then the lowest ego
    index wins. Its valid set, sorted by ego index, is returned; every
    match carries the winner's confidence and heading-flip flag.
    """
    ego_a = _SceneArrays(ego)
    coop_a = _SceneArrays(coop)
    affinity, scores = _score_anchors(ego_a, coop_a, params)
    assigned = solve_assignment(affinity)
    if len(assigned) == 0:
        raise NoCoVisibleObjects("no anchor pair supports a consistent scene alignment")
    refined = [
        _refine(ego_a, coop_a, scores[(a.ego_index, a.coop_index)], params) for a in assigned
    ]
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
