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

Anchor confidences fill an affinity matrix and one Hungarian solve picks
the candidate anchors: the one-to-one assignment with maximum total
affinity, minus zero entries, ties broken as the installed scipy's solver
breaks them (solve_assignment). No anchor is judged on its unrefined mean
distance: each assigned anchor is refined on its valid set by corner fits
to a fixed point, and the final matches are the refined consensus (valid
set) of the best assigned anchor, as in LO-RANSAC: pairs the assignment
picked only because they agree with themselves never join it. A fit
(_fit) is the unit-weight least-squares fit of the pairs' corners,
computed in closed form from the centers and scaled axes; each distinct
valid set is fit once, and the winner's fit is the calibration's
transform (_associate).

Every NumPy pass runs once per frame or once per refinement round, never
once per anchor. Two kernels generate candidate box pairs, as squared
center and axes differences, and one tail (_pair_up) scores them, any
number of cells at once: the one distance expression (_distance), the
tau gate, the greedy one-to-one pairing (_greedy) and the valid-set size
and mean. So every PairScore lists its valid pairs in (ego, coop) order.
The anchor kernel (_anchor_pass) scores every anchor of the frame in one
pass, from closed forms in the heading differences, after dropping the
pairs no anchor motion can bring within reach: a rotation about z keeps
xy lengths, so a pair's center difference is at least the difference of
their xy distances to the anchor boxes. Those distances are sorted once
per pass, so the candidates come out of searchsorted windows, in chunks
of rows bounded by a candidate budget. The pass fills the affinity
matrix, and every anchor's PairScore (odist's, from a one-row pass, and
the ones refinement starts from) is read from it. The transform kernel
(_score_motions) scores any number of rigid motions at once: the refits
of a refinement round (_refine, which runs every assigned anchor in
lockstep), and, as the one-motion case, alignment_score and the health
check. One rule ranks scores (_rank).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import DetectionBox, RigidTransform, Scene
from .registration import DegenerateCorners, RegistrationResult, nearest_rotation, rank_deficient

# A reversed heading (yaw + pi) negates a box's length and width axes.
_FLIP_AXES = np.array([-1.0, -1.0, 1.0])

TAU_MAX = 3.0  # upper bound of the pairing gate, meters

# Window cells per chunk of _anchor_pass's rows. A chunk ends at the row
# where its window cells reach this count, so the pass's temporaries, about
# 150 bytes per cell, stay near a MB and in cache whatever the frame size.
# One chunk for a whole 80 x 64 frame traced 122 MB; on 32 x 32 frames
# 2^13 ran no slower than 2^15 and peaked 2 MB lower.
_CANDIDATE_BUDGET = 1 << 13


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
    c2 = np.sum(np.square(one_a.centers - one_b.centers))
    da2 = np.sum(np.square(one_a.axes - one_b.axes))
    return float(_distance(c2, da2, params))


class _SceneArrays:
    """Stacked per-scene geometry reused across anchor evaluations: centers,
    dims, yaws and the scaled axes A = rot_z(yaw) @ diag(dims) of each box."""

    def __init__(self, scene: Scene):
        n = len(scene)
        self.centers = np.array([b.center for b in scene]).reshape(n, 3)
        self.dims = np.array([b.dims for b in scene]).reshape(n, 3)
        self.yaws = np.array([b.yaw for b in scene])
        # rot_z's math.cos and math.sin, so the axes are rot_z(yaw) * dims bit for bit
        yaws = self.yaws.tolist()
        cos, sin = np.array([math.cos(y) for y in yaws]), np.array([math.sin(y) for y in yaws])
        length, width, height = self.dims.T
        self.axes = np.zeros((n, 3, 3))
        self.axes[:, 0, 0], self.axes[:, 0, 1] = cos * length, -sin * width
        self.axes[:, 1, 0], self.axes[:, 1, 1] = sin * length, cos * width
        self.axes[:, 2, 2] = height


def _distance(c2: np.ndarray, da2: np.ndarray, params: ODistParams) -> np.ndarray:
    """box_distance from the squared center difference c2 and the squared
    difference da2 of the scaled axes. A box's corners are c + S diag(dims/2)
    rot_z(yaw)^T, and the 8x3 sign matrix S has zero column sums and S^T S
    = 8 I, so the corner term is exactly sqrt(8 c2 + 2 da2)."""
    return params.alpha * np.sqrt(c2) + params.beta * np.sqrt(8.0 * c2 + 2.0 * da2)


def _reach(params: ODistParams) -> float:
    """The largest center difference of a pair within tau: a pair's
    distance is at least (alpha + beta sqrt(8)) |center difference|."""
    return params.tau / (params.alpha + params.beta * math.sqrt(8.0))


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
    every other cell it would keep them all. Crowded cells are found from
    the pairs within tau alone, so work and memory follow the candidates,
    not the cells times the boxes."""
    n, m = shape
    d = _distance(c2, da2, params)
    inside = d <= params.tau
    cell, p, q, d = cell[inside], p[inside], q[inside], d[inside]
    rows = cell * n + p  # ascending: each cell's pairs come in (p, q) order
    cols = np.sort(cell * m + q)
    crowded = np.union1d(rows[1:][rows[1:] == rows[:-1]] // n, cols[1:][cols[1:] == cols[:-1]] // m)
    keep = np.ones(len(d), dtype=bool)
    for c in crowded.tolist():
        lo, hi = np.searchsorted(cell, [c, c + 1])  # cell is sorted
        keep[lo:hi] = False
        keep[lo + _greedy(p[lo:hi], q[lo:hi], d[lo:hi])] = True
    cell, p, q, d = cell[keep], p[keep], q[keep], d[keep]
    conf = np.bincount(cell, minlength=cells)
    total = np.bincount(cell, weights=d, minlength=cells)
    mean = np.divide(total, conf, out=np.full(total.shape, math.inf), where=conf > 0)
    return conf, mean, (cell, p, q, d)


def _scores(up, cells: np.ndarray, flipped) -> list[PairScore]:
    """The PairScores of the given cells of a _pair_up result, each with
    its entry of flipped, read by searchsorted on the sorted kept cells."""
    conf, mean, (cell, p, q, d) = up
    lo, hi = np.searchsorted(cell, cells), np.searchsorted(cell, cells + 1)
    scores = []
    for c, a, b, f in zip(cells.tolist(), lo.tolist(), hi.tolist(), flipped):
        pairs = zip(p[a:b].tolist(), q[a:b].tolist(), d[a:b].tolist())
        scores.append(PairScore(float(conf[c]), float(mean[c]), tuple(pairs), bool(f)))
    return scores


def _score_motions(ego: _SceneArrays, coop: _SceneArrays, R, t, flipped, params: ODistParams):
    """Score the coop scene moved by each rigid motion (R[k], t[k]), k < K,
    and heading-reversed where flipped[k], which maps its scaled axes A to
    R[k] A diag(-1, -1, 1): _pair_up's (conf, mean, kept) of one cell per
    motion, over every (ego, coop) pair. Only the pairs whose squared
    center difference c2 is within reach^2 (1 + 1e-9) (see _anchor_pass)
    take the axes term; no farther pair comes within tau, so the (K, n,
    m, 3, 3) axes differences are never built, and c2 is summed one
    coordinate at a time, so neither are the (K, n, m, 3) center ones."""
    n, m = len(ego.centers), len(coop.centers)
    moved = coop.centers @ np.swapaxes(R, -1, -2) + t[:, None, :]
    c2 = np.zeros((len(R), n, m))
    for x in range(3):
        d = ego.centers[None, :, None, x] - moved[:, None, :, x]
        c2 += d * d
    reach = _reach(params)
    k, p, q = np.nonzero(c2 <= reach * reach * (1.0 + 1e-9))
    axes = R[:, None] @ coop.axes[None]  # (K, m, 3, 3)
    axes[np.asarray(flipped, dtype=bool)] *= _FLIP_AXES
    da = ego.axes[p] - axes[k, q]
    da2 = np.einsum("sij,sij->s", da, da)
    return _pair_up(k, p, q, c2[k, p, q], da2, len(R), (n, m), params)


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
    once, so an anchor's distances do not depend on the pass it is scored
    in: the frame's, or odist's one row."""

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


def _anchor_pass(pair: _ScenePair, rows, params: ODistParams):
    """Score the anchors (i, j) of the ego indices i in rows with every coop
    index j, under both heading variants when params.try_yaw_flip, else
    unflipped: one pass for the whole frame.

    Returns (conf, mean, flip, kept): _pair_up's results for cells (r * V
    + variant) * m + j, r the position of i in rows and V the number of
    variants, conf and mean shaped (rows, V, m), kept in (cell, p, q)
    order, and flip (rows, m), the anchors whose flipped variant wins by
    _rank_key (ties stay unflipped).

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
    difference of the radii tables. So the candidates of (i, p) are the
    (anchor, q) whose radius lies within bound = reach (1 + 1e-9) +
    pair.allowance of ego_radii[i, p]: with the radii |V_q| of all (anchor,
    q) sorted once, that is the window between two searchsorted calls on
    ego_radii[i, p] -/+ bound, and no (rows, m, n, m) grid is built. The
    windows take the exact test dc2 <= reach^2 (1 + 1e-9) per variant, and
    one argsort of what passes restores the (cell, p, q) order. The
    allowance, 1e-6 (1 + the largest |center coordinate|), exceeds the
    rounding of the radii, of ego_radii -/+ bound and of the rotated
    offsets, a few ulps of the coordinates, about a billionfold: the
    windows drop only what the exact test would. The rows run in chunks of
    about _CANDIDATE_BUDGET window cells; the axes term, _pair_up and the
    flip tie then run once over the candidates of all chunks.
    """
    n, m = pair.needles.shape
    rows = np.asarray(rows, dtype=np.intp)
    signs = np.array([1.0, -1.0] if params.try_yaw_flip else [1.0])[:, None]
    v = pair.offsets
    reach = _reach(params)
    bound, bound2 = reach * (1.0 + 1e-9) + pair.allowance, reach * reach * (1.0 + 1e-9)
    order = np.argsort(pair.coop_radii, axis=None, kind="stable")  # flat (anchor, q)
    radii = pair.coop_radii.ravel()[order]
    ego_radii = pair.ego_radii[rows]  # [row, p]
    lo = np.searchsorted(radii, ego_radii - bound)
    count = np.searchsorted(radii, ego_radii + bound, side="right") - lo
    upto = np.cumsum(count.sum(axis=1))  # window cells of rows[:r + 1]
    none = np.empty(0, np.intp)
    near = [(none, none, none, none, np.empty(0))]  # so a frame without rows concatenates
    start = 0
    while start < len(rows):
        # the chunk ends at the row where its window cells reach the budget
        done = upto[start - 1] if start else 0
        stop = min(int(np.searchsorted(upto, done + _CANDIDATE_BUDGET)) + 1, len(rows))
        chunk = rows[start:stop]
        cos, sin = pair.cos[chunk][..., None], pair.sin[chunk][..., None]
        rx = (cos * v[..., 0] - sin * v[..., 1]).ravel()  # [row, anchor, q]
        ry = (sin * v[..., 0] + cos * v[..., 1]).ravel()
        u = (pair.ego.centers - pair.ego.centers[chunk][:, None]).reshape(-1, 3)  # [row, p]
        width = count[start:stop].ravel()
        rp = np.repeat(np.arange(len(width)), width)  # (row, p) of each window cell
        aq = order[np.arange(len(rp)) + np.repeat(lo[start:stop].ravel() - (np.cumsum(width) - width), width)]
        at = rp // n * (m * m) + aq
        dz2 = np.square(u[rp, 2] - v[..., 2].take(aq))
        # dc2 axes: [variant, window cell]
        dc2 = np.square(u[rp, 0] - signs * rx.take(at)) + np.square(u[rp, 1] - signs * ry.take(at)) + dz2
        f, k = np.nonzero(dc2 <= bound2)
        variant = (start + rp[k] // n) * len(signs) + f
        a, q = np.divmod(aq[k], m)
        p = rp[k] % n
        s = np.argsort(((variant * m + a) * n + p) * m + q)  # into (cell, p, q) order
        near.append((variant[s], a[s], p[s], q[s], dc2[f[s], k[s]]))
        start = stop
    variant, a, p, q, c2 = map(np.concatenate, zip(*near))
    cell, i = variant * m + a, rows[variant // len(signs)]
    half = pair.sin_half[p, q] * pair.cos_half[i, a] - pair.cos_half[p, q] * pair.sin_half[i, a]
    da2 = pair.same[p, q] + pair.cross[p, q] * np.square(half)
    conf, mean, kept = _pair_up(cell, p, q, c2, da2, len(rows) * len(signs) * m, (n, m), params)
    conf, mean = conf.reshape(len(rows), len(signs), m), mean.reshape(len(rows), len(signs), m)
    flip = conf[:, -1] > conf[:, 0]
    for r, b in np.argwhere((conf[:, -1] == conf[:, 0]) & (mean[:, -1] < mean[:, 0])):
        flip[r, b] = _rank_key(conf[r, -1, b], mean[r, -1, b]) < _rank_key(conf[r, 0, b], mean[r, 0, b])
    return conf, mean, flip, kept


def _pair_scores(frame, anchors) -> list[PairScore]:
    """The scores of anchors [(r, j), ...], read from the _anchor_pass
    frame: the winning variant of coop index j in the pass's row r."""
    conf, mean, flip, kept = frame
    r, j = np.array(anchors, dtype=np.intp).reshape(-1, 2).T
    w = flip[r, j]
    cells = (r * conf.shape[1] + w) * conf.shape[2] + j
    return _scores((conf.ravel(), mean.ravel(), kept), cells, w)


def odist(ego: Scene, coop: Scene, i: int, j: int, params: ODistParams = ODistParams()) -> PairScore:
    """Score anchor pair (ego[i], coop[j]) by whole-scene alignment
    consistency; the valid pairs come in (ego, coop) index order. Raises
    DegenerateCorners for a needle anchor, whose corners fix no rotation."""
    pair = _ScenePair(ego, coop)
    if pair.needles[i, j]:  # IndexError for an index out of range
        raise DegenerateCorners(f"anchor ({i}, {j}): rank-deficient cross-covariance")
    frame = _anchor_pass(pair, [i % len(ego)], params)  # i, j < 0: from the end
    return _pair_scores(frame, [(0, j % len(coop))])[0]


def alignment_score(
    ego: Scene, coop: Scene, transform: RigidTransform, params: ODistParams = ODistParams()
) -> PairScore:
    """Scene-consistency score of a given transform (no anchor search).

    Pairs are formed exactly as in odist (_pair_up): greedy one-to-one by
    ascending distance within tau, listed in (ego, coop) index order.
    """
    R, t = transform.rotation[None], transform.translation[None]
    up = _score_motions(_SceneArrays(ego), _SceneArrays(coop), R, t, [False], params)
    return _scores(up, np.zeros(1, np.intp), [False])[0]


def _score_anchors(pair: _ScenePair, params: ODistParams):
    """The affinity matrix (each anchor's confidence and winning flip flag,
    zero for needle anchors) and the _anchor_pass over every ego index
    that filled it: the one scoring pass over the anchors."""
    frame = _anchor_pass(pair, range(len(pair.needles)), params)
    conf, _, flip, _ = frame
    entries = np.where(pair.needles, 0.0, conf.max(axis=1))
    return AffinityMatrix(entries, flip & ~pair.needles), frame


def build_affinity(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> AffinityMatrix:
    """Score every anchor pair; entry (i, j) is its confidence."""
    return _score_anchors(_ScenePair(ego, coop), params)[0]


def solve_assignment(affinity: AffinityMatrix | np.ndarray) -> MatchSet:
    """One-to-one assignment maximizing total affinity: one Hungarian
    solve (scipy's linear_sum_assignment).

    The total is optimal, and zero entries are never selected (an
    unsupported pairing is worse than no pairing; dropping them from the
    solver's pairs leaves the total unchanged). Matches come in ascending
    ego index. Among assignments of equal total, the installed scipy's
    solver decides which one is returned.
    """
    if not isinstance(affinity, AffinityMatrix):
        affinity = AffinityMatrix(affinity)
    entries, flips = affinity.entries, affinity.coop_flip
    rows, cols = linear_sum_assignment(entries, maximize=True)  # rows ascending
    return MatchSet(
        tuple(
            Match(i, j, float(entries[i, j]), bool(flips[i, j]))
            for i, j in zip(rows.tolist(), cols.tolist())
            if entries[i, j] > 0.0
        )
    )


def _key(score: PairScore) -> tuple:
    """A valid set as refinement caches it: its (ego, coop) pairs and flag."""
    return tuple((i, j) for i, j, _ in score.valid_pairs), score.coop_flipped


def _fit(ego: _SceneArrays, coop: _SceneArrays, keys: list[tuple]):
    """weighted_kabsch of the build_feature_clouds of each valid set key =
    (pairs, flipped) with unit weights, in closed form, all keys at once:
    the stacked rotations R, translations t and rms residuals. Centered
    corners are S A^T / 2 (see _distance), so a set's corner
    cross-covariance is 8 sum de dc^T + 2 sum A_e A_c^T, de and dc the
    centers minus their means, and a pair's squared corner residuals sum
    to 8 |r|^2 + 2 |R A_c - A_e|_F^2, r its center residual. The sums run
    per set, so a set's fit does not depend on the others fitted with it.
    """
    sizes = np.array([len(pairs) for pairs, _ in keys])
    rows, cols = np.array([ij for pairs, _ in keys for ij in pairs]).T
    seg = np.repeat(np.arange(len(keys)), sizes)
    starts = np.cumsum(sizes) - sizes
    flipped = np.repeat([f for _, f in keys], sizes)[:, None, None]
    e, c, axes_e, axes_c = ego.centers[rows], coop.centers[cols], ego.axes[rows], coop.axes[cols]
    axes_c = np.where(flipped, axes_c * _FLIP_AXES, axes_c)
    e_bar = np.add.reduceat(e, starts) / sizes[:, None]
    c_bar = np.add.reduceat(c, starts) / sizes[:, None]
    de, dc = e - e_bar[seg], c - c_bar[seg]
    H = 8.0 * np.add.reduceat(de[:, :, None] * dc[:, None, :], starts)
    H += 2.0 * np.add.reduceat(axes_e @ np.swapaxes(axes_c, 1, 2), starts)
    R = nearest_rotation(H)
    t = e_bar - np.einsum("kij,kj->ki", R, c_bar)
    r = np.einsum("kij,kj->ki", R[seg], c) + t[seg] - e
    da = R[seg] @ axes_c - axes_e
    squares = 8.0 * np.einsum("ki,ki->k", r, r) + 2.0 * np.einsum("kij,kij->k", da, da)
    rms = np.sqrt(np.bincount(seg, weights=squares, minlength=len(keys)) / (8 * sizes))
    return R, t, rms


def _refine(ego: _SceneArrays, coop: _SceneArrays, anchors: list[PairScore], params: ODistParams):
    """Refit every anchor's transform on its valid set (_fit) until the
    refit no longer scores better, all anchors in lockstep rounds. This
    ends: each kept refit strictly lowers _rank, and a refit depends only
    on the valid set it fits, so no valid set comes back. A one-pair valid
    set is the anchor itself and is left alone.

    Each round fits the valid sets of the anchors still improving that no
    earlier fit covered, all at once, and scores every new fit in one
    _score_motions. Returns the refined scores, in the order of anchors,
    and fits: each fitted key's (R, t, rms) and score. The anchors of a
    frame often reach the same valid set, and it is fitted once.
    """
    fits: dict[tuple, tuple] = {}
    scores = list(anchors)
    active = [k for k, score in enumerate(scores) if len(score.valid_pairs) >= 2]
    while active:
        keys = [_key(scores[k]) for k in active]
        new = list(dict.fromkeys(key for key in keys if key not in fits))
        if new:
            R, t, rms = _fit(ego, coop, new)
            flipped = [f for _, f in new]
            up = _score_motions(ego, coop, R, t, flipped, params)
            refits = _scores(up, np.arange(len(new)), flipped)
            for k, (key, score) in enumerate(zip(new, refits)):
                fits[key] = (R[k], t[k], rms[k]), score
        improving = []
        for k, key in zip(active, keys):
            refined = fits[key][1]
            if _rank(refined) < _rank(scores[k]):
                scores[k] = refined
                improving.append(k)
        active = improving
    return scores, fits


def _associate(ego: Scene, coop: Scene, params: ODistParams) -> tuple[MatchSet, RegistrationResult]:
    """associate's matches and their fit (_fit): the cached fit _refine
    stopped at, or the one fit of a one-pair valid set."""
    pair = _ScenePair(ego, coop)
    affinity, frame = _score_anchors(pair, params)
    assigned = solve_assignment(affinity)
    if len(assigned) == 0:
        raise NoCoVisibleObjects("no anchor pair supports a consistent scene alignment")
    anchors = _pair_scores(frame, [(a.ego_index, a.coop_index) for a in assigned])
    refined, fits = _refine(pair.ego, pair.coop, anchors, params)
    # assigned is in ascending ego index and min keeps the first of equals
    best = min(refined, key=_rank)
    key = _key(best)
    R, t, rms = fits[key][0] if key in fits else [x[0] for x in _fit(pair.ego, pair.coop, [key])]
    fit = RegistrationResult(RigidTransform(R, t), float(rms))
    return MatchSet(tuple(Match(i, j, best.confidence, best.coop_flipped) for i, j in key[0])), fit


def associate(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> MatchSet:
    """Full association: the refined consensus of the best assigned anchor.

    The affinity matrix and the optimal assignment choose the candidate
    anchors by their unrefined confidences. Each assigned anchor's score,
    read from the pass that filled its affinity entry (_pair_scores), is
    refined to a fixed point (see _refine); the one with the highest
    refined confidence, then the least mean distance, then the lowest ego
    index wins. Its valid set, sorted by ego index, is returned; every
    match carries the winner's confidence and heading-flip flag.
    """
    return _associate(ego, coop, params)[0]


def top_k_by_volume(scene: Scene, k: int | float | None) -> Scene:
    """Keep the k largest boxes by volume, preserving scene order.

    Pass None (or infinity) to keep everything. Ties at the volume cutoff
    are resolved toward the earlier index. Any other k must be an integral
    number >= 1: an integer that is not a bool, or an integral float.
    """
    if k is None or k == math.inf:
        return scene
    integral = isinstance(k, (int, np.integer)) and not isinstance(k, bool)
    if not (integral or isinstance(k, float) and k.is_integer()) or k < 1:
        raise ValueError(f"k must be None, inf or an integer >= 1, got {k!r}")
    k = int(k)
    if k >= len(scene):
        return scene
    ranked = sorted(range(len(scene)), key=lambda i: (-scene[i].volume, i))
    keep = sorted(ranked[:k])
    return Scene(tuple(scene[i] for i in keep), scene.agent_id, scene.frame_id)
