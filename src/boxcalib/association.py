"""Scene-level object association between two agents' detections.

No initial relative pose is assumed. Every (ego box, coop box) pair is a
candidate anchor: the coop scene is moved by the rotation by their yaw
difference that takes the coop box's center onto the ego box's (the
Kabsch fit of the two boxes' corner matrices), and the pair is scored by
how well the rest of the scene lines up:

* confidence: how many box pairs fall within tau of each other under a
  greedy one-to-one pairing by ascending distance, and
* mean_distance: the mean pair distance over that valid set.

The anchor pass scores every anchor, a needle's too, and refinement
starts from its best five nonzero anchors by unrefined score (_REFINED,
_seeds), ties to the lower (ego, coop) index. Each is refined on its
valid set by closed-form fits of the pairs' corners by a yaw and a
translation (_fit) to a fixed point, and the final matches are the
refined consensus (valid set) of the best refined anchor, as in
LO-RANSAC: pairs that agree only with themselves never join it, and the
local step runs only on hypotheses that can still win. Each distinct
valid set is fit once, and the winner's fit is the calibration's
transform; the one degeneracy rule is _fit's, that the winner's valid
set fixes a yaw. The paper's affinity matrix (build_affinity) and its
optimal-transport stage, one Hungarian solve of it (solve_assignment),
stay public but are off this path: the assignment only chose which
anchors to refine, and the best five anchors may share a box, which
one-to-one assignment would forbid. solve_assignment is the one user of
scipy here, imported when first called.

Every score is of rigid motions x -> e* + R (x - c*), and one pair
arithmetic serves them all: the squared center difference c2 = |(e_p -
e*) - R (c_q - c*)|^2 (_c2), the squared scaled-axes difference da2 =
|A_e - R A_c|_F^2 (_da2), and one tail (_pair_up) over any number of
cells. _da2 reads one table per scene (_SceneArrays.packed): the five
nonzero entries of each box's scaled axes, A00, A01, A10, A11 and A22,
one contiguous row each, a reversed coop heading being one more column. A
stored transform's R (it may tilt) and a refit's enter whole; an anchor's
rotation about z, and a fit's in its rms, enter as their xy block, so no
zero entry is gathered or multiplied. The tail is the distance
(_distance), the tau gate, the greedy one-to-one pairing (_greedy) and
each cell's valid-set size and mean, its valid pairs kept as index
arrays in (ego, coop) order; a fit's rms sums 8 c2 + 2 da2 over its
pairs. Two kernels generate the pairs, each run once per frame or
refinement round, never per anchor. The anchor pass (_anchor_pass) builds
the frame's tables and scores every anchor, each about (e_i, c_j), on the
pairs that a grid of the offsets in each box's heading frame puts within
reach (a fixed-radius join), in one loop over chunks of rows. The
transform kernel (_score_motions) scores given motions, one cell each
under one coop heading: odist's two (an anchor's, bit for bit the
pass's), and a transform's two about (t, 0): alignment_score's, the
health check's and each refit's (_refine). Refinement keeps every valid
set as index arrays, from the pass's to the winner's; PairScores
(_scores) are built only for what leaves: odist's, alignment_score's and
the winner's refit under both headings, the calibration's health on
scenes kept whole. One rule ranks scores (_rank, _rank_key, or its mean
term over arrays): it picks the heading of each anchor and of each
scored transform, chooses the anchors refinement starts from, and
decides refinement's steps. The kernels take the scenes' arrays
(_SceneArrays), which a scene builds once, on first use (Scene._arrays),
and every entry point reads.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import _FLIP_AXES, RANK_RATIO_MIN, DegenerateGeometry, DetectionBox, RigidTransform, Scene, _SceneArrays

TAU_MAX = 3.0  # upper bound of the pairing gate, meters

# Window cells (one anchor's heading, p and q) per chunk of _anchor_pass's
# rows: about 105 bytes of temporaries each (200 when _da2 gathered full 3x3
# entries), by the tracemalloc peak's slope from 2^11 to 2^12 cells on
# Dense32(501) frames 0-15, which hold about 7,300 cells each. There 2^13
# ran as fast as 2^14 (one chunk a frame), and 9 % and 24 % faster than
# 2^12 and 2^11 (median ratios over 30 interleaved passes), at a pass peak
# of 1.5 MB against 1.0 and 0.8 MB. One chunk for a whole 80 x 64 frame
# traced 17 MB, 2^13 of them 3.6 MB (5.2 MB holding the tables in the tail).
_CANDIDATE_BUDGET = 1 << 13
_ALLOWANCE = 1e-6  # the grid windows' rounding allowance per meter (_anchor_pass)

# Refinement starts from the _REFINED best anchors by unrefined _rank
# (_seeds): LO-RANSAC (Chum, Matas & Kittler, DAGM 2003) runs its local
# step only on hypotheses that can still win. With the seeds taken from
# the assigned anchors, against refining every assigned anchor, on
# Dense32(501) frames 0-63 the valid sets fitted per frame went 22.1 ->
# 2.9 in 2.08 -> 1.19 fitting rounds at the same match precision and
# recall (BENCH_23.json); over 240 Sweep15 trials at seeds 501-503 the
# results within 1 m went 115/117/118 -> 113/117/120 and the pooled recall
# fell by at most 0.75 %.
_REFINED = 5


class NoCoVisibleObjects(RuntimeError):
    """No box pair supports a consistent alignment of the two scenes."""


@dataclass(frozen=True)
class ODistParams:
    """Scoring parameters.

    tau gates the per-pair distance when forming the valid set. alpha and beta
    weight the center-distance and corner-distance terms of box_distance;
    the default beta = 1/sqrt(8) puts the 8-corner Frobenius norm on a
    per-corner scale. Every anchor and every scored transform keeps the
    better of the coop heading as given and reversed (yaw + pi), which
    recovers detectors that disagree about the front of a box.
    """

    tau: float = 3.0
    alpha: float = 1.0
    beta: float = math.sqrt(0.125)

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
    where the anchor pairs nothing within tau. coop_flip marks anchors
    whose winning variant used the reversed coop heading."""

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
    one_a, one_b = Scene((a,))._arrays, Scene((b,))._arrays
    c2 = _c2(one_a.centers.T, one_b.centers.T)
    da2 = _da2(one_a.packed[:, :1], np.eye(3)[..., None], one_b.packed[:, :1])
    return float(_distance(c2, da2, params)[0])


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
    da2; shape is (ego boxes, coop boxes). Returns (conf, mean, kept): each
    cell's valid-set size and mean distance (inf if empty), and the valid
    pairs as arrays (cell, p, q, d) in candidate order. The valid set is the
    pairs within tau that _greedy keeps, run only on a cell whose row or
    column holds two pairs within tau, so work follows the candidates."""
    n, m = shape
    d = _distance(c2, da2, params)
    inside = d <= params.tau
    cell, p, q, d = cell[inside], p[inside], q[inside], d[inside]
    rows = cell * n + p  # ascending: each cell's pairs come in (p, q) order
    cols = np.sort(cell * m + q)
    crowded = np.zeros(cells, dtype=bool)
    crowded[rows[1:][rows[1:] == rows[:-1]] // n] = crowded[cols[1:][cols[1:] == cols[:-1]] // m] = True
    keep = np.ones(len(d), dtype=bool)
    for c in np.flatnonzero(crowded).tolist():
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


def _rotated(R, v):
    """R v from R's entries R[r, c] and v's components v[c], arrays that
    broadcast together: row r sums R[r, c] v[c] over c in order."""
    w = R[:, 0] * v[0]
    for c in range(1, len(v)):
        w += R[:, c] * v[c]
    return w


def _c2(u, w):
    """A pair's squared center difference under x -> e* + R (x - c*), from
    the components of u = e_p - e* and w = R (c_q - c*), summed x, y, z."""
    c2 = u[0] - w[0]
    c2 *= c2
    for x in (1, 2):
        d = u[x] - w[x]
        c2 += np.square(d, out=d)
    return c2


def _da2(e, R, c):
    """Pairs' squared axes difference |A_e - R A_c|_F^2 from their columns
    e and c of the axes tables (_SceneArrays.packed: A00, A01, A10, A11,
    A22) and R's entries R[r, c], each an array over the pairs: a general
    rotation's three rows, or a rotation about z's xy block alone, [[cos,
    -sin], [sin, cos]]. An axes matrix has no z entry in columns 0 and 1
    and column 2 is (0, 0, height), so row r < 2 of the difference is (e_r0
    - (R A_c)_r0, e_r1 - (R A_c)_r1, -R_r2 A22) and row 2 is (-(R A_c)_20,
    -(R A_c)_21, e_22 - R_22 A22). Each row sums its squares in column
    order and the rows add in order. A rotation about z has z row and
    column (0, 0, 1): its terms off the xy block and the height add exact
    zeros to those sums, so skipping them changes no bit."""
    x, y = R[:, 0] * c[0], R[:, 0] * c[1]
    x += R[:, 1] * c[2]
    y += R[:, 1] * c[3]  # (R A_c)[r, :2] for R's rows r
    np.subtract(e[0:4:2], x[:2], out=x[:2])  # A_e's column 0 in rows 0 and 1: A00, A10
    np.subtract(e[1:4:2], y[:2], out=y[:2])  # and its column 1: A01, A11
    x *= x
    x += np.square(y, out=y)
    if len(R) == 2:  # a rotation about z: row 2 is (0, 0, e_22 - A22)
        h = e[4] - c[4]
        return x[0] + x[1] + np.square(h, out=h)
    h = R[:, 2] * c[4]  # (R A_c)[r, 2]
    np.subtract(e[4], h[2], out=h[2])
    x += np.square(h, out=h)
    return x[0] + x[1] + x[2]


def _score_motions(ego: _SceneArrays, coop: _SceneArrays, R, e_star, c_star, flipped, params: ODistParams):
    """Score the coop scene moved by each motion x -> e*[k] + R[k] (x -
    c*[k]), k < K, under the coop headings as given, or reversed where
    flipped[k] (the coop axes in packed column m + q): _pair_up's (conf,
    mean, kept) for cells k, which _scores reads as PairScores and _refine
    as index arrays. Only pairs within reach (see _anchor_pass) take the
    axes term."""
    flipped = np.asarray(flipped, dtype=bool)
    K, n, m = len(flipped), len(ego.centers), len(coop.centers)
    u = ego.centers.T[:, None, :, None] - e_star.T[:, :, None, None]  # [x, k, p, 1]
    v = coop.centers.T[:, None, :] - c_star.T[:, :, None]  # [x, k, q]
    R = R.transpose(1, 2, 0)  # [r, c, k]
    c2 = _c2(u, _rotated(R[..., None], v)[:, :, None, :])  # [k, p, q]
    reach = _reach(params)
    k, p, q = np.nonzero(c2 <= reach * reach * (1.0 + 1e-9))
    axes_e, axes_c = ego.packed.take(p, axis=1), coop.packed.take(q + m * flipped[k], axis=1)
    da2 = _da2(axes_e, R.take(k, axis=-1), axes_c)
    return _pair_up(k, p, q, c2[k, p, q], da2, K, (n, m), params)


def _rank_key(confidence: float, mean_distance: float) -> tuple[float, float]:
    """Sort key of scores, best first: higher confidence, then lower mean
    distance in nanometres, rounded half to even (a non-finite mean kept).
    Means in one rounding class tie, so callers' tie rules (unflipped
    variant first, lower ego index first) decide, not floating-point noise.
    Over arrays the mean term is np.rint(mean * 1e9), equal to it on every
    float (_anchor_pass, _seeds)."""
    nm = float(mean_distance) * 1e9
    return -confidence, round(nm) if math.isfinite(nm) else nm


def _rank(score: PairScore) -> tuple[float, float]:
    return _rank_key(score.confidence, score.mean_distance)


def _anchor_pass(ego: _SceneArrays, coop: _SceneArrays, params: ODistParams):
    """Score every anchor (i, j) of the frame under both heading variants,
    the coop heading as given and reversed, in one pass. Anchor (i, j)'s
    motion pivots on (e_i, c_j) with R = rot_z(phi[i, j]), or rot_z(phi[i,
    j] + pi), xy rows negated, in the flipped variant; its pairs take _c2
    and _da2 as in _score_motions, bit for bit, since rot_z's zero and one
    entries add exactly. Returns (conf, mean, flip, kept): _pair_up's
    results for cells (2 i + variant) m + j, conf and mean shaped (n, 2,
    m), kept in (cell, p, q) order, and flip (n, m), the anchors whose
    flipped variant wins by _rank_key (ties unflipped). An anchor's
    confidence is conf.max(axis=1), its winning variant's.

    A pair comes within tau only if its center difference is within reach
    = tau / (alpha + beta sqrt(8)). As rot_z(phi) = rot_z(yaw_i) rot_z(-
    yaw_j) keeps lengths, |U_p - R V_q|_xy = |P - s Q| for U_p = e_p - e_i,
    V_q = c_q - c_j, P = rot_z(-yaw_i) U_p, Q = rot_z(-yaw_j) V_q (offsets
    in the boxes' heading frames) and s = -1 in the flipped variant: the
    anchor drops out, and the candidates are a fixed-radius join of the n^2
    points P and the 2 m^2 points s Q. On a grid of cell size bound = reach
    (1 + 1e-9) + allowance, each P takes three windows of the s Q sorted by
    cell key, one per column of its 3 x 3 cells. The allowance, _ALLOWANCE
    (1 + the largest |center coordinate|), exceeds the rounding of P and Q,
    computed otherwise than the exact test c2 <= reach^2 (1 + 1e-9), about a
    billionfold, so the windows drop only what the test would. The test
    turns s v: R (s v) = s R v bit for bit. Offsets are at most 2 sqrt(2)
    largest and bound >= 1e-6 (1 + largest): under 5.7e6 cells per axis and
    keys below 2^46, exact in float64 and intp. Rows run in chunks of about
    _CANDIDATE_BUDGET window cells, where the candidates within reach take
    _da2 of rot_z(phi)'s xy block, [[cos, -sin], [sin, cos]], and the given
    coop axes under both headings: the flipped variant's rot_z(phi + pi) and
    reversed axes negate R's xy rows and A_c's xy columns, and (-r)(-a) = r
    a bit for bit.
    """
    n, m, V = len(ego.centers), len(coop.centers), 2  # V: the heading variants
    phi = ego.yaws[:, None] - coop.yaws[None, :]
    cos, sin = np.cos(phi), np.sin(phi)
    largest = np.max(np.abs(np.concatenate([ego.centers, coop.centers])), initial=0.0)
    u = ego.centers.T[:, None, :] - ego.centers.T[:, :, None]  # [x, i, p]
    v = coop.centers.T[:, None, None, :] - coop.centers.T[:, :, None, None]  # [x, anchor, 1, q]
    v = (v * np.array([np.ones(3), _FLIP_AXES]).T[:, None, :, None]).reshape(3, m, V * m)  # s v_xy
    reach = _reach(params)
    bound, bound2 = reach * (1.0 + 1e-9) + _ALLOWANCE * (1.0 + largest), reach * reach * (1.0 + 1e-9)
    # the coop points s Q, then the ego points P: x + iy turned by rot_z(-yaw) of their boxes
    z = [(np.exp(-1j * y)[:, None] * (d[0] + 1j * d[1])).ravel() for y, d in [(coop.yaws, v), (ego.yaws, u)]]
    grid = np.floor(np.concatenate(z).view(float).reshape(-1, 2).T / bound, order="C")  # [x, point]
    low = np.min(grid, axis=1, initial=0.0) - 1.0  # so a window's keys never wrap to the next column
    stride = int(np.max(grid[1], initial=0.0) - low[1]) + 2
    keys = ((grid[0] - low[0]) * stride + (grid[1] - low[1])).astype(np.intp)
    order, by_key = np.argsort(keys[: V * m * m]), np.argsort(keys[V * m * m :])  # of s Q and of P
    cells, queries = keys[order], keys[V * m * m :][by_key]  # by cell key: sorted queries search faster
    del z, grid, keys  # the rows need only the sorted cells and their windows
    shifts = np.add.outer([-1, 2], [-stride, 0, stride]).reshape(6, 1)  # each column's first and end key
    found = np.searchsorted(cells, queries + shifts)[:, np.argsort(by_key)]  # back in (i, p) order
    lo, count = found[:3].T, (found[3:] - found[:3]).T  # [(i, p), column]
    upto = np.concatenate([[0], np.cumsum(count.reshape(n, 3 * n).sum(axis=1))])  # window cells before row i
    near = [(*[np.empty(0, np.intp)] * 3, np.empty(0), np.empty(0))]  # so an empty frame concatenates
    start = 0
    while start < n:
        # the chunk ends at the row where its window cells reach the budget
        stop = min(int(np.searchsorted(upto, upto[start] + _CANDIDATE_BUDGET)), n)
        width = count[start * n : stop * n].ravel()
        query = np.repeat(np.arange(start * n, stop * n).repeat(3), width)  # (i, p) of each window cell
        first = lo[start * n : stop * n].ravel() - np.cumsum(width) + width
        cell = order[np.repeat(first, width) + np.arange(len(query))]  # and its (anchor, variant, q)
        ia = query // n * m + cell // (V * m)  # (i, anchor)
        c, s = cos.take(ia), sin.take(ia)
        vx, vy, vz = v.reshape(3, -1).take(cell, axis=1)
        c2 = _c2(u.reshape(3, -1).take(query, axis=1), (c * vx - s * vy, s * vx + c * vy, vz))
        k = np.flatnonzero(c2 <= bound2)
        (i, a), (f, q), p = np.divmod(ia[k], m), np.divmod(cell[k] % (V * m), m), query[k] % n
        c, s = c[k], s[k]
        da2 = _da2(ego.packed.take(p, axis=1), np.array([[c, -s], [s, c]]), coop.packed.take(q, axis=1))
        cell = (i * V + f) * m + a
        by = np.argsort((cell * n + p) * m + q)  # into (cell, p, q) order
        near.append((cell[by], p[by], q[by], c2[k[by]], da2[by]))
        start = stop
    # The last chunk's temporaries live on to the return. That does not
    # keep the heap's top pages: over Dense32(501) frames 0-15, eight
    # passes per process, a 32 x 32 call faulted 195-243 pages back in on
    # every pass in 12 of 15 processes (0-2 from some pass on in the other
    # 3), and a copy that freed each chunk's temporaries as the chunk ended
    # faulted 220-236 on every pass in 12 of 12, at per-call medians in the
    # same range.
    del u, v, order, cells, lo, count  # the grid tables, before the tail
    near = [np.concatenate(column) for column in zip(*near)]  # and the chunk list
    conf, mean, kept = _pair_up(*near, n * V * m, (n, m), params)
    conf, mean = conf.reshape(n, V, m), mean.reshape(n, V, m)
    nm = np.rint(mean * 1e9)  # _rank_key's mean term
    flip = (conf[:, 1] > conf[:, 0]) | ((conf[:, 1] == conf[:, 0]) & (nm[:, 1] < nm[:, 0]))
    return conf, mean, flip, kept


def odist(ego: Scene, coop: Scene, i: int, j: int, params: ODistParams = ODistParams()) -> PairScore:
    """Score anchor pair (ego[i], coop[j]) by whole-scene alignment
    consistency: the better by _rank of its motions (see _anchor_pass) under
    the coop heading as given and reversed, the given one winning ties; the
    valid pairs come in (ego, coop) index order. A needle anchor is scored
    like any other. Raises IndexError for an index out of range (< 0: from
    the end)."""
    e, c = ego._arrays, coop._arrays
    phi = e.yaws[i] - c.yaws[j]
    cos, sin = np.cos(phi), np.sin(phi)
    R = np.array([[cos, -sin, 0.0], [sin, cos, 0.0], [0.0, 0.0, 1.0]])
    R = np.array([R, R * _FLIP_AXES[:, None]])  # rot_z(phi + pi) negates the xy rows
    up = _score_motions(e, c, R, e.centers[[i, i]], c.centers[[j, j]], [False, True], params)
    return min(_scores(up, np.arange(2), [False, True]), key=_rank)


def alignment_score(
    ego: Scene, coop: Scene, transform: RigidTransform, params: ODistParams = ODistParams()
) -> PairScore:
    """Scene-consistency score of a given transform (no anchor search),
    paired as in odist (_pair_up), under the coop headings as given and
    reversed (the motion pivots on (t, 0), as refinement scores its refits):
    the better by _rank, the given headings winning ties."""
    R, t = np.array([transform.rotation] * 2), np.array([transform.translation] * 2)
    up = _score_motions(ego._arrays, coop._arrays, R, t, np.zeros((2, 3)), [False, True], params)
    return min(_scores(up, np.arange(2), [False, True]), key=_rank)


def build_affinity(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> AffinityMatrix:
    """Score every anchor pair (_anchor_pass); entry (i, j) is its
    confidence, and coop_flip its winning variant."""
    conf, _, flip, _ = _anchor_pass(ego._arrays, coop._arrays, params)
    return AffinityMatrix(conf.max(axis=1), flip)


def solve_assignment(affinity: AffinityMatrix | np.ndarray) -> MatchSet:
    """One-to-one assignment maximizing total affinity: one Hungarian
    solve (scipy's linear_sum_assignment), the paper's optimal-transport
    stage. associate does not call it (see _seeds); scipy is imported on
    the first call, so calibration loads no scipy module.

    The total is optimal, and zero entries are never selected (an
    unsupported pairing is worse than no pairing; dropping them from the
    solver's pairs leaves the total unchanged). Matches come in ascending
    ego index. Among assignments of equal total, the installed scipy's
    solver decides which one is returned.
    """
    from scipy.optimize import linear_sum_assignment

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


def _fit(ego: _SceneArrays, coop: _SceneArrays, rows, cols, sizes, flips):
    """The least-squares fit of the pairs' corners by a yaw rotation plus a
    translation, the only motion that maps boxes onto boxes, for each valid
    set with unit weights, all sets at once: set k is the next sizes[k]
    pairs (ego rows, coop cols), under the coop heading reversed if
    flips[k]. Returns the stacked R = rot_z(theta), t = e_bar - R c_bar for
    the centroids e_bar and c_bar, and the rms residuals. Centered corners
    are S A^T / 2 (_distance), so a set's corner cross-covariance is H = 8
    sum de dc^T + 2 sum A_e A_c^T (de, dc: centers minus means), and theta
    = atan2(b, a) for a + ib = H00 + H11 + i (H10 - H01) (Umeyama, IEEE
    TPAMI 1991, in 2-D): as x + iy, 8 conj(dc) de summed over the xy
    offsets plus 2 conj(A_c col) A_e col over the axes' xy columns (packed
    rows 0, 2 and 1, 3). A pair's squared corner residuals sum to 8 c2 + 2
    da2 (_c2, _da2 of R's xy block). Also returns fixed, whether each set
    fixes a yaw: it does not if a + ib is not finite or |a + ib| <=
    RANK_RATIO_MIN sum (8 |de| |dc| + 2 |A_e|_F |A_c|_F), its Cauchy-Schwarz
    bound (norms as np.linalg.norm computes them), and then its (R, t, rms)
    mean nothing. This is the calibration's one degeneracy rule: a level
    needle's axes fix a yaw, a vertical needle's do not."""
    seg = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    heads = cols + len(coop.centers) * np.repeat(flips, sizes)
    e, c = ego.centers[rows], coop.centers[cols]
    axes_e, axes_c = ego.packed.take(rows, axis=1), coop.packed.take(heads, axis=1)
    e_bar, c_bar = (np.add.reduceat(x, starts) / sizes[:, None] for x in (e, c))
    de, dc = e - e_bar[seg], c - c_bar[seg]
    z = 8.0 * (dc[:, 0] - 1j * dc[:, 1]) * (de[:, 0] + 1j * de[:, 1])
    z += 2.0 * (axes_c[0] - 1j * axes_c[2]) * (axes_e[0] + 1j * axes_e[2])
    z += 2.0 * (axes_c[1] - 1j * axes_c[3]) * (axes_e[1] + 1j * axes_e[3])
    z = np.add.reduceat(z, starts)
    norms = 8.0 * np.sqrt(np.add.reduce(de * de, axis=1)) * np.sqrt(np.add.reduce(dc * dc, axis=1))
    norms += 2.0 * np.sqrt(np.add.reduce(axes_e * axes_e, axis=0)) * np.sqrt(np.add.reduce(axes_c * axes_c, axis=0))
    fixed = np.isfinite(z) & (np.abs(z) > RANK_RATIO_MIN * np.add.reduceat(norms, starts))
    theta = np.arctan2(z.imag, z.real)
    cos, sin = np.cos(theta), np.sin(theta)
    R = np.zeros((len(sizes), 3, 3))
    R[:, 0, 0], R[:, 0, 1], R[:, 1, 0], R[:, 1, 1], R[:, 2, 2] = cos, -sin, sin, cos, 1.0
    t = e_bar - np.einsum("kij,kj->ki", R, c_bar)
    xy = R[:, :2, :2].transpose(1, 2, 0).take(seg, axis=-1)  # [[cos, -sin], [sin, cos]] per pair
    c2 = _c2(de.T, (*_rotated(xy, dc.T[:2]), dc[:, 2]))
    da2 = _da2(axes_e, xy, axes_c)
    rms = np.sqrt(np.bincount(seg, weights=8.0 * c2 + 2.0 * da2, minlength=len(sizes)) / (8 * sizes))
    return R, t, rms, fixed


def _refine(ego: _SceneArrays, coop: _SceneArrays, up, cells, flips, params: ODistParams):
    """Refit each seed's transform on its valid set (_fit) until the refit
    no longer scores better, all seeds in lockstep rounds; seed k is cell
    cells[k] of the _pair_up result up, under coop heading flips[k]. This
    ends: each kept refit strictly lowers _rank_key, and a refit depends
    only on the valid set it fits. The refit of a set that fixes no yaw is
    never kept. Each round fits the new valid sets of the still improving
    seeds at once and scores refit k's (R, t) about (t, 0) in one
    _score_motions, as alignment_score scores (R, t): cells 2 k and 2 k +
    1, the coop headings as given and reversed. A seed is (_rank_key,
    confidence, mean, flipped, p, q, d, key), its pairs views of the kept
    arrays and key the bytes of p and q with flipped; a refit is read under
    its set's own heading, its pairs only if it is kept. Returns the refined
    seeds in the given order; fits, each fitted key's (round, index); and
    rounds, each round's _fit and _score_motions results and its fixed,
    conf, mean and kept-pair ends as lists."""

    def read(kept, size, mean, end, f):  # the seed of a cell whose size kept pairs end at end
        _, p, q, d = kept
        p, q, d = p[end - size : end], q[end - size : end], d[end - size : end]
        return _rank_key(float(size), mean), float(size), mean, f, p, q, d, (p.tobytes() + q.tobytes(), f)

    conf, mean, kept = up
    ends = np.searchsorted(kept[0], cells, side="right")  # kept is in cell order
    seeds = [read(kept, *cell) for cell in zip(conf[cells].tolist(), mean[cells].tolist(), ends.tolist(), flips)]
    fits, rounds, active = {}, [], list(range(len(seeds)))
    while active:
        new = {seeds[k][-1]: seeds[k] for k in active if seeds[k][-1] not in fits}  # first-seen order
        if new:
            sets = list(new.values())
            pairs = np.concatenate([s[4] for s in sets]), np.concatenate([s[5] for s in sets])
            fit = _fit(ego, coop, *pairs, np.array([len(s[4]) for s in sets]), np.array([s[3] for s in sets]))
            motions = fit[0].repeat(2, axis=0), fit[1].repeat(2, axis=0), np.zeros((2 * len(new), 3))
            conf, mean, _ = scored = _score_motions(ego, coop, *motions, [False, True] * len(new), params)
            fits.update((key, (len(rounds), k)) for k, key in enumerate(new))
            rounds.append((fit, scored, *(x.tolist() for x in (fit[3], conf, mean, np.cumsum(conf)))))
        improving = []
        for k in active:
            r, x = fits[seeds[k][-1]]
            _, (_, _, kept), fixed, conf, mean, ends = rounds[r]
            c = 2 * x + seeds[k][3]  # the refit's cell under its set's heading
            if fixed[x] and _rank_key(float(conf[c]), mean[c]) < seeds[k][0]:
                seeds[k] = read(kept, conf[c], mean[c], ends[c], seeds[k][3])
                improving.append(k)
        active = improving
    return seeds, fits, rounds


def _seeds(conf: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The anchors refinement starts from, arrays i and j in (ego, coop)
    order: the first _REFINED of a stable sort by _rank_key of every nonzero
    anchor (i, j), of confidence conf[i, j] and mean distance mean[i, j] (its
    winning variant's), taken in (ego, coop) order: ties to the lower index."""
    i, j = np.nonzero(conf)
    best = np.sort(np.lexsort((np.rint(mean[i, j] * 1e9), -conf[i, j]))[:_REFINED])
    return i[best], j[best]


def _associate(ego: _SceneArrays, coop: _SceneArrays, params: ODistParams):
    """associate's matches, their fit's transform and rms (_fit), the fit
    _refine stopped at; the fit's alignment_score on these arrays, read from
    its round; the seconds of the anchor pass and of the rest; and the
    refinement rounds and the valid sets fitted. Raises DegenerateGeometry
    if the winner's valid set fixes no yaw, whatever the other seeds' do."""
    start = time.perf_counter()
    conf, mean, flip, kept = _anchor_pass(ego, coop, params)
    scored = time.perf_counter()
    i, j = _seeds(conf.max(axis=1), np.where(flip, mean[:, 1], mean[:, 0]))
    if not len(i):
        raise NoCoVisibleObjects("no anchor pair supports a consistent scene alignment")
    flips = flip[i, j]  # an anchor's pass score is in cell (i, flip[i, j], j)
    cells = (i * 2 + flips) * conf.shape[2] + j
    refined, fits, rounds = _refine(ego, coop, (conf.ravel(), mean.ravel(), kept), cells, flips.tolist(), params)
    # the seeds are in (ego, coop) order and min keeps the first of equals
    _, confidence, _, flipped, p, q, _, key = min(refined, key=lambda seed: seed[0])
    r, k = fits[key]
    (R, t, rms, fixed), up, *_ = rounds[r]
    pairs = tuple(zip(p.tolist(), q.tolist()))
    if not fixed[k]:
        raise DegenerateGeometry(f"the winning valid set {pairs} fixes no yaw")
    health = min(_scores(up, np.array([2 * k, 2 * k + 1]), [False, True]), key=_rank)  # as alignment_score's
    matches = MatchSet(tuple(Match(a, b, confidence, flipped) for a, b in pairs))
    seconds = scored - start, time.perf_counter() - scored
    return matches, RigidTransform(R[k], t[k]), float(rms[k]), health, seconds, (len(rounds), len(fits))


def associate(ego: Scene, coop: Scene, params: ODistParams = ODistParams()) -> MatchSet:
    """Full association: the refined consensus of the best refined anchor.

    Only the best five nonzero anchors of the anchor pass by unrefined
    score (_rank, ties to the lower (ego, coop) index; _seeds) are refined:
    each one's score, read from the pass's arrays, is refined to a fixed
    point (see _refine); the one with the highest refined confidence, then
    the least mean distance, then the lowest (ego, coop) index wins. Its
    valid set, sorted by ego index, is returned; every match carries the
    winner's confidence and heading-flip flag.
    """
    return _associate(ego._arrays, coop._arrays, params)[0]


def _top_rows(scene: Scene, k: int | None) -> np.ndarray | None:
    """top_k_by_volume's rows of the scene in scene order, or None when it
    keeps the scene whole. A box's volume is l * w * h over the dims
    columns, DetectionBox.volume bit for bit, and a stable sort of the
    negated volumes sends ties to the earlier index."""
    if k is None:
        return None
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be None or an integer >= 1, got {k!r}")
    if k >= len(scene):
        return None
    length, width, height = scene._arrays.dims.T
    return np.sort(np.argsort(-(length * width * height), kind="stable")[:k])


def top_k_by_volume(scene: Scene, k: int | None) -> Scene:
    """Keep the k largest boxes by volume, preserving scene order; the
    kept boxes are the scene's own objects.

    Pass None to keep everything; then, and when k is no smaller than the
    scene, the scene itself is returned. Ties at the volume cutoff are
    resolved toward the earlier index. Any other k must be an integer >= 1
    (Python or NumPy, not a bool).
    """
    rows = _top_rows(scene, k)
    if rows is None:
        return scene
    return Scene(tuple(scene.boxes[i] for i in rows.tolist()), scene.agent_id, scene.frame_id)
