"""Rigid registration from box corners.

association fits valid sets by a yaw and a translation in closed form
(association._fit) and takes only RANK_RATIO_MIN and DegenerateGeometry
from this module. The corner path below is public and is the 6-DoF
reference the closed forms are tested against:

* pair_hypothesis: the exact rigid motion mapping one box onto another,
  the Kabsch fit of the two 8x3 corner matrices. Corner rows correspond
  by canonical order, so a single box pair pins down all six degrees of
  freedom; for yaw-only boxes that fit is a rotation by the yaw difference.
* weighted_kabsch: confidence-weighted least squares over the stacked
  corner clouds of every matched pair, solved by SVD. It centers the
  point sets before forming the cross-covariance; without centering the
  SVD factors absorb the translation and the orthogonal factor is no
  longer the optimal rotation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import DetectionBox, RigidTransform, Scene, corners_of, rot_z, with_flipped_yaw

if TYPE_CHECKING:  # pragma: no cover
    from .association import MatchSet

# Below this ratio of the second to the largest singular value the
# cross-covariance is effectively rank-1 (collinear points) and the
# rotation about the point axis is unobservable.
RANK_RATIO_MIN = 1e-8


def rank_deficient(singular_values: np.ndarray) -> np.ndarray:
    """The rank test of a 3x3 cross-covariance, on its singular values along
    the last axis in any order: the largest is not positive, or the middle
    one is below RANK_RATIO_MIN of it."""
    s = np.sort(singular_values, axis=-1)
    high, mid = s[..., -1], s[..., -2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return (high <= 0.0) | (mid / high < RANK_RATIO_MIN)


class DegenerateGeometry(ValueError):
    """The geometry fixes no rotation. On the corner path a cross-covariance
    fails the rank test (rank_deficient) or is not finite, as for weighted
    point sets with fewer than 3 effective points or collinear after
    centering and for a needle box pair (pair_hypothesis). In calibration,
    the winner's valid set fixes no yaw (association._fit), as for
    vertical needles alone; a level needle fixes one."""


class EmptyMatchSet(ValueError):
    """No matches to build correspondences from."""


@dataclass(frozen=True)
class WeightedCorrespondences:
    """Point correspondences source -> target with nonnegative weights."""

    source: np.ndarray  # (n, 3) points in the coop frame
    target: np.ndarray  # (n, 3) points in the ego frame
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable
        src = np.array(self.source, dtype=float)
        tgt = np.array(self.target, dtype=float)
        w = np.array(self.weights, dtype=float)
        if src.ndim != 2 or src.shape[1] != 3 or src.shape != tgt.shape:
            raise ValueError("source and target must both be (n, 3)")
        if w.shape != (src.shape[0],):
            raise ValueError("weights must be (n,)")
        if src.shape[0] < 3:
            raise ValueError("need at least 3 correspondences")
        if not (np.all(np.isfinite(src)) and np.all(np.isfinite(tgt)) and np.all(np.isfinite(w))):
            raise ValueError("non-finite values")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be nonnegative with at least one positive")
        for a in (src, tgt, w):
            a.setflags(write=False)
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    rms_residual: float


def _first(mask: np.ndarray) -> list[int]:
    """The stack index of the first True of a mask, [] for a 0-d mask."""
    return [int(k) for k in np.argwhere(mask)[0]]


def nearest_rotation(H: np.ndarray) -> np.ndarray:
    """The rotation nearest to H in the Frobenius norm, U diag(1, 1, det) Vt
    from the SVD of H; for a cross-covariance this is the Kabsch rotation.
    H may be a stack (..., 3, 3); each matrix gets the rotation it would get
    alone, bit for bit. Raises DegenerateGeometry when any matrix of the
    stack is not finite or rank-deficient."""
    H = np.asarray(H, dtype=float)
    finite = np.all(np.isfinite(H), axis=(-2, -1))
    if not np.all(finite):
        # LAPACK's SVD may never return on a non-finite matrix
        at = _first(~finite)
        raise DegenerateGeometry(f"cross-covariance{at or ''} is not finite (coordinates too large)")
    U, S, Vt = np.linalg.svd(H)
    deficient = rank_deficient(S)
    if np.any(deficient):
        at = _first(deficient)
        raise DegenerateGeometry(
            f"cross-covariance{at or ''} is rank-deficient (singular values {S[tuple(at)]})"
        )
    U[..., :, 2] *= np.sign(np.linalg.det(U @ Vt))[..., None]  # U diag(1, 1, det)
    return U @ Vt


def pair_hypothesis(ego_box: DetectionBox, coop_box: DetectionBox) -> RigidTransform:
    """Rigid transform mapping coop_box onto ego_box via their corner matrices.

    Centered corners are S diag(dims/2) rot_z(yaw)^T with the sign matrix S
    satisfying S^T S = 8 I, so the cross-covariance is
    2 rot_z(yaw_e) diag(dims_e * dims_c) rot_z(yaw_c)^T: its singular
    values are 2 * dims_e * dims_c and its rotation factor is
    rot_z(yaw_e - yaw_c). Raises DegenerateGeometry when those singular
    values fail the rank test weighted_kabsch applies.
    """
    products = ego_box.dims * coop_box.dims
    if rank_deficient(products):
        raise DegenerateGeometry(f"rank-deficient cross-covariance (dims products {products})")
    R = rot_z(ego_box.yaw - coop_box.yaw)
    return RigidTransform(R, ego_box.center - R @ coop_box.center)


def weighted_kabsch(corr: WeightedCorrespondences) -> RegistrationResult:
    """Least-squares rigid motion minimizing sum_i w_i * |R s_i + t - e_i|^2."""
    w = corr.weights
    positive = w > 0
    if np.count_nonzero(positive) < 3:
        raise DegenerateGeometry("fewer than 3 correspondences with positive weight")
    wsum = float(w.sum())
    src_bar = (w @ corr.source) / wsum
    tgt_bar = (w @ corr.target) / wsum
    src_c = corr.source - src_bar
    tgt_c = corr.target - tgt_bar
    H = (w[:, None] * tgt_c).T @ src_c
    R = nearest_rotation(H)
    t = tgt_bar - R @ src_bar
    residual = corr.source @ R.T + t - corr.target
    rms = float(np.sqrt((w * np.einsum("ij,ij->i", residual, residual)).sum() / wsum))
    return RegistrationResult(RigidTransform(R, t), rms)


def build_feature_clouds(matches: "MatchSet", ego: Scene, coop: Scene) -> WeightedCorrespondences:
    """Stack the corner matrices of every matched box pair.

    Each match contributes its 8 ego corners as targets and its 8 coop
    corners as sources, all weighted by the match confidence. Matches
    flagged coop_yaw_flipped contribute the coop corners of the heading-
    reversed box, so that row order corresponds across the pair.
    """
    if len(matches.matches) == 0:
        raise EmptyMatchSet("no matches")
    sources, targets, weights = [], [], []
    for m in matches.matches:
        coop_box = coop[m.coop_index]
        if m.coop_yaw_flipped:
            coop_box = with_flipped_yaw(coop_box)
        targets.append(corners_of(ego[m.ego_index]))
        sources.append(corners_of(coop_box))
        weights.append(np.full(8, m.confidence))
    return WeightedCorrespondences(
        np.concatenate(sources), np.concatenate(targets), np.concatenate(weights)
    )
