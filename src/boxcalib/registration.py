"""The corner path: 6-DoF rigid registration from box corners.

Calibration does not use it: association fits valid sets by a yaw and a
translation in closed form (association._fit), and no module of the
package but its __init__ imports this one. The corner path stays public
as the reference the closed forms are tested against:

* build_feature_clouds: the stacked 8x3 corner matrices of every matched
  box pair, weighted by the match confidence; corner rows correspond by
  canonical order, a heading-flipped match taking the reversed coop box.
* weighted_kabsch: confidence-weighted least squares over such clouds,
  solved by SVD (geometry.nearest_rotation). It centers the point sets
  before forming the cross-covariance; without centering the SVD factors
  absorb the translation and the orthogonal factor is no longer the
  optimal rotation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import DegenerateGeometry, RigidTransform, Scene, corners_of, nearest_rotation, with_flipped_yaw

if TYPE_CHECKING:  # pragma: no cover
    from .association import MatchSet


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
