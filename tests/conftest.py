"""Shared builders and hand-rolled oracles.

The oracles are deliberately independent of the package: the assignment
oracle is a bitmask dynamic program and the registration oracle is the
textbook unweighted Kabsch solution. Tests compare library output against
these, never the other way around.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from boxcalib import DetectionBox, ODistParams, RigidTransform, Scene, rot_z
from boxcalib import association


@pytest.fixture
def builds(monkeypatch):
    """The sizes of the scenes whose arrays (_SceneArrays) get built, in
    build order. Scene.from_arrays builds them with the scene, so a test
    that counts the builds of a later call hands it Scene(s.boxes, ...)
    copies."""
    built, init = [], association._SceneArrays.__init__

    def counted(self, centers, dims, yaws):
        built.append(len(yaws))
        init(self, centers, dims, yaws)

    monkeypatch.setattr(association._SceneArrays, "__init__", counted)
    return built


def make_box(center, dims=(4.0, 2.0, 1.5), yaw=0.0, confidence=1.0, label=None):
    return DetectionBox(
        np.asarray(center, dtype=float), np.asarray(dims, dtype=float), yaw, confidence, label
    )


def make_scene(boxes, agent_id="test", frame_id=0):
    return Scene(tuple(boxes), agent_id, frame_id)


def spread_scene(n, seed=0, span=25.0, min_sep=6.0):
    """n boxes with distinct dims and centers at least min_sep apart."""
    rng = np.random.default_rng(seed)
    centers = []
    while len(centers) < n:
        c = rng.uniform(-span, span, 3) * np.array([1.0, 1.0, 0.05])
        if all(np.linalg.norm(c - p) >= min_sep for p in centers):
            centers.append(c)
    boxes = [
        make_box(
            c,
            dims=rng.uniform((2.5, 1.4, 1.1), (5.5, 2.6, 2.3)),
            yaw=rng.uniform(0.0, 2.0 * np.pi),
        )
        for c in centers
    ]
    return make_scene(boxes)


def given_heading_score(ego, coop, transform, params=ODistParams()):
    """alignment_score of transform with the coop headings as given only,
    none reversed: the transform kernel's call alignment_score makes, with
    one motion, unflipped. Not an oracle: it is the package's own kernel."""
    arrays = ego._arrays, coop._arrays
    R, t = transform.rotation[None], transform.translation[None]
    return association._score_motions(*arrays, R, t, np.zeros((1, 3)), [False], params)[0]


def axes_reference(arrays):
    """The scaled axes rot_z(yaw) * dims of a scene's boxes (_SceneArrays)
    as 3x3 matrices by geometry.rot_z, zeros included, under the headings
    as given and reversed (rows n + q): apart from the packed table."""
    axes = np.array([rot_z(yaw) * dims for dims, yaw in zip(arrays.dims, arrays.yaws)]).reshape(-1, 3, 3)
    return np.concatenate([axes, axes * association._FLIP_AXES])


def entries_reference(matrices, index):
    """The entries [r, c] of the 3x3 matrices[index], each contiguous: how
    the kernels gathered rotations and scaled axes before the packed axes
    table (_SceneArrays.packed)."""
    return np.take(matrices.transpose(1, 2, 0), index, axis=-1)


def rot_z_reference(cos, sin):
    """The entries [r, c] of rot_z over arrays of cos and sin, zeros and
    one included."""
    R = np.zeros((3, 3, *np.shape(cos)))
    R[0, 0], R[0, 1], R[1, 0], R[1, 1], R[2, 2] = cos, -sin, sin, cos, 1.0
    return R


def da2_reference(axes_e, R, axes_c):
    """|A_e - R A_c|_F^2 from the full entries (3, 3, s) of A_e, R and A_c
    (entries_reference), every zero of A_e and R multiplied: the form of
    association._da2 before the packed table. Only A_c's nonzero entries
    enter: columns 0 and 1 have no z row, and column 2 is (0, 0, height)."""
    w = R[:, 0, None] * axes_c[0, :2]
    w += R[:, 1, None] * axes_c[1, :2]  # (R A_c)[r, c < 2]
    d = axes_e[:, :2] - w
    d *= d
    h = axes_e[:, 2] - R[:, 2] * axes_c[2, 2]  # [r, c = 2]
    h *= h
    rows = d[:, 0] + d[:, 1] + h
    return rows[0] + rows[1] + rows[2]


def yaw_transform(yaw, translation=(0.0, 0.0, 0.0)):
    return RigidTransform.from_yaw(yaw, np.asarray(translation, dtype=float))


def rotation_angle_deg(r_a, r_b):
    """Geodesic angle between two rotation matrices, degrees (independent
    of the package's own metric)."""
    cos = (np.trace(r_a.T @ r_b) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def kabsch_oracle(src, dst):
    """Unweighted best-fit (R, t) with R @ src + t ~ dst, textbook form."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    H = (dst - cd).T @ (src - cs)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(U @ Vt))
    R = U @ np.diag([1.0, 1.0, d]) @ Vt
    return R, cd - R @ cs


def assignment_max_oracle(M):
    """Maximum total over one-to-one partial assignments that never pick
    zero entries, by dynamic programming over column bitmasks."""
    M = np.asarray(M, dtype=float)
    n, m = M.shape

    @lru_cache(maxsize=None)
    def best(i, used):
        if i == n:
            return 0.0
        out = best(i + 1, used)
        for j in range(m):
            if not used & (1 << j) and M[i, j] > 0:
                out = max(out, M[i, j] + best(i + 1, used | (1 << j)))
        return out

    total = best(0, 0)
    best.cache_clear()
    return total
