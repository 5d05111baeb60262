"""Oriented 3D detection boxes, their corner matrices, and rigid transforms.

Boxes are parameterized as (center, dims, yaw): an axis-aligned cuboid of
size dims = (length, width, height), rotated about +z by yaw and translated
to center. All lengths are meters, all angles radians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# Canonical corner order: sign triples applied to (l/2, w/2, h/2) in the
# box frame. Row k of a corner matrix always refers to the same sign triple,
# which is what makes corner matrices of two boxes directly comparable.
# fmt: off
_CORNER_SIGNS = np.array([
    [+1, +1, +1],
    [+1, +1, -1],
    [+1, -1, +1],
    [+1, -1, -1],
    [-1, +1, +1],
    [-1, +1, -1],
    [-1, -1, +1],
    [-1, -1, -1],
], dtype=float)
# fmt: on

# A reversed heading (yaw + pi) negates a box's length and width axes.
_FLIP_AXES = np.array([-1.0, -1.0, 1.0])

# Below this ratio of the second to the largest singular value the
# cross-covariance is effectively rank-1 (collinear points) and the
# rotation about the point axis is unobservable.
RANK_RATIO_MIN = 1e-8


class DegenerateGeometry(ValueError):
    """The geometry fixes no rotation. In calibration, the winner's valid
    set fixes no yaw (association._fit), as for vertical needles alone; a
    level needle fixes one. In nearest_rotation, the matrix is not finite
    or fails the rank test, as for the cross-covariance of weighted point
    sets with fewer than 3 effective points or collinear after centering."""


def _as_readonly(a, shape):
    out = np.asarray(a, dtype=float)
    if out.shape != shape:
        raise ValueError(f"expected shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("non-finite values")
    out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DetectionBox:
    """One oriented box detection.

    yaw is normalized into [0, 2*pi) at construction. confidence defaults
    to 1.0, the value used for ground-truth boxes.
    """

    center: np.ndarray
    dims: np.ndarray
    yaw: float
    confidence: float = 1.0
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", _as_readonly(self.center, (3,)))
        object.__setattr__(self, "dims", _as_readonly(self.dims, (3,)))
        if not np.all(self.dims > 0):
            raise ValueError(f"dims must be positive, got {self.dims}")
        if not math.isfinite(self.yaw):
            raise ValueError("yaw must be finite")
        yaw = float(self.yaw) % TWO_PI  # a tiny negative yaw rounds up to 2*pi
        object.__setattr__(self, "yaw", 0.0 if yaw == TWO_PI else yaw)
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    @classmethod
    def _trusted(cls, center, dims, yaw, confidence, label) -> DetectionBox:
        """A box of values that Scene.from_arrays has checked and folded."""
        box = object.__new__(cls)
        box.__dict__.update(center=center, dims=dims, yaw=yaw, confidence=confidence, label=label)
        return box

    @property
    def volume(self) -> float:
        return float(np.prod(self.dims))


@dataclass(frozen=True)
class Scene:
    """An ordered collection of boxes seen by one agent in one frame.

    Box indices are stable for the lifetime of the scene; association
    results refer to these indices.
    """

    boxes: tuple[DetectionBox, ...]
    agent_id: str = ""
    frame_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))

    @classmethod
    def from_arrays(
        cls, centers, dims, yaws, confidences=None, labels=None, agent_id: str = "", frame_id: int = 0
    ) -> Scene:
        """A scene of n boxes given as arrays: centers and dims of shape
        (n, 3), yaws of shape (n,), and optionally n confidences (default
        1.0) and n labels (default None).

        The values are checked as DetectionBox checks them, once over the
        whole arrays, and the yaws are folded into [0, 2*pi) as it folds
        them. Each box's center and dims are read-only rows of the scene's
        own copies, which are also its arrays (Scene._arrays), so the scene
        arrives with them built.
        """
        yaws = np.array(yaws, dtype=float)
        if yaws.ndim != 1:
            raise ValueError(f"expected yaws of shape (n,), got {yaws.shape}")
        n = len(yaws)
        centers, dims = _as_readonly(centers, (n, 3)), _as_readonly(dims, (n, 3))
        if not (dims > 0).all():
            raise ValueError(f"dims must be positive, got {dims[~(dims > 0).all(axis=1)][0]}")
        if not np.isfinite(yaws).all():
            raise ValueError("yaw must be finite")
        yaws %= TWO_PI  # as DetectionBox folds them, a yaw that rounds up to 2*pi included
        yaws[yaws == TWO_PI] = 0.0
        yaws.setflags(write=False)
        confidences = np.ones(n) if confidences is None else np.asarray(confidences, dtype=float)
        if confidences.shape != (n,):
            raise ValueError(f"expected {n} confidences, got shape {confidences.shape}")
        inside = (0.0 <= confidences) & (confidences <= 1.0)
        if not inside.all():
            raise ValueError(f"confidence must be in [0, 1], got {confidences[~inside][0]}")
        labels = [None] * n if labels is None else list(labels)
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        boxes = map(DetectionBox._trusted, centers, dims, yaws.tolist(), confidences.tolist(), labels)
        scene = cls(tuple(boxes), agent_id, frame_id)
        scene.__dict__["_arrays"] = _SceneArrays(centers, dims, yaws)
        return scene

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    def __getitem__(self, i: int) -> DetectionBox:
        return self.boxes[i]

    @cached_property
    def _arrays(self) -> _SceneArrays:
        """The scene's stacked geometry, shared by every call on the scene:
        built by from_arrays, or stacked from the boxes on first use."""
        n = len(self.boxes)
        return _SceneArrays(
            np.array([b.center for b in self]).reshape(n, 3),
            np.array([b.dims for b in self]).reshape(n, 3),
            np.array([b.yaw for b in self]),
        )


class _SceneArrays:
    """A scene's stacked geometry, read-only: centers (n, 3), dims (n, 3),
    yaws (n,) and the scaled axes A = rot_z(yaw) @ diag(dims) of each box,
    under its heading as given (columns q) and reversed (yaw + pi, columns n
    + q). The kernels read the axes from packed, C-contiguous of shape (5,
    2n): the only nonzero entries of each A, A00, A01, A10, A11 and A22,
    one row each, so a gather of boxes takes five contiguous rows and no
    zero."""

    def __init__(self, centers: np.ndarray, dims: np.ndarray, yaws: np.ndarray):
        self.centers, self.dims, self.yaws = centers, dims, yaws
        # rot_z's math.cos and math.sin, so the axes are rot_z(yaw) * dims bit for bit
        yaws = yaws.tolist()
        cos, sin = np.array([math.cos(y) for y in yaws]), np.array([math.sin(y) for y in yaws])
        length, width, height = dims.T
        given = np.array([cos * length, -sin * width, sin * length, cos * width, height])
        self.packed = np.concatenate([given, given * _FLIP_AXES[[0, 1, 0, 1, 2], None]], axis=1)
        for table in (self.centers, self.dims, self.yaws, self.packed):
            table.setflags(write=False)


@dataclass(frozen=True)
class RigidTransform:
    """A proper rigid motion: x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_readonly(self.rotation, (3, 3)))
        object.__setattr__(self, "translation", _as_readonly(self.translation, (3,)))
        R = self.rotation
        if np.linalg.norm(R.T @ R - np.eye(3)) >= 1e-9:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) >= 1e-9:
            raise ValueError("rotation must have determinant +1")

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_yaw(yaw: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        return RigidTransform(rot_z(yaw), np.asarray(translation, dtype=float))


def rot_z(yaw: float) -> np.ndarray:
    """Rotation matrix about +z."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def nearest_rotation(H: np.ndarray) -> np.ndarray:
    """The rotation nearest to the 3x3 matrix H in the Frobenius norm, U
    diag(1, 1, det) Vt from the SVD of H; for a cross-covariance this is the
    Kabsch rotation. Raises DegenerateGeometry when H is not finite, or
    when it is rank-deficient: its largest singular value is not positive,
    or the middle one is below RANK_RATIO_MIN of it."""
    H = np.asarray(H, dtype=float)
    if not np.isfinite(H).all():
        # LAPACK's SVD may never return on a non-finite matrix
        raise DegenerateGeometry("cross-covariance is not finite (coordinates too large)")
    U, S, Vt = np.linalg.svd(H)
    if S[0] <= 0.0 or S[1] / S[0] < RANK_RATIO_MIN:
        raise DegenerateGeometry(f"cross-covariance is rank-deficient (singular values {S})")
    U[:, 2] *= np.sign(np.linalg.det(U @ Vt))  # U diag(1, 1, det)
    return U @ Vt


def corners_of(box: DetectionBox) -> np.ndarray:
    """8x3 corner matrix of a box, rows in the canonical sign order."""
    local = _CORNER_SIGNS * (box.dims * 0.5)
    return local @ rot_z(box.yaw).T + box.center


def apply_transform(t: RigidTransform, points: np.ndarray) -> np.ndarray:
    """Apply a rigid transform to an (n, 3) array of points."""
    return np.asarray(points, dtype=float) @ t.rotation.T + t.translation


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform equivalent to applying b first, then a."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    return RigidTransform(t.rotation.T, -(t.rotation.T @ t.translation))


def transform_box(t: RigidTransform, box: DetectionBox) -> DetectionBox:
    """Map a box through a rigid transform, keeping the yaw-only parameterization.

    For a yaw-only rotation the corners of the result equal the transformed
    corners of the input exactly. A general rotation cannot be represented by
    this box parameterization; the result is then the yaw-only box whose
    corners are closest (row-wise least squares) to the fully transformed
    corners. That best yaw has a closed form: with A = R @ Rz(yaw), it is
    atan2(A10*l^2 - A01*w^2, A00*l^2 + A11*w^2).
    """
    (center,), _, (yaw,) = _transformed_boxes(t, box.center[None], box.dims[None], np.array([box.yaw]))
    return DetectionBox(center, box.dims, yaw, box.confidence, box.label)


def with_flipped_yaw(box: DetectionBox) -> DetectionBox:
    """The same box with its heading reversed (yaw + pi)."""
    return DetectionBox(box.center, box.dims, box.yaw + math.pi, box.confidence, box.label)


def transform_scene(t: RigidTransform, scene: Scene) -> Scene:
    """Every box of the scene mapped as transform_box maps it."""
    arrays = scene._arrays
    return Scene.from_arrays(
        *_transformed_boxes(t, arrays.centers, arrays.dims, arrays.yaws),
        [b.confidence for b in scene],
        [b.label for b in scene],
        scene.agent_id,
        scene.frame_id,
    )


def _transformed_boxes(t: RigidTransform, centers, dims, yaws):
    """(centers, dims, yaws) of n boxes mapped through t by transform_box's
    closed form. Each box's result does not depend on the others: its
    center is R @ c and its A = R @ rot_z(yaw), one matrix-vector and one
    matrix product per box, and its squared length and width are Python's
    x ** 2 (libm pow), which differs from an array's x * x in the last bit
    on about 0.1 % of values."""
    yaws = yaws.tolist()
    cos, sin = np.array([math.cos(y) for y in yaws]), np.array([math.sin(y) for y in yaws])
    rz = np.zeros((len(yaws), 3, 3))
    rz[:, 0, 0], rz[:, 0, 1], rz[:, 1, 0], rz[:, 1, 1], rz[:, 2, 2] = cos, -sin, sin, cos, 1.0
    A = t.rotation @ rz
    l2 = np.array([x**2 for x in dims[:, 0].tolist()])
    w2 = np.array([x**2 for x in dims[:, 1].tolist()])
    ys = (A[:, 1, 0] * l2 - A[:, 0, 1] * w2).tolist()
    xs = (A[:, 0, 0] * l2 + A[:, 1, 1] * w2).tolist()
    moved = (t.rotation @ centers[:, :, None])[:, :, 0] + t.translation
    return moved, dims, np.array([math.atan2(y, x) for y, x in zip(ys, xs)])
