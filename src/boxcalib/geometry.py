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


def _as_readonly(a, shape):
    out = np.asarray(a, dtype=float)
    if out.shape != shape:
        raise ValueError(f"expected shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
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

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    def __getitem__(self, i: int) -> DetectionBox:
        return self.boxes[i]

    @cached_property
    def _arrays(self) -> _SceneArrays:
        """The scene's stacked geometry, built on first use and shared by
        every later call on the scene."""
        return _SceneArrays(self)


class _SceneArrays:
    """A scene's stacked geometry, read-only: centers, dims, yaws and the
    scaled axes A = rot_z(yaw) @ diag(dims) of each box."""

    def __init__(self, scene: Scene):
        n = len(scene)
        self.centers = np.array([b.center for b in scene]).reshape(n, 3)
        self.dims = np.array([b.dims for b in scene]).reshape(n, 3)
        self.yaws = np.array([b.yaw for b in scene])
        # rot_z's math.cos and math.sin, so the axes are rot_z(yaw) * dims bit for bit
        yaws = self.yaws.tolist()
        cos, sin = np.array([math.cos(y) for y in yaws]), np.array([math.sin(y) for y in yaws])
        length, width, height = self.dims.T
        axes = np.zeros((n, 3, 3))
        axes[:, 0, 0], axes[:, 0, 1] = cos * length, -sin * width
        axes[:, 1, 0], axes[:, 1, 1] = sin * length, cos * width
        axes[:, 2, 2] = height
        self.headed = np.concatenate([axes, axes * _FLIP_AXES])  # row n + q: box q reversed (yaw + pi)
        for table in (self.centers, self.dims, self.yaws, self.headed):
            table.setflags(write=False)
        self.axes = self.headed[:n]  # a view, read-only too


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
    center = t.rotation @ box.center + t.translation
    A = t.rotation @ rot_z(box.yaw)
    l2, w2 = box.dims[0] ** 2, box.dims[1] ** 2
    yaw = math.atan2(A[1, 0] * l2 - A[0, 1] * w2, A[0, 0] * l2 + A[1, 1] * w2)
    return DetectionBox(center, box.dims, yaw, box.confidence, box.label)


def with_flipped_yaw(box: DetectionBox) -> DetectionBox:
    """The same box with its heading reversed (yaw + pi)."""
    return DetectionBox(box.center, box.dims, box.yaw + math.pi, box.confidence, box.label)


def transform_scene(t: RigidTransform, scene: Scene) -> Scene:
    return Scene(tuple(transform_box(t, b) for b in scene.boxes), scene.agent_id, scene.frame_id)
