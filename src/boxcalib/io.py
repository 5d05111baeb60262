"""JSON file formats: scenes, extrinsics, calibration reports, monitor
state and events, eval manifests, run configuration.

All writers emit plain JSON with full-precision floats, so a save/load
round trip reproduces values exactly. Extrinsic and state files are
written atomically (temp file, then rename) because the monitor persists
them while running.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .association import ODistParams
from .geometry import DetectionBox, RigidTransform, Scene
from .monitor import MonitorConfig, MonitorEvent, MonitorState, MonitorStatus
from .pipeline import DEFAULT_TOP_K, CalibrationReport
from .registration import nearest_rotation
from .synth import NoiseConfig, SynthConfig


class ParseError(ValueError):
    """Input file is malformed; message carries file and field context."""

    def __init__(self, path, where: str, message: str):
        self.path = str(path)
        self.where = where
        super().__init__(f"{path}: {where}: {message}")


def _read_json(path) -> object:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(path, "<file>", str(e)) from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(path, f"line {e.lineno}, column {e.colno}", e.msg) from e


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _number(value, path, where) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ParseError(path, where, f"expected a finite number, got {value!r}")
    return float(value)


def _vector(value, length, path, where) -> list[float]:
    if not isinstance(value, list) or len(value) != length:
        raise ParseError(path, where, f"expected a list of {length} numbers")
    return [_number(v, path, f"{where}[{i}]") for i, v in enumerate(value)]


def _parse_box(entry, path, where) -> DetectionBox:
    if not isinstance(entry, dict):
        raise ParseError(path, where, "expected an object")
    for key in ("center", "dims"):
        if key not in entry:
            raise ParseError(path, f"{where}.{key}", "missing")
    center = _vector(entry["center"], 3, path, f"{where}.center")
    dims = _vector(entry["dims"], 3, path, f"{where}.dims")
    has_rad, has_deg = "yaw" in entry, "yaw_deg" in entry
    if has_rad == has_deg:
        raise ParseError(path, where, "exactly one of 'yaw' (radians) or 'yaw_deg' is required")
    yaw = (
        _number(entry["yaw"], path, f"{where}.yaw")
        if has_rad
        else math.radians(_number(entry["yaw_deg"], path, f"{where}.yaw_deg"))
    )
    confidence = _number(entry.get("confidence", 1.0), path, f"{where}.confidence")
    label = entry.get("class")
    if label is not None and not isinstance(label, str):
        raise ParseError(path, f"{where}.class", "expected a string")
    try:
        return DetectionBox(center, dims, yaw, confidence, label)
    except ValueError as e:
        raise ParseError(path, where, str(e)) from e


def load_scene(path) -> Scene:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(path, "<root>", "expected an object")
    if not isinstance(doc.get("agent_id"), str):
        raise ParseError(path, "agent_id", "expected a string")
    if not isinstance(doc.get("frame_id"), int) or isinstance(doc.get("frame_id"), bool):
        raise ParseError(path, "frame_id", "expected an integer")
    if not isinstance(doc.get("boxes"), list):
        raise ParseError(path, "boxes", "expected a list")
    boxes = tuple(
        _parse_box(entry, path, f"boxes[{i}]") for i, entry in enumerate(doc["boxes"])
    )
    return Scene(boxes, doc["agent_id"], doc["frame_id"])


def scene_to_dict(scene: Scene) -> dict:
    return {
        "agent_id": scene.agent_id,
        "frame_id": scene.frame_id,
        "boxes": [
            {
                "center": [float(v) for v in b.center],
                "dims": [float(v) for v in b.dims],
                "yaw": b.yaw,
                "confidence": b.confidence,
                **({"class": b.label} if b.label is not None else {}),
            }
            for b in scene.boxes
        ],
    }


def save_scene(scene: Scene, path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2) + "\n")


def extrinsic_to_dict(t: RigidTransform) -> dict:
    return {
        "rotation": [float(v) for v in t.rotation.reshape(-1)],
        "translation": [float(v) for v in t.translation],
    }


def extrinsic_from_dict(doc, path="<memory>") -> RigidTransform:
    if not isinstance(doc, dict):
        raise ParseError(path, "<root>", "expected an object")
    unknown = set(doc) - {"rotation", "translation"}
    if unknown:
        raise ParseError(path, sorted(unknown)[0], "unknown key")
    R = np.array(_vector(doc.get("rotation"), 9, path, "rotation")).reshape(3, 3)
    t = np.array(_vector(doc.get("translation"), 3, path, "translation"))
    drift = float(np.linalg.norm(R.T @ R - np.eye(3)))
    if drift > 1e-6:
        raise ParseError(path, "rotation", f"not orthonormal (|R^T R - I| = {drift:.3g})")
    if np.linalg.det(R) <= 0:
        raise ParseError(path, "rotation", "determinant must be +1 (got a reflection)")
    # Snap to the nearest rotation so downstream orthonormality checks
    # hold exactly even after lossy round trips through other tools.
    return RigidTransform(nearest_rotation(R), t)


def load_extrinsic(path) -> RigidTransform:
    return extrinsic_from_dict(_read_json(path), path)


def save_extrinsic(t: RigidTransform, path) -> None:
    _atomic_write(path, json.dumps(extrinsic_to_dict(t), indent=2) + "\n")


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def report_to_dict(report: CalibrationReport) -> dict:
    """A calibration report as plain JSON; a non-finite mean distance is null."""
    return {
        **extrinsic_to_dict(report.transform),
        "matches": [asdict(m) for m in report.matches],
        "rms_residual": report.rms_residual,
        "health_confidence": report.health_confidence,
        "health_mean_distance": _finite_or_none(report.health_mean_distance),
        "elapsed_s": report.elapsed_s,
    }


def event_to_dict(event: MonitorEvent) -> dict:
    """A monitor event as plain JSON; a non-finite mean distance is null."""
    return {
        "frame_id": event.frame_id,
        "kind": event.kind.value,
        "confidence": event.confidence,
        "mean_distance": _finite_or_none(event.mean_distance),
        "attempt": event.attempt,
    }


def state_to_dict(state: MonitorState) -> dict:
    return {
        "status": state.status.value,
        "frame_count": state.frame_count,
        "last_health": list(state.last_health) if state.last_health is not None else None,
        "extrinsic": (
            extrinsic_to_dict(state.current_extrinsic)
            if state.current_extrinsic is not None
            else None
        ),
    }


def state_from_dict(doc, path="<memory>") -> MonitorState:
    if not isinstance(doc, dict):
        raise ParseError(path, "<root>", "expected an object")
    unknown = set(doc) - {"status", "frame_count", "last_health", "extrinsic"}
    if unknown:
        raise ParseError(path, sorted(unknown)[0], "unknown key")
    try:
        status = MonitorStatus(doc.get("status"))
    except ValueError as e:
        raise ParseError(path, "status", str(e)) from e
    frame_count = doc.get("frame_count")
    if not isinstance(frame_count, int) or isinstance(frame_count, bool) or frame_count < 0:
        raise ParseError(path, "frame_count", "expected a nonnegative integer")
    health = doc.get("last_health")
    if health is not None:
        values = _vector(health, 2, path, "last_health")
        health = (values[0], values[1])
    extrinsic = doc.get("extrinsic")
    if extrinsic is not None:
        extrinsic = extrinsic_from_dict(extrinsic, path)
    try:
        return MonitorState(extrinsic, status, health, frame_count)
    except ValueError as e:
        raise ParseError(path, "<root>", str(e)) from e


def save_state(state: MonitorState, path) -> None:
    _atomic_write(path, json.dumps(state_to_dict(state), indent=2) + "\n")


def load_state(path) -> MonitorState:
    return state_from_dict(_read_json(path), path)


def load_manifest(path) -> list[tuple[Path, Path, Path | None]]:
    """(ego, coop, gt) paths of an eval manifest, a JSON list of
    {"ego", "coop", "gt"} file paths relative to the manifest's directory;
    "gt" may be null or absent."""
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise ParseError(path, "<root>", "expected a list of entries")
    base = Path(path).parent
    entries = []
    for idx, entry in enumerate(doc):
        keys = entry if isinstance(entry, dict) else {}
        ego, coop, gt = keys.get("ego"), keys.get("coop"), keys.get("gt")
        if not (isinstance(ego, str) and isinstance(coop, str) and isinstance(gt, (str, type(None)))):
            raise ParseError(path, f"[{idx}]", "expected {'ego', 'coop', 'gt'} paths")
        entries.append((base / ego, base / coop, None if gt is None else base / gt))
    return entries


@dataclass(frozen=True)
class RunConfig:
    """Everything configurable from a file, one section per component."""

    odist: ODistParams = ODistParams()
    top_k: int | float | None = DEFAULT_TOP_K
    monitor: MonitorConfig = MonitorConfig()
    synth: SynthConfig = SynthConfig()
    noise: NoiseConfig = NoiseConfig()


def _dataclass_from_dict(cls, doc, path, where, converters=None):
    known = {f.name for f in fields(cls)}
    unknown = set(doc) - known
    if unknown:
        raise ParseError(path, f"{where}.{sorted(unknown)[0]}", "unknown key")
    kwargs = dict(doc)
    for key, fn in (converters or {}).items():
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = fn(kwargs[key], path, f"{where}.{key}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ParseError(path, where, str(e)) from e


def _convert_dims_range(value, path, where):
    if not isinstance(value, list) or len(value) != 3:
        raise ParseError(path, where, "expected three [min, max] pairs")
    return tuple(tuple(_vector(pair, 2, path, f"{where}[{i}]")) for i, pair in enumerate(value))


def _convert_range(value, path, where):
    return tuple(_vector(value, 2, path, where))


def config_from_dict(doc, path="<memory>") -> RunConfig:
    if not isinstance(doc, dict):
        raise ParseError(path, "<root>", "expected an object")
    unknown = set(doc) - {"odist", "top_k", "monitor", "synth", "noise"}
    if unknown:
        raise ParseError(path, sorted(unknown)[0], "unknown key")
    kwargs = {}
    if "odist" in doc:
        kwargs["odist"] = _dataclass_from_dict(ODistParams, doc["odist"], path, "odist")
    if "top_k" in doc:
        top_k = doc["top_k"]
        if top_k is not None and (not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1):
            raise ParseError(path, "top_k", "expected a positive integer or null")
        kwargs["top_k"] = top_k
    if "monitor" in doc:
        kwargs["monitor"] = _dataclass_from_dict(MonitorConfig, doc["monitor"], path, "monitor")
    if "synth" in doc:
        kwargs["synth"] = _dataclass_from_dict(
            SynthConfig,
            doc["synth"],
            path,
            "synth",
            converters={
                "coop_transform": lambda v, p, w: extrinsic_from_dict(v, p),
                "dims_range": _convert_dims_range,
                "x_range": _convert_range,
                "y_range": _convert_range,
                "z_range": _convert_range,
            },
        )
    if "noise" in doc:
        kwargs["noise"] = _dataclass_from_dict(NoiseConfig, doc["noise"], path, "noise")
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    return config_from_dict(_read_json(path), path)
