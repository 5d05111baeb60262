"""JSON file formats: scenes, extrinsics, calibration reports, monitor
state and events, eval manifests, run configuration.

All writers emit strict JSON with full-precision floats, so a save/load
round trip reproduces values exactly. A non-finite mean distance is
written as null; any other non-finite value fails to write.

Every reader takes the file's bytes and decodes them as UTF-8; a file that
cannot be read or decoded is a ParseError at "<file>". A scene's boxes are
read in one pass into one (n, 8) table of center, dims, yaw and
confidence: one sweep over the values refuses anything but a JSON number,
and the range checks run over the whole table. Only a list that pass
refuses is read again box by box, to name the first faulty field.

Extrinsic and state files are written atomically because the monitor
persists them while running: the text goes to a new, uniquely named file
beside the target (created exclusively, with mode 0o666 under the umask,
as a plain write creates a file), which is then renamed over the target.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .association import ODistParams
from .geometry import RigidTransform, Scene, nearest_rotation
from .monitor import MonitorConfig, MonitorEvent, MonitorState, MonitorStatus
from .pipeline import DEFAULT_TOP_K, CalibrationReport
from .synth import NoiseConfig, SynthConfig

# Largest plausible box center coordinate or dimension, meters. Larger
# values are input errors, and squares of values near 1e154 overflow.
MAX_COORDINATE_M = 1e5


class ParseError(ValueError):
    """Input file is malformed; message carries file and field context."""

    def __init__(self, path, where: str, message: str):
        self.path = str(path)
        self.where = where
        super().__init__(f"{path}: {where}: {message}")


def _read_json(path) -> object:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ParseError(path, "<file>", str(e)) from e
    try:
        return json.loads(data.decode())
    except json.JSONDecodeError as e:
        raise ParseError(path, f"line {e.lineno}, column {e.colno}", e.msg) from e
    except (ValueError, RecursionError) as e:  # not UTF-8, beyond int()'s digit limit, or nested too deep
        raise ParseError(path, "<file>", str(e)) from e


def _atomic_write(path, text: str) -> None:
    """Replace path with text: create a uniquely named sibling, write it,
    rename it over path. The sibling is removed only if that fails. An
    OSError names path, not the sibling."""
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as f:
                f.write(text.encode())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(e.errno, e.strerror, str(Path(path))) from e


def _number(value, path, where) -> float:
    """value as a float; a JSON integer beyond float range is refused as a
    non-finite float is."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(path, where, f"expected a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        digits = len(str(abs(value)))
        raise ParseError(path, where, f"expected a finite number, got an integer of {digits} digits") from None
    if not math.isfinite(number):
        raise ParseError(path, where, f"expected a finite number, got {value!r}")
    return number


def _object(doc, keys, path, section=None) -> None:
    """Refuse doc unless it is a JSON object holding only the given keys.
    section names where the object sits, as its errors name it: None for
    the file's root."""
    if not isinstance(doc, dict):
        raise ParseError(path, "<root>" if section is None else section, "expected an object")
    unknown = set(doc) - set(keys)
    if unknown:
        key = sorted(unknown)[0]
        raise ParseError(path, key if section is None else f"{section}.{key}", "unknown key")


def _vector(value, length, path, where) -> list[float]:
    if not isinstance(value, list) or len(value) != length:
        raise ParseError(path, where, f"expected a list of {length} numbers")
    return [_number(v, path, f"{where}[{i}]") for i, v in enumerate(value)]


def _parse_box(entry, path, where) -> tuple:
    """(center, dims, yaw, confidence, label) of one box, checked as
    DetectionBox checks a box and with its messages. load_scene reads a
    box list with it only to name the first faulty field of a list that
    its one-pass read refused; the tests read with it as their reference."""
    if not isinstance(entry, dict):
        raise ParseError(path, where, "expected an object")
    for key in ("center", "dims"):
        if key not in entry:
            raise ParseError(path, f"{where}.{key}", "missing")
    center = _vector(entry["center"], 3, path, f"{where}.center")
    dims = _vector(entry["dims"], 3, path, f"{where}.dims")
    for key, values in (("center", center), ("dims", dims)):
        if max(abs(v) for v in values) > MAX_COORDINATE_M:
            raise ParseError(path, f"{where}.{key}", f"exceeds {MAX_COORDINATE_M:g} m")
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
    if not all(v > 0 for v in dims):
        raise ParseError(path, where, f"dims must be positive, got {np.array(dims)}")
    if not 0.0 <= confidence <= 1.0:
        raise ParseError(path, where, f"confidence must be in [0, 1], got {confidence}")
    return center, dims, yaw, confidence, label


_DEG_TO_RAD = math.pi / 180.0  # math.radians multiplies by this same constant


def _box_table(boxes: list) -> tuple[np.ndarray, list] | None:
    """The (n, 8) table and the labels of boxes, read in one pass; None if
    a JSON type or structure check fails or a center or dims entry is not
    within MAX_COORDINATE_M (a NaN never is). Scene.from_arrays checks the rest."""
    values, degrees, labels = [], [], []
    for entry in boxes:
        if type(entry) is not dict:
            return None
        center, dims = entry.get("center"), entry.get("dims")
        if type(center) is not list or type(dims) is not list or len(center) != 3 or len(dims) != 3:
            return None
        has_rad = "yaw" in entry
        if has_rad == ("yaw_deg" in entry):
            return None
        label = entry.get("class")
        if label is not None and type(label) is not str:
            return None
        values += center
        values += dims
        values += (entry["yaw"] if has_rad else entry["yaw_deg"], entry.get("confidence", 1.0))
        degrees.append(not has_rad)
        labels.append(label)
    # anything but an int or a float is refused here (type() tells a bool
    # from an int); an int beyond float range fails to convert
    if not set(map(type, values)) <= {float, int}:
        return None
    try:
        table = np.array(values, dtype=float).reshape(len(labels), 8)
    except OverflowError:
        return None
    if not (np.abs(table[:, :6]) <= MAX_COORDINATE_M).all():
        return None
    table[degrees, 6] *= _DEG_TO_RAD
    return table, labels


def load_scene(path) -> Scene:
    """The scene of a JSON scene file. Its boxes are read in one pass into
    one table and one Scene.from_arrays; only if either refuses them are
    they read box by box, to raise the ParseError naming the first fault."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(path, "<root>", "expected an object")
    if not isinstance(doc.get("agent_id"), str):
        raise ParseError(path, "agent_id", "expected a string")
    if not isinstance(doc.get("frame_id"), int) or isinstance(doc.get("frame_id"), bool):
        raise ParseError(path, "frame_id", "expected an integer")
    if not isinstance(doc.get("boxes"), list):
        raise ParseError(path, "boxes", "expected a list")
    read = _box_table(doc["boxes"])
    if read is not None:
        table, labels = read
        try:
            return Scene.from_arrays(
                table[:, :3], table[:, 3:6], table[:, 6], table[:, 7], labels, doc["agent_id"], doc["frame_id"]
            )
        except ValueError:
            pass  # the box-by-box read below names the field
    for i, entry in enumerate(doc["boxes"]):
        _parse_box(entry, path, f"boxes[{i}]")
    raise AssertionError(f"{path}: the one-pass read refused boxes that read one by one")


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
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2, allow_nan=False) + "\n")


def extrinsic_to_dict(t: RigidTransform) -> dict:
    return {
        "rotation": [float(v) for v in t.rotation.reshape(-1)],
        "translation": [float(v) for v in t.translation],
    }


def extrinsic_from_dict(doc, path="<memory>") -> RigidTransform:
    _object(doc, ("rotation", "translation"), path)
    R = np.array(_vector(doc.get("rotation"), 9, path, "rotation")).reshape(3, 3)
    t = np.array(_vector(doc.get("translation"), 3, path, "translation"))
    drift = float(np.linalg.norm(R.T @ R - np.eye(3)))
    if drift > 1e-6:
        raise ParseError(path, "rotation", f"not orthonormal (|R^T R - I| = {drift:.3g})")
    if np.linalg.det(R) <= 0:
        raise ParseError(path, "rotation", "determinant must be +1 (got a reflection)")
    # Snap a drifted matrix to the nearest rotation, so downstream
    # orthonormality checks hold after lossy round trips through other
    # tools; one this package wrote loads back bit for bit.
    return RigidTransform(R if drift <= 1e-12 else nearest_rotation(R), t)


def load_extrinsic(path) -> RigidTransform:
    return extrinsic_from_dict(_read_json(path), path)


def save_extrinsic(t: RigidTransform, path) -> None:
    _atomic_write(path, json.dumps(extrinsic_to_dict(t), indent=2, allow_nan=False) + "\n")


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
        "trace": asdict(report.trace),
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
    """Monitor state as plain JSON; a non-finite mean distance is null."""
    health = state.last_health
    return {
        "status": state.status.value,
        "frame_count": state.frame_count,
        "last_health": None if health is None else [health[0], _finite_or_none(health[1])],
        "extrinsic": (
            extrinsic_to_dict(state.current_extrinsic)
            if state.current_extrinsic is not None
            else None
        ),
    }


def state_from_dict(doc, path="<memory>") -> MonitorState:
    _object(doc, ("status", "frame_count", "last_health", "extrinsic"), path)
    try:
        status = MonitorStatus(doc.get("status"))
    except ValueError as e:
        raise ParseError(path, "status", str(e)) from e
    frame_count = doc.get("frame_count")
    if not isinstance(frame_count, int) or isinstance(frame_count, bool) or frame_count < 0:
        raise ParseError(path, "frame_count", "expected a nonnegative integer")
    health = doc.get("last_health")
    if health is not None:
        if not isinstance(health, list) or len(health) != 2:
            raise ParseError(path, "last_health", "expected [confidence, mean distance or null]")
        mean = math.inf if health[1] is None else _number(health[1], path, "last_health[1]")
        health = (_number(health[0], path, "last_health[0]"), mean)
    extrinsic = doc.get("extrinsic")
    if extrinsic is not None:
        extrinsic = extrinsic_from_dict(extrinsic, path)
    try:
        return MonitorState(extrinsic, status, health, frame_count)
    except ValueError as e:
        raise ParseError(path, "<root>", str(e)) from e


def save_state(state: MonitorState, path) -> None:
    _atomic_write(path, json.dumps(state_to_dict(state), indent=2, allow_nan=False) + "\n")


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
    top_k: int | None = DEFAULT_TOP_K
    monitor: MonitorConfig = MonitorConfig()
    synth: SynthConfig = SynthConfig()
    noise: NoiseConfig = NoiseConfig()


def _convert_dims_range(value, path, where):
    if not isinstance(value, list) or len(value) != 3:
        raise ParseError(path, where, "expected three [min, max] pairs")
    return tuple(tuple(_vector(pair, 2, path, f"{where}[{i}]")) for i, pair in enumerate(value))


def _convert_range(value, path, where):
    return tuple(_vector(value, 2, path, where))


# The JSON values a scalar field takes, by its annotation: a bool is
# neither an int nor a float, though Python makes it an int, and a float
# field's int must convert to a float without overflow.
_SCALARS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (
        lambda v: isinstance(v, float) or type(v) is int and abs(v) <= sys.float_info.max,
        "a number",
    ),
}

# Fields whose JSON form needs converting, by "section.field"
_CONVERTERS = {
    "synth.coop_transform": lambda v, p, w: None if v is None else extrinsic_from_dict(v, p),
    "synth.dims_range": _convert_dims_range,
    "synth.x_range": _convert_range,
    "synth.y_range": _convert_range,
    "synth.z_range": _convert_range,
}


def config_from_dict(doc, path="<memory>", base: RunConfig = RunConfig()) -> RunConfig:
    """base with the settings of doc applied. doc holds any of RunConfig's
    fields; a section is an object holding any of that section's fields,
    which replace base's, so the section is checked in its final form."""
    _object(doc, [f.name for f in fields(RunConfig)], path)
    changes = {}
    for name, section in doc.items():
        if name == "top_k":
            if not (section is None or type(section) is int and section >= 1):
                raise ParseError(path, "top_k", "expected a positive integer or null")
            changes[name] = section
            continue
        current = getattr(base, name)
        annotations = {f.name: f.type for f in fields(current)}  # strings: postponed evaluation
        _object(section, annotations, path, name)
        values = dict(section)
        for key, value in section.items():
            where = f"{name}.{key}"
            if where in _CONVERTERS:
                values[key] = _CONVERTERS[where](value, path, where)
            elif annotations[key] in _SCALARS:
                accepts, expected = _SCALARS[annotations[key]]
                if not accepts(value):
                    raise ParseError(path, where, f"expected {expected}, got {value!r}")
        try:
            changes[name] = replace(current, **values)
        except (TypeError, ValueError) as e:
            raise ParseError(path, name, str(e)) from e
    return replace(base, **changes)


def load_config(path) -> RunConfig:
    return config_from_dict(_read_json(path), path)
