"""load_scene's one-pass read of a scene's boxes (io._box_table).

The reference is the box-by-box read: io._parse_box over every box, its
values stacked into Scene.from_arrays, as load_scene read scenes before the
table. On any document the one-pass read must either give a scene whose
centers, dims, yaws, confidences and labels are bit-identical to the
reference's, or raise the ParseError the reference raises, with the same
where and message. The documents are valid box lists, with yaw or yaw_deg,
labels, and int and float values, and one-field mutations of them.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcalib import Scene
from boxcalib.io import MAX_COORDINATE_M, ParseError, _box_table, _parse_box, load_scene

M = int(MAX_COORDINATE_M)
ABOVE_M = math.nextafter(MAX_COORDINATE_M, math.inf)


COORDINATE = st.one_of(st.integers(-M, M), st.floats(-MAX_COORDINATE_M, MAX_COORDINATE_M))
DIM = st.one_of(st.integers(1, M), st.floats(0.0, MAX_COORDINATE_M, exclude_min=True))  # subnormals too
YAW = st.one_of(st.integers(-(10**300), 10**300), st.floats(allow_nan=False, allow_infinity=False))
CONFIDENCE = st.one_of(st.integers(0, 1), st.floats(0.0, 1.0))


@st.composite
def boxes(draw):
    box = {
        "center": draw(st.lists(COORDINATE, min_size=3, max_size=3)),
        "dims": draw(st.lists(DIM, min_size=3, max_size=3)),
        draw(st.sampled_from(["yaw", "yaw_deg"])): draw(YAW),
    }
    if draw(st.booleans()):
        box["confidence"] = draw(CONFIDENCE)
    if draw(st.booleans()):
        box["class"] = draw(st.one_of(st.none(), st.text(max_size=4)))
    return box


# Values that no number field takes: not a JSON number, an integer beyond
# float range, or a non-finite float (json writes and reads Infinity, NaN)
NOT_NUMBERS = [True, False, "1", None, [], {}, 10**400, -(10**400), math.inf, -math.inf, math.nan]
# Each field's edges: values just inside and just outside what it takes
EDGES = {
    "center": [ABOVE_M, -ABOVE_M, M + 1, M, -M, -0.0],
    "dims": [ABOVE_M, M, 5e-324, 0, 0.0, -0.0, -1],
    "yaw": [10**300, -(10**300), 1e308, -0.0],
    "confidence": [-0.1, -0.0, 0, 1, 1.0000000000000002, 3],
    "class": [3, "car", ""],
}


@st.composite
def mutated(draw, box):
    """box with one field changed: a value replaced, a key dropped or
    added, a list of the wrong length, or the box not an object at all."""
    box = json.loads(json.dumps(box))
    yaw = "yaw" if "yaw" in box else "yaw_deg"
    kind = draw(st.sampled_from(["element", "value", "length", "drop", "add", "entry"]))
    if kind == "element":
        field = draw(st.sampled_from(["center", "dims"]))
        box[field][draw(st.integers(0, 2))] = draw(st.sampled_from(NOT_NUMBERS + EDGES[field]))
    elif kind == "value":
        field = draw(st.sampled_from(["yaw", "confidence", "class"]))
        box[yaw if field == "yaw" else field] = draw(st.sampled_from(NOT_NUMBERS + EDGES[field]))
    elif kind == "length":
        box[draw(st.sampled_from(["center", "dims"]))] = draw(
            st.sampled_from([[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [], 3.0, "abc", None])
        )
    elif kind == "drop":
        del box[draw(st.sampled_from(sorted(box)))]
    elif kind == "add":
        box[draw(st.sampled_from(["yaw", "yaw_deg", "class"]))] = draw(st.sampled_from([0.5, None, "x"]))
    else:
        return draw(st.sampled_from([[], "box", None, 1, [box]]))
    return box


@st.composite
def documents(draw):
    box_list = draw(st.lists(boxes(), max_size=6))
    if box_list and draw(st.integers(0, 3)):
        i = draw(st.integers(0, len(box_list) - 1))
        box_list[i] = draw(mutated(box_list[i]))
    return {"agent_id": "a", "frame_id": 7, "boxes": box_list}


def box_by_box(doc, path) -> Scene:
    """The reference read: every box read and checked alone."""
    read = [_parse_box(entry, path, f"boxes[{i}]") for i, entry in enumerate(doc["boxes"])]
    centers, dims, yaws, confidences, labels = zip(*read) if read else [()] * 5
    n = len(read)
    return Scene.from_arrays(
        np.reshape(centers, (n, 3)), np.reshape(dims, (n, 3)), yaws, confidences, labels,
        doc["agent_id"], doc["frame_id"],
    )


def columns(scene: Scene) -> list:
    return [
        np.array([b.center for b in scene]).tobytes(),
        np.array([b.dims for b in scene]).tobytes(),
        np.array([b.yaw for b in scene]).tobytes(),
        np.array([b.confidence for b in scene]).tobytes(),
        [b.label for b in scene],
    ]


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scenes") / "s.json"


def assert_reads_as_box_by_box(path, doc):
    path.write_text(json.dumps(doc))
    try:
        expected = box_by_box(json.loads(path.read_text()), path)
    except ParseError as refused:
        with pytest.raises(ParseError) as info:
            load_scene(path)
        assert (info.value.where, str(info.value)) == (refused.where, str(refused))
        return
    scene = load_scene(path)
    assert columns(scene) == columns(expected)
    assert (scene.agent_id, scene.frame_id) == (doc["agent_id"], doc["frame_id"])


@settings(max_examples=300, deadline=None)
@given(documents())
def test_the_one_pass_read_gives_the_box_by_box_scene_or_its_parse_error(scene_path, doc):
    assert_reads_as_box_by_box(scene_path, doc)


def test_every_edge_and_non_number_of_every_field_reads_as_box_by_box(scene_path):
    valid = {"center": [1.5, -2, 0.25], "dims": [4, 2.0, 1.5], "yaw": 0.3, "confidence": 0.5, "class": "car"}
    for field, edges in EDGES.items():
        keys = ["yaw", "yaw_deg"] if field == "yaw" else [field]
        slots = range(3) if field in ("center", "dims") else [None]
        for key, slot, value in itertools.product(keys, slots, NOT_NUMBERS + edges):
            box = json.loads(json.dumps(valid))
            box[key] = box.pop(field)
            if slot is None:
                box[key] = value
            else:
                box[key][slot] = value
            assert_reads_as_box_by_box(scene_path, {"agent_id": "a", "frame_id": 7, "boxes": [valid, box, valid]})


@settings(max_examples=200, deadline=None)
@given(st.lists(YAW, min_size=1, max_size=8))
def test_yaw_deg_converts_by_the_multiply_of_math_radians(degrees):
    # the table scales its yaw column by pi / 180 in one array multiply;
    # it must give math.radians's float to the bit, before any folding
    box_list = [{"center": [0, 0, 0], "dims": [4, 2, 1.5], "yaw_deg": d} for d in degrees]
    table, _ = _box_table(box_list)
    expected = np.array([math.radians(d) for d in degrees])
    assert table[:, 6].tobytes() == expected.tobytes()


def test_yaw_and_yaw_deg_boxes_mix_in_one_table():
    box_list = [
        {"center": [1, 2, 3], "dims": [4, 2, 1.5], "yaw": 0.5, "class": "car"},
        {"center": [-1.5, 0, 0.25], "dims": [1, 1, 1], "yaw_deg": 90, "confidence": 0.25},
    ]
    table, labels = _box_table(box_list)
    assert table.tolist() == [
        [1.0, 2.0, 3.0, 4.0, 2.0, 1.5, 0.5, 1.0],
        [-1.5, 0.0, 0.25, 1.0, 1.0, 1.0, math.radians(90), 0.25],
    ]
    assert labels == ["car", None]
