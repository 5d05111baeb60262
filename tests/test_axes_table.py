"""The packed axes table (_SceneArrays.packed) and the axes term that reads it.

The reference is the axes term as it was before the table (conftest's
da2_reference over entries_reference gathers of the 3x3 axes, with
rot_z_reference's full rotation), which multiplies every zero of A_e and
R. The table-form _da2 must equal it byte for byte in three cases:
rotations about z given as their xy block, under both coop headings (the
anchor pass); tilted general rotations (refits, alignment_score and the
health check); and reversed headings, read from the table's columns n + q.
No module of the package gathers 3x3 entries any more.
"""
from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import boxcalib
from boxcalib import association

from conftest import axes_reference, da2_reference, entries_reference, make_box, make_scene, rot_z_reference

BOX = st.tuples(st.tuples(*[st.floats(0.01, 50.0)] * 3), st.floats(-10.0, 10.0))  # (dims, yaw)
QUATERNION = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda w: sum(x * x for x in w) > 1e-3)


def scene_arrays(boxes):
    """The _SceneArrays of boxes [(dims, yaw), ...] at the origin, and the
    reference's scaled axes (conftest's axes_reference)."""
    arrays = make_scene([make_box((0.0, 0.0, 0.0), d, y) for d, y in boxes])._arrays
    return arrays, axes_reference(arrays)


def rotation(w):
    """The rotation of the quaternion w, normalised: tilted in general."""
    a, b, c, d = np.array(w) / np.linalg.norm(w)
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


def assert_same_bytes(table_form, reference):
    assert table_form.dtype == reference.dtype and table_form.shape == reference.shape
    assert table_form.tobytes() == reference.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(BOX, BOX, st.floats(-10.0, 10.0)), min_size=1, max_size=8))
def test_rotations_about_z_under_both_headings_match_the_full_entries(pairs):
    # the anchor pass gives rot_z(phi) as its xy block, and odist all
    # three rows; the reversed heading's rotation rot_z(phi + pi) negates
    # the xy rows, and its coop axes are the table's columns s + q
    ego, coop, phi = zip(*pairs)
    (e, ego_axes), (c, coop_axes), s = scene_arrays(ego), scene_arrays(coop), len(pairs)
    index = np.arange(s)
    for heading, sign in ((0, 1.0), (s, -1.0)):
        cos, sin = sign * np.cos(phi), sign * np.sin(phi)
        R = rot_z_reference(cos, sin)
        axes_e, axes_c = entries_reference(ego_axes, index), entries_reference(coop_axes, index + heading)
        reference = da2_reference(axes_e, R, axes_c)
        axes_e, axes_c = e.packed[:, :s], c.packed[:, heading : heading + s]
        assert_same_bytes(association._da2(axes_e, np.array([[cos, -sin], [sin, cos]]), axes_c), reference)
        assert_same_bytes(association._da2(axes_e, R, axes_c), reference)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(BOX, BOX, QUATERNION), min_size=1, max_size=8))
def test_tilted_rotations_match_the_full_entries(pairs):
    # a refit's nearest rotation and a stored extrinsic may tilt: every
    # entry of R enters, each pair under its own R
    ego, coop, quaternions = zip(*pairs)
    (e, ego_axes), (c, coop_axes), index = scene_arrays(ego), scene_arrays(coop), np.arange(len(pairs))
    R = np.array([rotation(w) for w in quaternions]).transpose(1, 2, 0)  # [r, c, pair]
    reference = da2_reference(entries_reference(ego_axes, index), R, entries_reference(coop_axes, index))
    assert_same_bytes(association._da2(e.packed[:, index], R, c.packed[:, index]), reference)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(BOX, BOX, QUATERNION, st.booleans()), min_size=1, max_size=8))
def test_reversed_headings_read_the_tables_second_half(pairs):
    # the transform kernel and _fit take a flipped pair's coop axes from
    # column s + q, under a general rotation; the column holds box q's axes
    # with the xy columns negated
    ego, coop, quaternions, flipped = zip(*pairs)
    (e, ego_axes), (c, coop_axes), s = scene_arrays(ego), scene_arrays(coop), len(pairs)
    assert c.packed[:4, s:].tobytes() == (-c.packed[:4, :s]).tobytes()
    assert c.packed[4, s:].tobytes() == c.packed[4, :s].tobytes()
    index = np.arange(s)
    heads = index + s * np.array(flipped)
    R = np.array([rotation(w) for w in quaternions]).transpose(1, 2, 0)
    reference = da2_reference(entries_reference(ego_axes, index), R, entries_reference(coop_axes, heads))
    assert_same_bytes(association._da2(e.packed[:, index], R, c.packed[:, heads]), reference)


def test_the_table_holds_the_axes_nonzero_entries_contiguous_and_read_only():
    for n in (0, 1, 5):
        arrays, headed = scene_arrays([((4.0 + k, 2.0, 1.5 + k), 0.7 * k - 1.0) for k in range(n)])
        packed, flat = arrays.packed, headed.reshape(2 * n, 9)
        assert packed.shape == (5, 2 * n) and packed.dtype == float
        assert packed.flags.c_contiguous and not packed.flags.writeable
        # A00, A01, A10, A11, A22 of rot_z(yaw) * dims under both headings,
        # bit for bit; the other entries are zero
        assert packed.tobytes() == np.ascontiguousarray(flat[:, [0, 1, 3, 4, 8]].T).tobytes()
        assert not np.any(flat[:, [2, 5, 6, 7]])


def test_no_module_of_the_package_gathers_3x3_entries():
    # the kernels read the packed table: the 3x3 gather (_entries), the
    # rot_z stack (_rot_z) and the 3x3 axes tables (headed, axes) are gone,
    # with no definition and no caller
    for path in sorted(Path(boxcalib.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            assert name not in ("_entries", "_rot_z", "headed", "axes"), f"{path.name}:{node.lineno} uses {name}"
