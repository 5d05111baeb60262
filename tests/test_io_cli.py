"""File formats and the command-line surface."""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import stat

import numpy as np
import pytest

from boxcalib import (
    DEFAULT_TOP_K,
    DegenerateGeometry,
    MonitorState,
    MonitorStatus,
    RigidTransform,
    calibrate_scenes,
    cli,
    invert,
    rre,
    rte,
    top_k_by_volume,
    transform_scene,
)
from boxcalib import io as bio
from boxcalib.io import (
    MAX_COORDINATE_M,
    ParseError,
    RunConfig,
    config_from_dict,
    extrinsic_from_dict,
    extrinsic_to_dict,
    load_extrinsic,
    load_manifest,
    load_scene,
    load_state,
    save_extrinsic,
    save_scene,
    save_state,
    scene_to_dict,
)
from conftest import make_box, make_scene, spread_scene, yaw_transform


# ---- scene files ----


def test_scene_round_trip_is_lossless(tmp_path):
    boxes = [
        make_box((1 / 3, math.pi, -0.1), dims=(4.123456789, 2.0, 1.5), yaw=2.71828),
        make_box((5.0, -7.0, 0.25), dims=(3.3, 1.7, 1.4), yaw=0.0, label="car"),
    ]
    scene = make_scene(boxes, agent_id="roadside-7", frame_id=42)
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    loaded = load_scene(path)
    assert loaded.agent_id == "roadside-7"
    assert loaded.frame_id == 42
    for a, b in zip(scene, loaded):
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.dims, b.dims)
        assert a.yaw == b.yaw
        assert a.confidence == b.confidence
        assert a.label == b.label


def test_a_tiny_negative_yaw_round_trips_as_zero(tmp_path):
    # -1e-17 % 2*pi rounds to 2*pi itself, which the box folds to 0.0
    scene = make_scene([make_box((0, 0, 0), yaw=-1e-17), make_box((9, 0, 0), yaw=-5e-324)])
    save_scene(scene, tmp_path / "scene.json")
    loaded = load_scene(tmp_path / "scene.json")
    assert [b.yaw for b in scene] == [b.yaw for b in loaded] == [0.0, 0.0]


def test_class_key_maps_to_the_label_field(tmp_path):
    scene = make_scene([make_box((0, 0, 0), label="pedestrian")])
    doc = scene_to_dict(scene)
    assert doc["boxes"][0]["class"] == "pedestrian"
    unlabeled = scene_to_dict(make_scene([make_box((0, 0, 0))]))
    assert "class" not in unlabeled["boxes"][0]


def scene_doc(**box_overrides):
    box = {"center": [0, 0, 0], "dims": [4, 2, 1.5], "yaw": 0.3}
    box.update(box_overrides)
    return {"agent_id": "a", "frame_id": 0, "boxes": [box]}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_yaw_can_be_given_in_degrees(tmp_path):
    doc = scene_doc()
    del doc["boxes"][0]["yaw"]
    doc["boxes"][0]["yaw_deg"] = 90.0
    scene = load_scene(write_json(tmp_path, "s.json", doc))
    assert scene[0].yaw == pytest.approx(math.pi / 2)


def test_yaw_keys_are_mutually_exclusive(tmp_path):
    doc = scene_doc(yaw_deg=10.0)  # both yaw and yaw_deg present
    with pytest.raises(ParseError, match="exactly one"):
        load_scene(write_json(tmp_path, "s.json", doc))
    doc = scene_doc()
    del doc["boxes"][0]["yaw"]
    with pytest.raises(ParseError, match="exactly one"):
        load_scene(write_json(tmp_path, "s.json", doc))


def test_parse_errors_name_the_offending_field(tmp_path):
    doc = scene_doc(center=[0, 0])
    with pytest.raises(ParseError, match=r"boxes\[0\].center"):
        load_scene(write_json(tmp_path, "s.json", doc))
    doc = scene_doc(dims=[4, 2, "x"])
    with pytest.raises(ParseError, match=r"boxes\[0\].dims\[2\]"):
        load_scene(write_json(tmp_path, "s.json", doc))
    with pytest.raises(ParseError, match="agent_id"):
        load_scene(write_json(tmp_path, "s.json", {"frame_id": 0, "boxes": []}))
    with pytest.raises(ParseError, match="frame_id"):
        load_scene(
            write_json(tmp_path, "s.json", {"agent_id": "a", "frame_id": "x", "boxes": []})
        )
    with pytest.raises(ParseError, match="boxes"):
        load_scene(write_json(tmp_path, "s.json", {"agent_id": "a", "frame_id": 0, "boxes": 3}))


def test_box_invariant_violations_surface_as_parse_errors(tmp_path):
    doc = scene_doc(dims=[0.0, 2, 1.5])
    with pytest.raises(ParseError):
        load_scene(write_json(tmp_path, "s.json", doc))
    doc = scene_doc(confidence=1.5)
    with pytest.raises(ParseError):
        load_scene(write_json(tmp_path, "s.json", doc))
    doc = scene_doc(center=[math.inf, 0, 0])
    with pytest.raises(ParseError):
        load_scene(write_json(tmp_path, "s.json", json.loads(json.dumps(doc).replace("Infinity", "1e999"))))


HUGE = 10**400  # a JSON integer beyond float range: float() of it raises OverflowError


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("center", [0, HUGE, 0], "center[1]"),
        ("dims", [4, 2, -HUGE], "dims[2]"),
        ("yaw", HUGE, "yaw"),
        ("yaw_deg", -HUGE, "yaw_deg"),
        ("confidence", HUGE, "confidence"),
    ],
    ids=["center", "dims", "yaw", "yaw_deg", "confidence"],
)
def test_an_integer_beyond_float_range_is_a_parse_error_naming_its_field(tmp_path, capsys, key, value, where):
    doc = scene_doc(**{key: value})
    if key == "yaw_deg":
        del doc["boxes"][0]["yaw"]
    path = write_json(tmp_path, "s.json", doc)
    with pytest.raises(ParseError, match=r"expected a finite number, got an integer of 401 digits") as info:
        load_scene(path)
    assert info.value.where == f"boxes[0].{where}"
    good = tmp_path / "good.json"
    save_scene(spread_scene(3, seed=1), good)
    assert cli.main(["calibrate", str(path), str(good)]) == 2
    assert f"boxes[0].{where}: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        # json refuses an integer literal of more than 4300 digits with a plain ValueError
        (json.dumps(scene_doc()).replace('"yaw": 0.3', '"yaw": ' + "7" * 5000), "digits"),
        # and nesting deeper than the interpreter's recursion limit with a RecursionError
        ('{"agent_id": "a", "frame_id": 0, "boxes": ' + "[" * 100_000 + "]" * 100_000 + "}", "recursion"),
    ],
    ids=["digit limit", "nesting"],
)
def test_json_the_decoder_refuses_is_a_parse_error(tmp_path, capsys, text, message):
    path = tmp_path / "s.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_scene(path)
    good = tmp_path / "good.json"
    save_scene(spread_scene(3, seed=1), good)
    assert cli.main(["calibrate", str(path), str(good)]) == 2
    assert "s.json: <file>:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("dims", [4.0, -2.0, 1.5]), ("confidence", 1.5)],
    ids=["dims must be positive", "confidence must be in [0, 1]"],
)
def test_an_invalid_box_names_its_index_with_the_box_message(tmp_path, capsys, key, value):
    # the scene is built from arrays after every box is read; the row that
    # a box would refuse still names its index and the box's own message
    doc = scene_doc()
    doc["boxes"] += [dict(doc["boxes"][0], center=[9, 0, 0]), dict(doc["boxes"][0], center=[0, 9, 0], **{key: value})]
    path = write_json(tmp_path, "s.json", doc)
    with pytest.raises(ValueError) as refused:
        make_box((0, 9, 0), **{key: value})
    with pytest.raises(ParseError) as info:
        load_scene(path)
    assert info.value.where == "boxes[2]"
    assert str(info.value) == f"{path}: boxes[2]: {refused.value}"
    good = tmp_path / "good.json"
    save_scene(spread_scene(3, seed=1), good)
    assert cli.main(["calibrate", str(path), str(good)]) == 2
    assert f"boxes[2]: {refused.value}" in capsys.readouterr().err


def test_invalid_json_reports_the_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError, match="line 1"):
        load_scene(path)
    with pytest.raises(ParseError):
        load_scene(tmp_path / "missing.json")


# ---- extrinsic files ----


def test_extrinsic_round_trip_is_lossless(tmp_path):
    t = yaw_transform(1.234567, (3.3333333, -7.125, 0.5))
    path = tmp_path / "t.json"
    save_extrinsic(t, path)
    loaded = load_extrinsic(path)
    assert np.linalg.norm(loaded.rotation - t.rotation) < 1e-12
    assert np.linalg.norm(loaded.translation - t.translation) < 1e-12


def test_slightly_drifted_rotations_are_snapped(tmp_path):
    t = yaw_transform(0.8, (1.0, 2.0, 0.0))
    doc = extrinsic_to_dict(t)
    doc["rotation"] = [round(v, 8) for v in doc["rotation"]]  # drift below 1e-6
    loaded = extrinsic_from_dict(doc)
    r = loaded.rotation
    assert np.linalg.norm(r @ r.T - np.eye(3)) < 1e-12


def test_bad_extrinsics_are_rejected():
    with pytest.raises(ParseError, match="unknown key"):
        extrinsic_from_dict({"rotation": [0] * 9, "translation": [0] * 3, "scale": 1})
    with pytest.raises(ParseError, match="not orthonormal"):
        extrinsic_from_dict({"rotation": [2, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]})
    with pytest.raises(ParseError, match="determinant"):
        extrinsic_from_dict(
            {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, -1], "translation": [0, 0, 0]}
        )
    with pytest.raises(ParseError, match="rotation"):
        extrinsic_from_dict({"translation": [0, 0, 0]})


def test_extrinsic_integers_beyond_float_range_are_parse_errors(tmp_path):
    good = extrinsic_to_dict(yaw_transform(0.4, (1.0, 2.0, 0.0)))
    for key, k in (("rotation", 4), ("translation", 2)):
        doc = dict(good, **{key: [HUGE if i == k else v for i, v in enumerate(good[key])]})
        with pytest.raises(ParseError, match=re.escape(f"{key}[{k}]: expected a finite number")):
            extrinsic_from_dict(doc)
        with pytest.raises(ParseError, match=re.escape(f"{key}[{k}]")):
            load_extrinsic(write_json(tmp_path, "t.json", doc))


# ---- monitor state files ----


def test_state_round_trip_both_shapes(tmp_path):
    calibrated = MonitorState(
        yaw_transform(0.5, (1, 2, 3)), MonitorStatus.CALIBRATED, (5.0, 0.25), 17
    )
    path = tmp_path / "state.json"
    save_state(calibrated, path)
    loaded = load_state(path)
    assert loaded.status is MonitorStatus.CALIBRATED
    assert loaded.frame_count == 17
    assert loaded.last_health == (5.0, 0.25)
    assert np.linalg.norm(
        loaded.current_extrinsic.rotation - calibrated.current_extrinsic.rotation
    ) < 1e-12

    fresh = MonitorState.initial()
    save_state(fresh, path)
    loaded = load_state(path)
    assert loaded.status is MonitorStatus.UNCALIBRATED
    assert loaded.current_extrinsic is None
    assert loaded.last_health is None

    # a held extrinsic that no box pair supports: its mean distance is inf
    unsupported = MonitorState(
        yaw_transform(0.5, (1, 2, 3)), MonitorStatus.DEGRADED, (0.0, math.inf), 18
    )
    save_state(unsupported, path)
    assert json.loads(path.read_text())["last_health"] == [0.0, None]
    assert load_state(path).last_health == (0.0, math.inf)


def test_state_writer_refuses_other_non_finite_values(tmp_path):
    path = tmp_path / "state.json"
    with pytest.raises(ValueError):
        save_state(MonitorState(None, MonitorStatus.UNCALIBRATED, (math.nan, 1.0), 3), path)
    assert not path.exists()


def test_state_files_are_validated(tmp_path):
    with pytest.raises(ParseError, match="status"):
        load_state(write_json(tmp_path, "s.json", {"status": "Confused", "frame_count": 0,
                                                   "last_health": None, "extrinsic": None}))
    with pytest.raises(ParseError, match="unknown key"):
        load_state(write_json(tmp_path, "s.json", {"status": "Uncalibrated", "frame_count": 0,
                                                   "last_health": None, "extrinsic": None,
                                                   "bogus": 1}))
    with pytest.raises(ParseError):
        load_state(write_json(tmp_path, "s.json", {"status": "Calibrated", "frame_count": 0,
                                                   "last_health": None, "extrinsic": None}))
    with pytest.raises(ParseError, match="frame_count"):
        load_state(write_json(tmp_path, "s.json", {"status": "Uncalibrated", "frame_count": -1,
                                                   "last_health": None, "extrinsic": None}))


def test_state_integers_beyond_float_range_are_parse_errors(tmp_path):
    extrinsic = extrinsic_to_dict(yaw_transform(0.5, (1, 2, 3)))
    base = {"status": "Calibrated", "frame_count": 3, "last_health": [5, 0.25], "extrinsic": extrinsic}
    for change, where in [
        ({"last_health": [HUGE, 0.25]}, "last_health[0]"),
        ({"last_health": [5, -HUGE]}, "last_health[1]"),
        ({"extrinsic": dict(extrinsic, translation=[0, HUGE, 0])}, "translation[1]"),
    ]:
        with pytest.raises(ParseError, match=re.escape(f"{where}: expected a finite number")):
            load_state(write_json(tmp_path, "s.json", dict(base, **change)))
    assert load_state(write_json(tmp_path, "s.json", base)).last_health == (5.0, 0.25)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_state_and_extrinsic_files_get_the_mode_of_a_scene_file(tmp_path, umask):
    # a consumer running as another user reads the monitor's files as it
    # reads a scene file: both are created 0o666 under the umask
    state = MonitorState(yaw_transform(0.5, (1, 2, 3)), MonitorStatus.CALIBRATED, (5.0, 0.25), 1)
    previous = os.umask(umask)
    try:
        save_scene(spread_scene(3, seed=1), tmp_path / "scene.json")
        save_state(state, tmp_path / "state.json")
        save_extrinsic(state.current_extrinsic, tmp_path / "extrinsic.json")
        save_state(state, tmp_path / "state.json")  # a replaced file too
    finally:
        os.umask(previous)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["scene.json", "state.json", "extrinsic.json"], 0o666 & ~umask)


def test_a_failed_atomic_write_leaves_no_file_beside_its_target_and_names_it(tmp_path):
    target = tmp_path / "state.json"
    target.mkdir()  # the rename over a directory fails after the write
    with pytest.raises(OSError) as info:
        save_state(MonitorState.initial(), target)
    assert info.value.filename == str(target)
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"] and target.is_dir()


# ---- run configuration ----


FULL_CONFIG = {
    "odist": {"tau": 2.5, "alpha": 1.0, "beta": 0.5},
    "top_k": 10,
    "monitor": {"theta_boot": 0.5, "theta_monitor": 0.75, "min_confidence": 4},
    "synth": {"n_boxes": 9, "x_range": [-20, 20], "min_separation": 4.0, "seed": 5},
    "noise": {"sigma_pos": 0.5, "yaw_std_deg": 10.0, "seed": 1},
}


def test_config_sections_load_and_default(tmp_path):
    cfg = config_from_dict(FULL_CONFIG)
    assert cfg.odist.tau == 2.5
    assert cfg.top_k == 10
    assert cfg.monitor.min_confidence == 4
    assert cfg.synth.n_boxes == 9
    assert cfg.synth.x_range == (-20.0, 20.0)
    assert cfg.noise.sigma_pos == 0.5
    empty = config_from_dict({})
    assert empty.odist.tau == 3.0
    assert empty.top_k == 15


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ParseError, match="mystery"):
        config_from_dict({"mystery": 1})
    with pytest.raises(ParseError, match="odist.budget"):
        config_from_dict({"odist": {"budget": 1}})
    with pytest.raises(ParseError, match="odist"):
        config_from_dict({"odist": {"tau": 9.0}})
    with pytest.raises(ParseError, match="top_k"):
        config_from_dict({"top_k": 0})
    with pytest.raises(ParseError, match="top_k"):
        config_from_dict({"top_k": True})
    assert config_from_dict({"top_k": None}).top_k is None


def test_config_embeds_a_ground_truth_transform():
    t = yaw_transform(0.4, (2.0, 1.0, 0.0))
    cfg = config_from_dict({"synth": {"coop_transform": extrinsic_to_dict(t)}})
    assert np.linalg.norm(cfg.synth.coop_transform.rotation - t.rotation) < 1e-12


def test_config_applies_over_a_base():
    base = config_from_dict({"odist": {"beta": 0.0}, "top_k": 3})
    cfg = config_from_dict({"odist": {"alpha": 0.5}, "top_k": None}, "flags", base)
    assert (cfg.odist.alpha, cfg.odist.beta, cfg.top_k) == (0.5, 0.0, None)
    assert cfg.monitor == base.monitor
    # the section is checked in its final form
    with pytest.raises(ParseError, match="flags: odist: alpha and beta must not both be zero"):
        config_from_dict({"odist": {"alpha": 0}}, "flags", base)


@pytest.mark.parametrize("doc", [{"odist": 5}, {"odist": []}, {"monitor": ["theta_boot"]},
                                 {"synth": None}], ids=["number", "list", "names", "null"])
def test_config_section_that_is_not_an_object_exits_2(tmp_path, capsys, doc):
    # {"odist": 5} ended in a TypeError traceback, {"odist": []} loaded the defaults
    ego_path, coop_path, _ = write_pair(tmp_path)
    cfg_path = write_json(tmp_path, "cfg.json", doc)
    assert cli.main(["calibrate", str(ego_path), str(coop_path), "--config", str(cfg_path)]) == 2
    (section,) = doc
    assert f"{cfg_path}: {section}: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        # each loaded: the support gate was fractional, tau was True, and
        # n_boxes failed inside NumPy under synth
        ({"monitor": {"min_confidence": 2.5}}, "monitor.min_confidence: expected an integer, got 2.5"),
        ({"odist": {"tau": True}}, "odist.tau: expected a number, got True"),
        ({"synth": {"n_boxes": 2.5}}, "synth.n_boxes: expected an integer, got 2.5"),
    ],
    ids=["int", "float", "n_boxes"],
)
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, doc, message):
    ego_path, coop_path, _ = write_pair(tmp_path)
    cfg_path = write_json(tmp_path, "cfg.json", doc)
    assert cli.main(["calibrate", str(ego_path), str(coop_path), "--config", str(cfg_path)]) == 2
    assert f"{cfg_path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("noise", "sigma_pos"), ("synth", "min_separation"), ("odist", "tau")])
def test_config_number_beyond_float_range_exits_2(tmp_path, capsys, section, key):
    cfg_path = write_json(tmp_path, "cfg.json", {section: {key: HUGE}})
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"{cfg_path}: {section}.{key}: expected a number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_number_fields_take_integers():
    cfg = config_from_dict({"odist": {"tau": 2, "alpha": 1}, "noise": {"seed": 4}})
    assert (cfg.odist.tau, cfg.odist.alpha, cfg.noise.seed) == (2, 1, 4)


def test_every_config_flag_names_a_run_config_field():
    # a misspelt dest would fail only when its flag is given
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    sections = {f.name for f in dataclasses.fields(RunConfig)}
    dests = set()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            section, dot, name = action.dest.partition(".")
            if dot:
                assert section in sections, (command, action.dest)
                fields = {f.name for f in dataclasses.fields(getattr(RunConfig(), section))}
                assert name in fields, (command, action.dest)
                dests.add(action.dest)
    assert len(dests) == 9


# ---- CLI: calibrate ----


def write_pair(tmp_path, seed=3, n_boxes=8, yaw=0.9, shift=(6.0, -2.0, 0.3)):
    ego = spread_scene(n_boxes, seed=seed)
    t_true = yaw_transform(yaw, shift)
    coop = transform_scene(invert(t_true), ego)
    ego_path, coop_path = tmp_path / "ego.json", tmp_path / "coop.json"
    save_scene(ego, ego_path)
    save_scene(coop, coop_path)
    return ego_path, coop_path, t_true


def test_calibrate_identical_scenes_returns_identity(tmp_path, capsys):
    scene = spread_scene(5, seed=1)
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    rc = cli.main(["calibrate", str(path), str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    r = np.array(doc["rotation"]).reshape(3, 3)
    assert np.linalg.norm(r - np.eye(3)) < 1e-9
    assert np.linalg.norm(doc["translation"]) < 1e-9
    assert doc["health_confidence"] == 5
    assert doc["health_mean_distance"] == pytest.approx(0.0, abs=1e-9)


def test_calibrate_recovers_a_known_transform(tmp_path, capsys):
    ego_path, coop_path, t_true = write_pair(tmp_path)
    out_path = tmp_path / "estimate.json"
    rc = cli.main(["calibrate", str(ego_path), str(coop_path), "--out", str(out_path)])
    assert rc == 0
    capsys.readouterr()
    estimate = load_extrinsic(out_path)
    assert rre(t_true.rotation, estimate.rotation) < 1e-6
    assert rte(t_true.translation, estimate.translation) < 1e-6


def test_calibrate_match_indices_are_those_of_the_top_k_scenes(tmp_path, capsys):
    # 20 boxes, more than the default top 15, listed in reverse in the coop
    # file: the printed indices index the kept scenes, not the input files
    ego = spread_scene(20, seed=4)
    t_true = yaw_transform(0.9, (6.0, -2.0, 0.3))
    coop = make_scene(reversed(transform_scene(invert(t_true), ego).boxes))
    save_scene(ego, tmp_path / "ego.json")
    save_scene(coop, tmp_path / "coop.json")
    assert cli.main(["calibrate", str(tmp_path / "ego.json"), str(tmp_path / "coop.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    pairs = [(m["ego_index"], m["coop_index"]) for m in doc["matches"]]
    ego_k, coop_k = top_k_by_volume(ego, DEFAULT_TOP_K), top_k_by_volume(coop, DEFAULT_TOP_K)

    def gaps(ego_scene, coop_scene):  # meters between each matched pair under the truth
        return [np.linalg.norm(t_true.rotation @ coop_scene[j].center + t_true.translation - ego_scene[i].center)
                for i, j in pairs]

    assert len(pairs) == DEFAULT_TOP_K
    assert max(gaps(ego_k, coop_k)) < 1e-6
    assert max(gaps(ego, coop)) > 1.0  # the same indices read against the files
    seconds = [s for name, s in doc["trace"].items() if name.endswith("_s")]
    assert len(seconds) == 5 and all(math.isfinite(s) and s >= 0.0 for s in seconds)
    assert doc["trace"]["refinement_rounds"] >= 1 and doc["trace"]["sets_fitted"] >= 1


def test_calibrate_empty_coop_exits_no_covisible(tmp_path, capsys):
    ego = spread_scene(4, seed=2)
    save_scene(ego, tmp_path / "ego.json")
    save_scene(make_scene([], agent_id="coop"), tmp_path / "coop.json")
    rc = cli.main(["calibrate", str(tmp_path / "ego.json"), str(tmp_path / "coop.json")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_calibrate_parse_failure_exits_2_and_names_the_field(tmp_path, capsys):
    doc = scene_doc(center=[0, 0])
    bad = write_json(tmp_path, "bad.json", doc)
    good = tmp_path / "good.json"
    save_scene(spread_scene(3, seed=1), good)
    rc = cli.main(["calibrate", str(bad), str(good)])
    assert rc == 2
    assert "boxes[0].center" in capsys.readouterr().err


def test_calibrate_a_scene_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    ego_path, coop_path, _ = write_pair(tmp_path)
    doc = json.loads(ego_path.read_text())
    doc["boxes"][0]["class"] = "café"
    ego_path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    with pytest.raises(ParseError) as info:
        load_scene(ego_path)
    assert info.value.where == "<file>" and "'utf-8' codec can't decode byte 0xe9" in str(info.value)
    assert cli.main(["calibrate", str(ego_path), str(coop_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {ego_path}: <file>: 'utf-8' codec can't decode")
    assert captured.out == ""


def test_calibrate_missing_file_exits_2(tmp_path, capsys):
    rc = cli.main(["calibrate", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")])
    assert rc == 2
    capsys.readouterr()


def test_calibrate_degenerate_geometry_exits_4(tmp_path, capsys, monkeypatch):
    ego_path, coop_path, _ = write_pair(tmp_path)

    def explode(*args, **kwargs):
        raise DegenerateGeometry("matched corners are rank-deficient")

    monkeypatch.setattr(cli, "calibrate_scenes", explode)
    rc = cli.main(["calibrate", str(ego_path), str(coop_path)])
    assert rc == 4
    assert "rank-deficient" in capsys.readouterr().err


def test_calibrate_overflowing_coordinates_exits_2(tmp_path, capsys):
    # A center of 1e300 would overflow the refit's cross-covariance; it is
    # refused when the scene is read, as is a dimension beyond the bound.
    assert MAX_COORDINATE_M == 1e5
    spread = list(spread_scene(3, seed=5))
    far = make_scene(spread + [make_box((1e300, 0.0, 0.0), dims=(4.5, 1.9, 1.6))])
    huge = make_scene(spread + [make_box((0.0, 0.0, 0.0), dims=(4.5, 2e5, 1.6))])
    edge = make_scene(spread + [make_box((-1e5, 0.0, 0.0), dims=(4.5, 1.9, 1.6))])
    for scene, field in ((far, "boxes[3].center"), (huge, "boxes[3].dims")):
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        assert cli.main(["calibrate", str(path), str(path)]) == 2
        assert f"{field}: exceeds 100000 m" in capsys.readouterr().err
    save_scene(edge, tmp_path / "edge.json")
    assert load_scene(tmp_path / "edge.json").boxes[3].center[0] == -1e5


def test_retired_options_exit_2(tmp_path, capsys):
    # there is no mean-distance gate (tau1), no retry count (max_retries),
    # no guard switch (generic_guard: a guard_tolerance of 0 is off) and no
    # heading switch (try_yaw_flip: both coop headings are always scored)
    ego_path, coop_path, _ = write_pair(tmp_path)
    for section, key in (
        ("odist", "tau1"), ("monitor", "max_retries"), ("synth", "generic_guard"), ("odist", "try_yaw_flip")
    ):
        cfg_path = write_json(tmp_path, "cfg.json", {section: {key: 1}})
        rc = cli.main(["calibrate", str(ego_path), str(coop_path), "--config", str(cfg_path)])
        assert rc == 2
        assert f"{section}.{key}: unknown key" in capsys.readouterr().err
    for flag in ("--tau1", "--max-retries"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["monitor", str(tmp_path), "--out", str(tmp_path / "out"), flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_noisy_synth_pair_calibrates_within_a_meter(tmp_path, capsys):
    # the anchors that refine to the truth start with unrefined mean
    # distances of 1.5 m or more; a gate on that mean leaves one wrong
    # match 59.7 m off
    out = tmp_path / "pair"
    assert cli.main(["synth", "--seed", "3", "--n-boxes", "12", "--visibility", "0.8",
                     "--sigma", "0.3", "--yaw-std", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["calibrate", str(out / "ego.json"), str(out / "coop.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    truth = load_extrinsic(out / "extrinsic.json")
    assert rte(truth.translation, np.array(doc["translation"])) < 1.0
    assert rre(truth.rotation, np.array(doc["rotation"]).reshape(3, 3)) < 2.0
    assert len(doc["matches"]) >= 3


def test_out_of_range_flag_exits_2(tmp_path, capsys):
    ego_path, coop_path, _ = write_pair(tmp_path)
    rc = cli.main(["calibrate", str(ego_path), str(coop_path), "--tau", "9"])
    assert rc == 2
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_non_finite_scoring_weights_exit_2(tmp_path, capsys, flag, value):
    # a NaN weight made every distance NaN, so nothing paired and the
    # calibration exited 3 as if the scenes shared no object
    ego_path, coop_path, _ = write_pair(tmp_path)
    assert cli.main(["calibrate", str(ego_path), str(coop_path), flag, value]) == 2
    assert "alpha and beta must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("key", ["theta_boot", "theta_monitor"])
def test_non_finite_monitor_gates_exit_2(tmp_path, capsys, key, value):
    # Python's json parses NaN, and a NaN gate failed every health check:
    # a frame aligned at 1e-14 m raised an alert
    stream = write_stream(tmp_path, "stream", monitor_frames(1))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"monitor": {{"{key}": {value}}}}}')
    out = tmp_path / "out"
    assert cli.main(["monitor", str(stream), "--out", str(out), "--config", str(cfg_path)]) == 2
    assert "thresholds must be positive and finite" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    ego_path, coop_path, _ = write_pair(tmp_path)
    cfg_path = write_json(tmp_path, "cfg.json", {"top_k": 3})
    rc = cli.main(["calibrate", str(ego_path), str(coop_path), "--config", str(cfg_path)])
    assert rc == 0
    assert len(json.loads(capsys.readouterr().out)["matches"]) == 3
    rc = cli.main(
        ["calibrate", str(ego_path), str(coop_path), "--config", str(cfg_path), "--top-k", "5"]
    )
    assert rc == 0
    assert len(json.loads(capsys.readouterr().out)["matches"]) == 5


def test_top_k_all_overrides_the_config(tmp_path, capsys):
    # "all" parses to None, which once meant "flag not given": the file's
    # top_k, or the default 15, stayed in force
    out = tmp_path / "pair"
    assert cli.main(["synth", "--seed", "1", "--n-boxes", "20", "--out", str(out)]) == 0
    cfg_path = write_json(tmp_path, "cfg.json", {"top_k": 3})
    pair = [str(out / "ego.json"), str(out / "coop.json")]
    for config in ([], ["--config", str(cfg_path)]):
        capsys.readouterr()
        assert cli.main(["calibrate", *pair, *config, "--top-k", "all"]) == 0
        assert len(json.loads(capsys.readouterr().out)["matches"]) == 20


@pytest.mark.parametrize("value", ["0", "-1", "none", "inf", "2.5", "ALL"])
def test_top_k_other_than_a_positive_integer_or_all_exits_2(tmp_path, capsys, value):
    # "all" is the one spelling that keeps every box
    ego_path, coop_path, _ = write_pair(tmp_path)
    try:
        code = cli.main(["calibrate", str(ego_path), str(coop_path), "--top-k", value])
    except SystemExit as exc:  # argparse rejects what int() cannot read
        code = exc.code
    assert code == 2
    assert "top" in capsys.readouterr().err


def test_flags_of_one_section_apply_together(tmp_path, capsys):
    ego_path, coop_path, _ = write_pair(tmp_path)
    cfg_path = write_json(tmp_path, "cfg.json", {"odist": {"beta": 0}})
    rc = cli.main(["calibrate", str(ego_path), str(coop_path), "--config", str(cfg_path),
                   "--alpha", "0", "--beta", "0.5"])
    assert rc == 0
    capsys.readouterr()


# ---- CLI: eval ----


def eval_fixture(tmp_path, offsets, with_null_gt=False, hopeless=False):
    """Manifest whose k-th entry has ground truth offset by offsets[k],
    so the pipeline's exact estimate shows exactly that trial error."""
    ego_path, coop_path, t_true = write_pair(tmp_path)
    entries = []
    for i, offset in enumerate(offsets):
        gt = RigidTransform(t_true.rotation, t_true.translation + [offset, 0.0, 0.0])
        gt_name = f"gt{i}.json"
        save_extrinsic(gt, tmp_path / gt_name)
        entries.append({"ego": "ego.json", "coop": "coop.json", "gt": gt_name})
    if with_null_gt:
        entries.append({"ego": "ego.json", "coop": "coop.json", "gt": None})
    if hopeless:
        save_scene(make_scene([], agent_id="coop"), tmp_path / "empty.json")
        entries = [{"ego": "ego.json", "coop": "empty.json", "gt": "gt0.json"}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


def test_manifest_paths_resolve_against_its_directory(tmp_path):
    manifest = eval_fixture(tmp_path, offsets=[0.5], with_null_gt=True)
    assert load_manifest(manifest) == [
        (tmp_path / "ego.json", tmp_path / "coop.json", tmp_path / "gt0.json"),
        (tmp_path / "ego.json", tmp_path / "coop.json", None),
    ]
    for doc, where in (
        ({"ego": "a.json"}, "<root>"),
        ([{"ego": "a.json"}], "[0]"),
        ([{"ego": "a.json", "coop": "b.json"}, {"ego": 5, "coop": "b.json"}], "[1]"),
        ([{"ego": "a.json", "coop": "b.json", "gt": 3}], "[0]"),
    ):
        path = write_json(tmp_path, "bad_manifest.json", doc)
        with pytest.raises(ParseError) as info:
            load_manifest(path)
        assert info.value.where == where


def read_csv(text):
    rows = list(csv.reader(text.strip().splitlines()))
    return rows[0], rows[1:]


def test_eval_hand_countable_fixture(tmp_path, capsys):
    manifest = eval_fixture(tmp_path, offsets=[0.5, 1.5, 2.5])
    rc = cli.main(["eval", str(manifest), "--lambda", "2"])
    assert rc == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header[:4] == ["lambda_m", "success_rate", "mrre_deg", "mrte_m"]
    row = dict(zip(header, rows[0]))
    assert float(row["success_rate"]) == pytest.approx(2 / 3, abs=1e-9)
    assert float(row["mrte_m"]) == pytest.approx(1.0, abs=1e-9)
    assert row["n_total"] == "3"
    assert row["n_valid"] == "2"


def test_eval_thresholds_produce_monotone_rows(tmp_path, capsys):
    manifest = eval_fixture(tmp_path, offsets=[0.5, 1.5, 2.5])
    rc = cli.main(["eval", str(manifest), "--lambda", "1", "--lambda", "2", "--lambda", "3"])
    assert rc == 0
    header, rows = read_csv(capsys.readouterr().out)
    rates = [float(dict(zip(header, r))["success_rate"]) for r in rows]
    assert len(rows) == 3
    assert rates == sorted(rates)


def test_eval_reports_missing_ground_truth_separately(tmp_path, capsys):
    manifest = eval_fixture(tmp_path, offsets=[0.5], with_null_gt=True)
    rc = cli.main(["eval", str(manifest)])
    assert rc == 0
    header, rows = read_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert row["n_missing_gt"] == "1"
    assert row["n_total"] == "1"


def test_eval_all_failures_leaves_means_empty(tmp_path, capsys):
    manifest = eval_fixture(tmp_path, offsets=[0.5], hopeless=True)
    rc = cli.main(["eval", str(manifest)])
    assert rc == 0
    header, rows = read_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert float(row["success_rate"]) == 0.0
    assert row["mrte_m"] == ""
    assert row["mrre_deg"] == ""


# ---- CLI: sweep ----


def test_sweep_grid_shape_and_success_row(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "--sigma", "0", "0.5", "--yaw-std", "0", "10",
         "--trials", "2", "--n-boxes", "6", "--seed", "1"]
    )
    assert rc == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["sigma_pos", "yaw_std_deg", "success_rate", "mrte_m", "mrre_deg", "n_trials"]
    assert len(rows) == 4
    zero_row = dict(zip(header, rows[0]))
    assert float(zero_row["success_rate"]) == 1.0
    assert float(zero_row["mrte_m"]) < 1e-6


def test_sweep_is_byte_identical_across_runs(tmp_path):
    args = ["sweep", "--sigma", "0", "1", "--yaw-std", "10", "--trials", "3",
            "--n-boxes", "6", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_flags_override_the_config(tmp_path):
    flags = ["sweep", "--sigma", "0", "1", "--yaw-std", "10", "--trials", "2", "--seed", "9",
             "--n-boxes", "6", "--visibility", "1.0"]
    cfg_path = write_json(tmp_path, "cfg.json", {"synth": {"n_boxes": 3, "visibility": 0.5}})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(flags + ["--out", str(a)]) == 0
    assert cli.main(flags + ["--config", str(cfg_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", ["x_range", "y_range", "z_range"])
def test_sweep_config_range_whose_span_overflows_exits_2_naming_the_field(tmp_path, capsys, name):
    # the sweep placed infinite centers and exited 2 with "non-finite values"
    cfg_path = write_json(tmp_path, "cfg.json", {"synth": {name: [-1e308, 1e308]}})
    args = ["sweep", "--config", str(cfg_path), "--trials", "1", "--sigma", "0", "--yaw-std", "0"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert f"{cfg_path}: synth: {name} must span a finite max - min" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["sweep", "eval"])
def test_invalid_success_threshold_exits_2_before_any_trial(
    tmp_path, capsys, monkeypatch, command, value
):
    # --lambda nan reported success rate 0 for an exact recovery, and
    # --lambda 0 was rejected only after every trial had run
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "noise_sweep", no_trials)
    monkeypatch.setattr(cli, "trial_error", no_trials)
    if command == "sweep":
        args = ["sweep", "--trials", "1", "--sigma", "0", "--yaw-std", "0"]
    else:
        args = ["eval", str(eval_fixture(tmp_path, [0.0]))]
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--lambda", value])
    assert exc.value.code == 2
    assert "--lambda: must be positive and finite" in capsys.readouterr().err


# ---- CLI: monitor ----


def write_stream(tmp_path, name, frames):
    stream = tmp_path / name
    stream.mkdir()
    for i, (ego, coop) in enumerate(frames):
        save_scene(ego, stream / f"{i:02d}.ego.json")
        save_scene(coop, stream / f"{i:02d}.coop.json")
    return stream


def monitor_frames(n_clean, n_drifted=0):
    ego = spread_scene(6, seed=12)
    t_true = yaw_transform(0.6, (4.0, 1.0, 0.2))
    coop = transform_scene(invert(t_true), ego)
    drifted = RigidTransform(t_true.rotation, t_true.translation + [2.0, 0.0, 0.0])
    coop_drifted = transform_scene(invert(drifted), ego)
    return [(ego, coop)] * n_clean + [(ego, coop_drifted)] * n_drifted


def read_events(out_dir):
    lines = (out_dir / "events.jsonl").read_text().strip().splitlines()
    return [json.loads(line) for line in lines]


def test_monitor_clean_stream(tmp_path, capsys):
    stream = write_stream(tmp_path, "stream", monitor_frames(4))
    out = tmp_path / "out"
    rc = cli.main(["monitor", str(stream), "--out", str(out)])
    assert rc == 0
    assert "status: Calibrated after 4 frames" in capsys.readouterr().out
    events = read_events(out)
    assert [e["kind"] for e in events] == ["BootCalibrated"] + ["HealthOk"] * 3
    assert (out / "state.json").exists()
    assert (out / "extrinsic.json").exists()


def test_monitor_recalibrates_on_drift(tmp_path, capsys):
    stream = write_stream(tmp_path, "stream", monitor_frames(2, n_drifted=2))
    out = tmp_path / "out"
    rc = cli.main(["monitor", str(stream), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    events = read_events(out)
    assert [e["kind"] for e in events] == [
        "BootCalibrated",
        "HealthOk",
        "Recalibrated",
        "HealthOk",
    ]
    assert events[2]["frame_id"] == 2


def test_monitor_writes_the_extrinsic_when_the_held_one_changes(tmp_path, capsys, monkeypatch):
    # a boot and three health frames write extrinsic.json once, a
    # recalibration writes it again, and a resumed run writes it on its
    # first frame; each frame writes its events, then the extrinsic, then
    # the state
    writes, save_extrinsic, save_state = [], bio.save_extrinsic, bio.save_state

    def extrinsic_spy(transform, path):
        writes.append(("extrinsic", len(read_events(path.parent))))
        save_extrinsic(transform, path)

    def state_spy(state, path):
        writes.append(("state", len(read_events(path.parent))))
        save_state(state, path)

    monkeypatch.setattr(bio, "save_extrinsic", extrinsic_spy)
    monkeypatch.setattr(bio, "save_state", state_spy)
    frames = monitor_frames(4, n_drifted=2)
    out = tmp_path / "out"
    assert cli.main(["monitor", str(write_stream(tmp_path, "first", frames)), "--out", str(out)]) == 0
    assert [e["kind"] for e in read_events(out)] == ["BootCalibrated"] + ["HealthOk"] * 3 + ["Recalibrated", "HealthOk"]
    assert writes == [
        ("extrinsic", 1), ("state", 1), *[("state", k) for k in (2, 3, 4)],
        ("extrinsic", 5), ("state", 5), ("state", 6),
    ]
    held = (out / "extrinsic.json").read_bytes()
    writes.clear()
    assert cli.main(["monitor", str(write_stream(tmp_path, "second", frames[-2:])), "--out", str(out)]) == 0
    capsys.readouterr()
    assert writes == [("extrinsic", 7), ("state", 7), ("state", 8)]
    assert (out / "extrinsic.json").read_bytes() == held


def test_monitor_resume_replays_identically(tmp_path, capsys):
    frames = monitor_frames(2, n_drifted=2)
    full_stream = write_stream(tmp_path, "full", frames)
    out_full = tmp_path / "out_full"
    cli.main(["monitor", str(full_stream), "--out", str(out_full)])

    first = write_stream(tmp_path, "first", frames[:2])
    second = write_stream(tmp_path, "second", frames[2:])
    out_split = tmp_path / "out_split"
    cli.main(["monitor", str(first), "--out", str(out_split)])
    cli.main(["monitor", str(second), "--out", str(out_split)])
    capsys.readouterr()

    full_events = [(e["kind"], e["attempt"]) for e in read_events(out_full)]
    split_events = [(e["kind"], e["attempt"]) for e in read_events(out_split)]
    assert split_events == full_events
    full_state = json.loads((out_full / "state.json").read_text())
    split_state = json.loads((out_split / "state.json").read_text())
    assert split_state == full_state


def test_split_monitor_run_writes_the_same_bytes(tmp_path, capsys):
    # the held extrinsic is reloaded at the split and kept to the end, so
    # the resumed run works on the rotation exactly as it was written
    frames = monitor_frames(5)
    out_full, out_split = tmp_path / "out_full", tmp_path / "out_split"
    assert cli.main(["monitor", str(write_stream(tmp_path, "full", frames)),
                     "--out", str(out_full)]) == 0
    for name, part in (("first", frames[:2]), ("second", frames[2:])):
        assert cli.main(["monitor", str(write_stream(tmp_path, name, part)),
                         "--out", str(out_split)]) == 0
    capsys.readouterr()
    assert [e["kind"] for e in read_events(out_split)] == ["BootCalibrated"] + ["HealthOk"] * 4
    for name in ("state.json", "extrinsic.json"):
        assert (out_split / name).read_bytes() == (out_full / name).read_bytes()


@pytest.mark.parametrize("gap", ["no_valid_pair", "unreadable"])
def test_monitor_resumes_after_a_failed_frame(tmp_path, capsys, gap):
    ego = spread_scene(6, seed=12)
    # frame 1 leaves the held extrinsic without a valid pair, or cannot be
    # read; the drift after it recalibrates, so both runs end on a computed
    # extrinsic rather than one snapped on load
    frames = (
        monitor_frames(1) + [(ego, make_scene([], agent_id="coop"))]
        + monitor_frames(0, n_drifted=2)
    )
    full = write_stream(tmp_path, "full", frames)
    first = write_stream(tmp_path, "first", frames[:2])
    if gap == "unreadable":
        for stream in (full, first):
            (stream / "01.coop.json").write_text("{ garbage")
    out_full = tmp_path / "out_full"
    assert cli.main(["monitor", str(full), "--out", str(out_full)]) == 0

    out_split = tmp_path / "out_split"
    assert cli.main(["monitor", str(first), "--out", str(out_split)]) == 0
    assert cli.main(["monitor", str(write_stream(tmp_path, "second", frames[2:])),
                     "--out", str(out_split)]) == 0
    capsys.readouterr()

    full_events = [(e["frame_id"], e["kind"], e["attempt"]) for e in read_events(out_full)]
    split_events = [(e["frame_id"], e["kind"], e["attempt"]) for e in read_events(out_split)]
    assert split_events == full_events
    assert full_events[-1] == (3, "HealthOk", 0)
    full_state = json.loads((out_full / "state.json").read_text())
    assert json.loads((out_split / "state.json").read_text()) == full_state


def test_monitor_unreadable_frame_degrades_and_continues(tmp_path, capsys):
    frames = monitor_frames(3)
    stream = write_stream(tmp_path, "stream", frames)
    (stream / "01.coop.json").write_text("{ garbage")
    out = tmp_path / "out"
    rc = cli.main(["monitor", str(stream), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "frame 01" in captured.err
    events = read_events(out)
    assert [e["kind"] for e in events] == ["BootCalibrated", "DegradedEntered", "HealthOk"]
    assert events[1]["mean_distance"] is None
    assert "status: Calibrated after 3 frames" in captured.out


def test_monitor_records_a_frame_with_an_integer_beyond_float_range_as_unreadable(tmp_path, capsys):
    stream = write_stream(tmp_path, "stream", monitor_frames(3))
    doc = json.loads((stream / "01.coop.json").read_text())
    doc["boxes"][2]["confidence"] = HUGE
    (stream / "01.coop.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["monitor", str(stream), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "frame 01" in captured.err and "boxes[2].confidence: expected a finite number" in captured.err
    events = read_events(out)
    kinds = [(e["kind"], e["attempt"]) for e in events]
    assert kinds == [("BootCalibrated", 1), ("DegradedEntered", 0), ("HealthOk", 0)]
    assert events[1]["confidence"] == 0.0 and events[1]["mean_distance"] is None
    assert "status: Calibrated after 3 frames" in captured.out


def test_monitor_records_a_frame_that_is_not_utf8_as_unreadable(tmp_path, capsys):
    stream = write_stream(tmp_path, "stream", monitor_frames(3))
    bad = stream / "01.coop.json"
    bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
    out = tmp_path / "out"
    assert cli.main(["monitor", str(stream), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"frame 01: {bad}: <file>: 'utf-8' codec can't decode byte 0xff" in captured.err
    events = read_events(out)
    assert [(e["frame_id"], e["kind"]) for e in events] == [
        (0, "BootCalibrated"), (1, "DegradedEntered"), (2, "HealthOk")
    ]
    assert "status: Calibrated after 3 frames" in captured.out


def test_monitor_events_are_on_disk_before_the_state_of_their_frame(tmp_path, capsys, monkeypatch):
    # a run killed after any frame's state.json resumes with all of that
    # frame's events, and the events of every frame before it, on disk
    stream = write_stream(tmp_path, "stream", monitor_frames(2, n_drifted=3))
    (stream / "02.ego.json").write_text("{ garbage")
    out = tmp_path / "out"
    on_disk = []
    save_state = bio.save_state

    def spy(state, path):
        on_disk.append((state.frame_count, (out / "events.jsonl").read_text()))
        save_state(state, path)

    monkeypatch.setattr(bio, "save_state", spy)
    assert cli.main(["monitor", str(stream), "--out", str(out)]) == 0
    capsys.readouterr()
    events = read_events(out)
    assert [e["kind"] for e in events] == [
        "BootCalibrated", "HealthOk", "DegradedEntered", "Recalibrated", "HealthOk"
    ]
    assert [count for count, _ in on_disk] == [1, 2, 3, 4, 5]
    for count, text in on_disk:
        assert [json.loads(line) for line in text.splitlines()] == [e for e in events if e["frame_id"] < count]


def test_monitor_lost_covisibility_alert_vs_degraded(tmp_path, capsys):
    ego = spread_scene(6, seed=12)
    empty = make_scene([], agent_id="coop")
    frames = monitor_frames(1) + [(ego, empty)]
    stream = write_stream(tmp_path, "stream", frames)
    out = tmp_path / "out"
    rc = cli.main(["monitor", str(stream), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    events = read_events(out)
    assert [(e["kind"], e["attempt"]) for e in events] == [
        ("BootCalibrated", 1),
        ("DegradedEntered", 1),
    ]
    state = json.loads((out / "state.json").read_text())
    assert state["status"] == "Degraded"
    assert state["extrinsic"] is not None


def test_monitor_flags_override_the_config(tmp_path, capsys):
    # the held extrinsic is 0.15 m off on the second frame: health 0.3 m
    (ego, coop), = monitor_frames(1)
    nudged = transform_scene(RigidTransform(np.eye(3), np.array([0.0, 0.15, 0.0])), coop)
    stream = write_stream(tmp_path, "stream", [(ego, coop), (ego, nudged)])
    cfg_path = write_json(tmp_path, "cfg.json", {"monitor": {"theta_monitor": 0.1}})
    flagged, configured = tmp_path / "flagged", tmp_path / "configured"
    assert cli.main(["monitor", str(stream), "--out", str(configured),
                     "--config", str(cfg_path)]) == 0
    assert cli.main(["monitor", str(stream), "--out", str(flagged), "--config", str(cfg_path),
                     "--theta-boot", "0.5", "--theta-monitor", "0.5"]) == 0
    capsys.readouterr()
    assert [e["kind"] for e in read_events(configured)] == ["BootCalibrated", "Recalibrated"]
    assert [e["kind"] for e in read_events(flagged)] == ["BootCalibrated", "HealthOk"]


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_monitor_stream_that_is_not_a_directory_exits_2(tmp_path, capsys, kind):
    # a missing stream ran no frame, exited 0 and created --out
    stream = tmp_path / "stream"
    if kind == "file":
        stream.write_text("")
    out = tmp_path / "out"
    assert cli.main(["monitor", str(stream), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {stream}: not a directory\n"
    assert not out.exists()


# ---- CLI: synth ----


def test_synth_produces_a_consistent_fixture(tmp_path, capsys):
    out = tmp_path / "synth"
    rc = cli.main(["synth", "--out", str(out), "--n-boxes", "6", "--seed", "4"])
    assert rc == 0
    capsys.readouterr()
    ego = load_scene(out / "ego.json")
    coop = load_scene(out / "coop.json")
    t_true = load_extrinsic(out / "extrinsic.json")
    assert len(ego) == 6
    report = calibrate_scenes(ego, coop)
    assert rre(t_true.rotation, report.transform.rotation) < 1e-9
    assert rte(t_true.translation, report.transform.translation) < 1e-9


def test_synth_is_deterministic_per_seed(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    cli.main(["synth", "--out", str(a), "--seed", "7"])
    cli.main(["synth", "--out", str(b), "--seed", "7"])
    cli.main(["synth", "--out", str(c), "--seed", "8"])
    capsys.readouterr()
    assert (a / "ego.json").read_bytes() == (b / "ego.json").read_bytes()
    assert (a / "ego.json").read_bytes() != (c / "ego.json").read_bytes()


def test_synth_noise_flags_perturb_the_output(tmp_path, capsys):
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    cli.main(["synth", "--out", str(clean), "--seed", "5"])
    cli.main(["synth", "--out", str(noisy), "--seed", "5", "--sigma", "0.5"])
    capsys.readouterr()
    a = load_scene(clean / "ego.json")
    b = load_scene(noisy / "ego.json")
    assert any(not np.array_equal(x.center, y.center) for x, y in zip(a, b))
    # ground truth file records the clean transform either way
    assert (clean / "extrinsic.json").read_bytes() == (noisy / "extrinsic.json").read_bytes()


def test_synth_flags_override_the_config(tmp_path, capsys):
    flags = ["synth", "--seed", "5", "--n-boxes", "6", "--visibility", "1", "--sigma", "0.2",
             "--yaw-std", "0"]
    cfg_path = write_json(tmp_path, "cfg.json", {
        "synth": {"n_boxes": 4, "visibility": 0.5},
        "noise": {"sigma_pos": 1.0, "yaw_std_deg": 3.0},
    })
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(flags + ["--out", str(a)]) == 0
    assert cli.main(flags + ["--config", str(cfg_path), "--out", str(b)]) == 0
    for name in ("ego.json", "coop.json", "extrinsic.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # a flag is checked like the config key it overrides
    assert cli.main(["synth", "--sigma", "-1", "--out", str(tmp_path / "c")]) == 2
    assert "sigma_pos" in capsys.readouterr().err


def test_non_finite_synth_noise_exits_2(tmp_path, capsys):
    # NaN passed the sigma_pos < 0 check and inject_noise adds noise only
    # when sigma_pos > 0, so noise-free scenes were written
    out = tmp_path / "out"
    assert cli.main(["synth", "--sigma", "nan", "--out", str(out)]) == 2
    assert "sigma_pos must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("min_separation", "NaN", "min_separation must be finite and positive"),
        ("min_separation", "Infinity", "min_separation must be finite and positive"),
        ("guard_tolerance", "NaN", "guard_tolerance must be finite and nonnegative"),
        ("guard_tolerance", "-1", "guard_tolerance must be finite and nonnegative"),
    ],
)
def test_impossible_synth_separation_settings_exit_2(tmp_path, capsys, key, value, message):
    # a NaN separation ended in a PlacementFailure traceback; a NaN or
    # negative tolerance silently switched the genericity guard off
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"synth": {{"{key}": {value}}}}}')
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["x_range", "y_range", "z_range"])
def test_reversed_synth_range_exits_2(tmp_path, capsys, name):
    # NumPy's "high - low < 0" named neither the file nor the field
    cfg_path = write_json(tmp_path, "cfg.json", {"synth": {name: [5, -5]}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"{cfg_path}: synth: {name} must be a finite" in capsys.readouterr().err
    assert not out.exists()


def test_unplaceable_synth_layout_exits_2(tmp_path, capsys):
    # three boxes 5 m apart do not fit in a 1 m square
    layout = {"n_boxes": 3, "x_range": [0, 1], "y_range": [0, 1]}
    cfg_path = write_json(tmp_path, "cfg.json", {"synth": layout})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: could not place 3 boxes")
    assert not out.exists()


# ---- CLI: --out destinations ----


def test_calibrate_unwritable_out_exits_2(tmp_path, capsys):
    ego_path, coop_path, _ = write_pair(tmp_path)
    out = tmp_path / "nodir" / "x.json"
    assert cli.main(["calibrate", str(ego_path), str(coop_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {out}: ")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coop.json", "ego.json"]


@pytest.mark.parametrize("command", ["sweep", "eval"])
def test_unwritable_csv_out_exits_2_before_any_trial(tmp_path, capsys, monkeypatch, command):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "noise_sweep", no_trials)
    monkeypatch.setattr(cli, "trial_error", no_trials)
    out = tmp_path / "nodir" / "x.csv"
    if command == "sweep":
        args = ["sweep", "--trials", "1"]
    else:
        args = ["eval", str(eval_fixture(tmp_path, [0.0]))]
    assert cli.main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: ")


@pytest.mark.parametrize("command", ["monitor", "synth"])
def test_out_directory_on_an_existing_file_exits_2(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("keep")
    args = [command]
    if command == "monitor":
        args.append(str(write_stream(tmp_path, "stream", monitor_frames(1))))
    assert cli.main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert out.read_text() == "keep"
