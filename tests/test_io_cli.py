"""File formats and the command-line surface."""
from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boxcalib import (
    DegenerateGeometry,
    MonitorState,
    MonitorStatus,
    RigidTransform,
    calibrate_scenes,
    cli,
    invert,
    rre,
    rte,
    transform_scene,
)
from boxcalib.io import (
    ParseError,
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


# ---- run configuration ----


FULL_CONFIG = {
    "odist": {"tau": 2.5, "tau1": 1.0, "alpha": 1.0, "beta": 0.5, "try_yaw_flip": False},
    "top_k": 10,
    "monitor": {"theta_boot": 0.5, "theta_monitor": 0.75, "max_retries": 2, "min_confidence": 3},
    "synth": {"n_boxes": 9, "x_range": [-20, 20], "min_separation": 4.0, "seed": 5},
    "noise": {"sigma_pos": 0.5, "yaw_std_deg": 10.0, "seed": 1},
}


def test_config_sections_load_and_default(tmp_path):
    cfg = config_from_dict(FULL_CONFIG)
    assert cfg.odist.tau == 2.5
    assert cfg.odist.try_yaw_flip is False
    assert cfg.top_k == 10
    assert cfg.monitor.min_confidence == 3
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


def test_calibrate_overflowing_coordinates_exits_4(tmp_path):
    # A center of 1e300 parses, but the refit's cross-covariance overflows,
    # and LAPACK's SVD may never return on it. A subprocess with a timeout
    # turns a hang into a failure.
    boxes = list(spread_scene(3, seed=5)) + [make_box((1e300, 0.0, 0.0), dims=(4.5, 1.9, 1.6))]
    path = tmp_path / "scene.json"
    save_scene(make_scene(boxes), path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "boxcalib.cli", "calibrate", str(path), str(path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 4
    assert "not finite" in proc.stderr


def test_out_of_range_flag_exits_2(tmp_path, capsys):
    ego_path, coop_path, _ = write_pair(tmp_path)
    rc = cli.main(["calibrate", str(ego_path), str(coop_path), "--tau", "9"])
    assert rc == 2
    assert "tau" in capsys.readouterr().err


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


def test_monitor_lost_covisibility_alert_vs_degraded(tmp_path, capsys):
    ego = spread_scene(6, seed=12)
    empty = make_scene([], agent_id="coop")
    frames = monitor_frames(1) + [(ego, empty)]
    stream = write_stream(tmp_path, "stream", frames)
    out = tmp_path / "out"
    rc = cli.main(["monitor", str(stream), "--out", str(out), "--max-retries", "2"])
    assert rc == 0
    capsys.readouterr()
    events = read_events(out)
    assert [e["kind"] for e in events] == [
        "BootCalibrated",
        "RetryExhausted",
        "RetryExhausted",
        "DegradedEntered",
    ]
    state = json.loads((out / "state.json").read_text())
    assert state["status"] == "Degraded"
    assert state["extrinsic"] is not None


def test_monitor_flags_override_the_config(tmp_path, capsys):
    ego = spread_scene(6, seed=12)
    frames = monitor_frames(1) + [(ego, make_scene([], agent_id="coop"))]
    stream = write_stream(tmp_path, "stream", frames)
    cfg_path = write_json(tmp_path, "cfg.json", {"monitor": {"max_retries": 5, "theta_boot": 0.1}})
    out = tmp_path / "out"
    rc = cli.main(["monitor", str(stream), "--out", str(out), "--config", str(cfg_path),
                   "--max-retries", "2", "--theta-boot", "0.5", "--theta-monitor", "0.5"])
    assert rc == 0
    capsys.readouterr()
    assert [e["kind"] for e in read_events(out)] == [
        "BootCalibrated", "RetryExhausted", "RetryExhausted", "DegradedEntered"
    ]


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
