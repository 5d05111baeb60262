"""tools/calibration_digest.py's lines on one frame of each kind.

The digest is the bit-identity check between two checkouts, so each of
its line formatters must still read what it prints from boxcalib: here
they run on one Sweep15(501) frame, one Dense32(501) frame, frames that
raise and one monitor step, and every field of each line is read back
against the object it was printed from. The calibration lines of the
digest's Sweep15 and Dense32 frames are pinned by their sha256: a change
that moves a calibration on purpose re-pins the hash and says why.
"""
from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from boxcalib import (
    EventKind,
    MonitorState,
    MonitorStatus,
    ODistParams,
    build_affinity,
    calibrate_scenes,
    step,
    top_k_by_volume,
)
from boxcalib.pipeline import CALIBRATION_FAILURES

from conftest import make_box, make_scene
from test_degenerate_seeds import needle_frame

TOOL = Path(__file__).resolve().parent.parent / "tools" / "calibration_digest.py"


@pytest.fixture(scope="module")
def digest():
    path = sys.path[:]  # the script puts src/ and bench/ first
    try:
        spec = importlib.util.spec_from_file_location("calibration_digest", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


@pytest.fixture(scope="module")
def frames(digest, tmp_path_factory):
    """(ego, coop, top_k) of frame 0 of Sweep15(501) and of Dense32(501)."""
    work = tmp_path_factory.mktemp("digest")
    return [(*cls(digest.SEED, work).frame(0)[:2], cls.top_k) for cls in (digest.Sweep15, digest.Dense32)]


def transform_bytes(field):
    rotation, translation = field.split(":")
    return np.frombuffer(bytes.fromhex(rotation)), np.frombuffer(bytes.fromhex(translation))


def test_the_affinity_line_holds_the_affinity_bytes(digest, frames):
    for ego, coop, top_k in frames:
        word, entries, flips_word, flips = digest.affinity_line(ego, coop, top_k).split()
        affinity = build_affinity(top_k_by_volume(ego, top_k), top_k_by_volume(coop, top_k))
        assert (word, flips_word) == ("affinity", "flips")
        assert np.array_equal(np.frombuffer(bytes.fromhex(entries)), affinity.entries.ravel())
        assert np.array_equal(np.frombuffer(bytes.fromhex(flips), dtype=bool), affinity.coop_flip.ravel())


def test_the_calibration_line_holds_the_report(digest, frames):
    for ego, coop, top_k in frames:
        line = digest.calibration_line(ego, coop, top_k)
        report = calibrate_scenes(ego, coop, ODistParams(), top_k)
        head, tail = line.split(" transform ")
        word, *matches = head.split()
        transform, rms_word, rms, health_word, confidence, mean, rounds_word, rounds, sets_word, sets = tail.split()
        assert (word, rms_word, health_word, rounds_word, sets_word) == ("matches", "rms", "health", "rounds", "sets")
        shown = [(m.ego_index, m.coop_index, int(m.coop_yaw_flipped)) for m in report.matches]
        assert [tuple(map(int, m.split(","))) for m in matches] == shown and len(shown) > 0
        rotation, translation = transform_bytes(transform)
        assert np.array_equal(rotation, report.transform.rotation.ravel())
        assert np.array_equal(translation, report.transform.translation)
        assert float(rms) == report.rms_residual
        assert (float(confidence), float(mean)) == (report.health_confidence, report.health_mean_distance)
        assert (int(rounds), int(sets)) == (report.trace.refinement_rounds, report.trace.sets_fitted)


def test_the_raised_line_holds_the_exception_and_its_message(digest):
    far = make_scene([make_box((0, 0, 0), dims=(1, 1, 1))]), make_scene([make_box((0, 0, 0), dims=(14, 13, 12))])
    frames = {
        "NoCoVisibleObjects no anchor pair supports a consistent scene alignment": far,
        "DegenerateGeometry the winning valid set ((0, 0), (1, 1)) fixes no yaw": needle_frame(2, shared=False),
    }
    for want, (ego, coop) in frames.items():
        with pytest.raises(CALIBRATION_FAILURES) as raised:
            calibrate_scenes(ego, coop, ODistParams(), None)
        assert f"{type(raised.value).__name__} {raised.value}" == want
        assert digest.calibration_line(ego, coop, None) == f"raised {want}"


def test_the_calibration_lines_are_pinned(digest, tmp_path):
    # the calibration lines of the digest's Sweep15 and Dense32 frames, as
    # refinement gave them on PairScores; keeping its valid sets as index
    # arrays moved no output and no trace count
    text = hashlib.sha256()
    workloads = ("sweep15", digest.Sweep15, digest.SWEEP_TRIALS), ("dense32", digest.Dense32, digest.DENSE_FRAMES)
    for name, workload, count in workloads:
        frames = workload(digest.SEED, tmp_path)
        for k in range(count):
            ego, coop, *_ = frames.frame(k)
            text.update(f"{name} {k} {digest.calibration_line(ego, coop, frames.top_k)}\n".encode())
    assert text.hexdigest() == "464bc7f7e942856fc2e6e718ada8f5e33a302a382526af98e42eb26589217635"


def test_the_monitor_line_holds_the_events_and_the_state(digest, frames):
    ego, coop, _ = frames[0]
    state, events = step(MonitorState.initial(), ego, coop)
    shown, rest = digest.monitor_line(state, events).split(" status ")
    status, held_word, held = rest.split()
    kind, confidence, mean, attempt = shown.split(",")
    (event,) = events
    assert EventKind(kind) is event.kind is EventKind.BOOT_CALIBRATED
    assert (float(confidence), float(mean), int(attempt)) == (event.confidence, event.mean_distance, 1)
    assert (MonitorStatus(status), held_word) == (state.status, "held")
    rotation, translation = transform_bytes(held)
    assert np.array_equal(rotation, state.current_extrinsic.rotation.ravel())
    assert np.array_equal(translation, state.current_extrinsic.translation)
    assert digest.monitor_line(MonitorState.initial(), []) == " status Uncalibrated held none"
