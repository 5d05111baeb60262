"""tools/stage_times.py on one frame of each workload, the dense one also
at the default top_k, which cuts its scenes."""
from __future__ import annotations

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"
ROWS = ("top-k", "scene pair", "anchor pass", "refinement", "health", "other", "total", "synthesis")
COUNTS = ("rounds", "sets fitted", "minor faults")  # per frame, one number a column


def test_stage_times_prints_every_stage_of_both_workloads():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "2", "--sweep-frames", "1", "--dense-frames", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert re.split(r"\s\s+", header)[1:] == ["sweep15 (1 frames)", "dense32 (1 frames)", "dense32 top-15 (1 frames)"]
    assert [line[:14].strip() for line in lines] == [*ROWS, *COUNTS]
    lines, counts = lines[: len(ROWS)], lines[len(ROWS) :]
    for line in lines:
        values = line[14:].split()  # three columns of "<ms> ms <share> %"
        assert len(values) == 12 and values[1::2] == ["ms", "%"] * 3
        assert all(float(v) >= 0.0 for v in values[::2]), line
    assert lines[ROWS.index("total")][14:].split()[2::4] == ["100.0"] * 3
    # the cut scenes' column scores the health anew on the full scenes
    health = lines[ROWS.index("health")][14:].split()[::4]
    assert float(health[2]) > 0.0, health
    synthesis = lines[ROWS.index("synthesis")]  # the frames' making, beside the calibration
    assert all(float(v) > 0.0 for v in synthesis[14:].split()[::4]), synthesis
    # each repeat builds the scenes' arrays anew (see the next test)
    scene_pair = lines[ROWS.index("scene pair")]
    assert all(float(v) > 0.0 for v in scene_pair[14:].split()[::4]), scene_pair
    # refinement fits at least the winner's valid set in at least one round
    rounds, sets, faults = ([float(v) for v in line[14:].split()] for line in counts)
    assert len(rounds) == len(sets) == len(faults) == 3
    assert all(1.0 <= r <= s for r, s in zip(rounds, sets)), counts
    assert all(f >= 0.0 for f in faults), counts


def test_every_repeat_calibrates_scenes_whose_arrays_are_yet_to_be_built(builds, monkeypatch, tmp_path):
    # a scene builds its arrays once, on first use, so repeats on the same
    # scene objects would time no scene pair after the first
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")  # the script sets them; restored after the test
    path = sys.path[:]  # the script puts src/ and bench/ first
    try:
        spec = importlib.util.spec_from_file_location("stage_times", TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
    finally:
        sys.path[:] = path
    frames = [tuple(tool.Sweep15(tool.SEED, tmp_path).frame(k)[:2]) for k in range(2)]
    builds.clear()
    _, counts = tool.stage_times(frames, tool.Sweep15.top_k, 3)
    assert builds == [len(s) for _ in range(3) for frame in frames for s in frame]
    # the counts are the trace's, averaged over the frames (both calibrate),
    # and the minor page faults of the repeats per frame and repeat
    assert counts.pop("minor faults") >= 0.0
    traces = [tool.calibrate_scenes(*frame, top_k=tool.Sweep15.top_k).trace for frame in frames]
    assert counts == {
        "rounds": sum(t.refinement_rounds for t in traces) / 2,
        "sets fitted": sum(t.sets_fitted for t in traces) / 2,
    }


def test_stage_times_rejects_a_repeat_count_below_one():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "0"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 2 and "--repeats" in done.stderr


def boxcalib_names(tree: ast.AST) -> set[str]:
    """The names a module binds to boxcalib or its contents; fails on an
    imported private name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "boxcalib":
            for alias in node.names:
                assert not alias.name.startswith("_"), f"imports boxcalib's {alias.name}"
                names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names if a.name.split(".")[0] == "boxcalib")
    return names


def root_name(node: ast.AST) -> str | None:
    """The name an attribute chain a.b.c starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_stage_times_reads_only_public_names_and_patches_nothing():
    # the tool reads the report's trace; a private name or an assigned
    # attribute of the package would tie it to the pipeline's layout again
    assert_reads_only_public_names_and_patches_nothing(TOOL)


def assert_reads_only_public_names_and_patches_nothing(tool: Path) -> None:
    tree = ast.parse(tool.read_text())
    names = boxcalib_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and root_name(node) in names:
            assert not node.attr.startswith("_"), f"line {node.lineno} reads {node.attr}"
            assert isinstance(node.ctx, ast.Load), f"line {node.lineno} assigns {node.attr}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("setattr", "delattr"), f"line {node.lineno} calls {node.func.id}"
            if node.func.id == "getattr" and root_name(node.args[0]) in names:
                attr = node.args[1]
                assert isinstance(attr, ast.Constant) and not attr.value.startswith("_"), f"line {node.lineno}"
