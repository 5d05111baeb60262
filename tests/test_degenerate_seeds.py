"""A seed whose valid set fixes no yaw ends only its own hypothesis.

Every anchor is scored, a needle's too; the one degeneracy rule is
association._fit's, whether a valid set fixes a yaw. Refinement refits
every seed's valid set, one-pair sets included, and never keeps the
refit of a set that fixes no yaw (_fit's flag); calibrate_scenes raises
DegenerateGeometry only when the winner's own set fixes none, and
boxcalib calibrate then exits 4. The frames are built by hand: three
boxes seen by both agents under a yaw motion, plus an ego box of dims
(8, 3, 1) and a coop box of dims (1, 1, 6), too unlike to pair with each
other. Vertical needles of dims (1e-9, 1e-9, 2) are placed so that that
odd anchor's motion maps each coop needle onto an ego needle: its valid
set is the needle pairs. The needles' own anchors move the coop scene
as the odd anchor does, so they too score the needle pairs alone, and
refinement's five seeds hold such anchors. Two vertical needles stacked
at one xy fix no yaw, and neither does one. Two level needles apart in
xy fix one, and calibrate like any boxes.
"""
from __future__ import annotations

import numpy as np
import pytest

from boxcalib import (
    DegenerateGeometry,
    RigidTransform,
    apply_transform,
    calibrate_scenes,
    cli,
    invert,
    rre,
    rte,
    transform_scene,
)
from boxcalib import association
from boxcalib.io import save_scene

from conftest import make_box, make_scene

TRUTH = RigidTransform.from_yaw(0.4, (3.0, -2.0, 0.1))  # coop to ego
NEEDLE = (1e-9, 1e-9, 2.0)  # vertical
LEVEL_NEEDLE = (4.0, 1e-9, 1e-9)


def needle_frame(needles: int, shared: bool = True):
    """(ego, coop): the shared boxes if shared, the odd pair, and the
    needle pairs, stacked 2 m apart at one xy."""
    ego = [make_box((0.0, 0.0, 0.0), (4.5, 1.9, 1.6), 0.3), make_box((12.0, 3.0, 0.2), (6.0, 2.5, 3.0), 1.2),
           make_box((-5.0, 14.0, 0.0), (3.5, 1.7, 1.5), -0.8)] if shared else []
    coop = list(transform_scene(invert(TRUTH), make_scene(ego)))
    odd_e, odd_c = make_box((45.0, 40.0, 0.0), (8.0, 3.0, 1.0), 0.2), make_box((-40.0, 30.0, 0.0), (1.0, 1.0, 6.0), 1.0)
    turn = odd_e.yaw - odd_c.yaw
    motion = RigidTransform.from_yaw(turn)  # the odd anchor's rotation
    for k in range(needles):
        c = odd_c.center + (3.0, 1.0, 2.0 * k)
        coop.append(make_box(c, NEEDLE, 0.5))
        ego.append(make_box(odd_e.center + apply_transform(motion, c - odd_c.center), NEEDLE, 0.5 + turn))
    return make_scene([*ego, odd_e]), make_scene([*coop, odd_c])


def test_the_odd_anchor_is_a_seed_on_its_needles_alone():
    for needles in (1, 2):
        ego, coop = needle_frame(needles)
        odd = association.odist(ego, coop, len(ego) - 1, len(coop) - 1)
        assert odd.confidence == needles
        assert all(ego[i].dims[0] == coop[j].dims[0] == 1e-9 for i, j, _ in odd.valid_pairs)


@pytest.mark.parametrize("needles", [1, 2])
def test_a_losing_seed_that_fixes_no_yaw_leaves_the_true_calibration(needles, monkeypatch):
    ego, coop = needle_frame(needles)
    fitted = []
    fit = association._fit

    def spy(ego_a, coop_a, *sets):
        fitted.append(fit(ego_a, coop_a, *sets))
        return fitted[-1]

    monkeypatch.setattr(association, "_fit", spy)
    report = calibrate_scenes(ego, coop, top_k=None)
    assert not np.concatenate([fixed for *_, fixed in fitted]).all(), "no needle set was fitted"
    assert sorted((m.ego_index, m.coop_index) for m in report.matches) == [(0, 0), (1, 1), (2, 2)]
    assert rte(TRUTH.translation, report.transform.translation) <= 1e-9
    assert rre(TRUTH.rotation, report.transform.rotation) <= 1e-9


@pytest.mark.parametrize("needles", [1, 2])
def test_a_winning_seed_that_fixes_no_yaw_raises_and_exits_4(needles, tmp_path, capsys):
    ego, coop = needle_frame(needles, shared=False)
    with pytest.raises(DegenerateGeometry):
        calibrate_scenes(ego, coop)
    paths = tmp_path / "ego.json", tmp_path / "coop.json"
    save_scene(ego, paths[0])
    save_scene(coop, paths[1])
    assert cli.main(["calibrate", *map(str, paths)]) == 4
    assert "fixes no yaw" in capsys.readouterr().err


def test_two_level_needles_calibrate_like_any_boxes():
    # a level needle's axes fix a yaw, so its anchor seeds refinement
    ego = make_scene([make_box((0.0, 0.0, 0.0), LEVEL_NEEDLE, 0.3), make_box((9.0, 5.0, 0.5), LEVEL_NEEDLE, -1.1)])
    coop = transform_scene(invert(TRUTH), ego)
    report = calibrate_scenes(ego, coop)
    assert sorted((m.ego_index, m.coop_index) for m in report.matches) == [(0, 0), (1, 1)]
    assert rte(TRUTH.translation, report.transform.translation) <= 1e-9
    assert rre(TRUTH.rotation, report.transform.rotation) <= 1e-9


def test_one_vertical_needle_pair_raises_and_exits_4(tmp_path, capsys):
    # its anchor is scored and wins; its valid set fixes no yaw, which is
    # the degenerate geometry (exit 4), not an absence of co-visible boxes
    ego = make_scene([make_box((0.0, 0.0, 0.0), NEEDLE, 0.3)])
    coop = make_scene([make_box((3.0, 1.0, 0.0), NEEDLE, -0.2)])
    with pytest.raises(DegenerateGeometry):
        calibrate_scenes(ego, coop)
    paths = tmp_path / "ego.json", tmp_path / "coop.json"
    save_scene(ego, paths[0])
    save_scene(coop, paths[1])
    assert cli.main(["calibrate", *map(str, paths)]) == 4
    assert "fixes no yaw" in capsys.readouterr().err
