"""End-to-end acceptance checks.

One test per acceptance criterion, each printing a single PASS/FAIL line
with its measurements.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from boxcalib import (
    NoiseConfig,
    ODistParams,
    RigidTransform,
    SynthConfig,
    TrialError,
    WeightedCorrespondences,
    apply_transform,
    box_distance,
    calibrate_scenes,
    cli,
    generate_scene_pair,
    grid_product,
    health_check,
    inject_noise,
    invert,
    noise_sweep,
    random_yaw_transform,
    rre,
    rte,
    solve_assignment,
    summarize,
    transform_box,
    transform_scene,
    weighted_kabsch,
    with_flipped_yaw,
)
from boxcalib.io import save_scene
from conftest import (
    assignment_max_oracle,
    kabsch_oracle,
    make_scene,
    spread_scene,
    yaw_transform,
)


def verdict(n, ok, detail):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def seeded_trial(trial, base=1000, flip_coop=False):
    """Scene pair in the acceptance configuration: 15 boxes, visibility
    0.8, random yaw transform with translation up to ~30 m."""
    s_scene, s_transform = (
        int(s) for s in np.random.SeedSequence([base, trial]).generate_state(2, np.uint64)
    )
    transform = random_yaw_transform(np.random.default_rng(s_transform))
    cfg = SynthConfig(n_boxes=15, visibility=0.8, seed=s_scene, coop_transform=transform)
    ego, coop, t_true = generate_scene_pair(cfg)
    if flip_coop:
        coop = make_scene([with_flipped_yaw(b) for b in coop], agent_id=coop.agent_id)
    return ego, coop, t_true


def run_exact_recovery(n_trials, flip_coop=False, params=ODistParams(), timed_calls=1):
    """Per-frame worst errors and time; a frame's time is the fastest of
    timed_calls back-to-back calls (calibrate_scenes is deterministic)."""
    worst_rre = worst_rte = worst_time = 0.0
    failures = 0
    for trial in range(n_trials):
        ego, coop, t_true = seeded_trial(trial, flip_coop=flip_coop)
        elapsed = math.inf
        try:
            for _ in range(timed_calls):
                start = time.perf_counter()
                report = calibrate_scenes(ego, coop, params)
                elapsed = min(elapsed, time.perf_counter() - start)
        except Exception:
            failures += 1
            continue
        e_rot = rre(t_true.rotation, report.transform.rotation)
        e_tra = rte(t_true.translation, report.transform.translation)
        worst_rre = max(worst_rre, e_rot)
        worst_rte = max(worst_rte, e_tra)
        worst_time = max(worst_time, elapsed)
        if e_rot >= 1e-6 or e_tra >= 1e-6:
            failures += 1
    return failures, worst_rre, worst_rte, worst_time


def test_criterion_1_noise_free_exact_recovery():
    # the fastest of 3 calls keeps the machine's slow speed states out of the bound
    failures, worst_rre, worst_rte, worst_time = run_exact_recovery(100, timed_calls=3)
    ok = failures == 0 and worst_time < 0.1
    verdict(
        1,
        ok,
        f"100 trials, {100 - failures}/100 within 1e-6 deg / 1e-6 m "
        f"(worst RRE {worst_rre:.2e} deg, worst RTE {worst_rte:.2e} m, "
        f"slowest frame {worst_time * 1e3:.1f} ms as the fastest of 3 calls, bound 100 ms)",
    )


def test_criterion_2_assignment_matches_brute_force():
    rng = np.random.default_rng(12345)
    bad = 0
    zero_selected = 0
    for _ in range(1000):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        entries = rng.integers(0, 8, (n, m)).astype(float)
        if rng.random() < 0.25:
            entries[int(rng.integers(0, n)), :] = 0.0
        if rng.random() < 0.25:
            entries[:, int(rng.integers(0, m))] = 0.0
        matches = solve_assignment(entries)
        total = sum(mt.confidence for mt in matches)
        if abs(total - assignment_max_oracle(entries)) > 1e-9:
            bad += 1
        if any(entries[mt.ego_index, mt.coop_index] == 0.0 for mt in matches):
            zero_selected += 1
    ok = bad == 0 and zero_selected == 0
    verdict(
        2,
        ok,
        f"1000 random matrices up to 6x6: {1000 - bad}/1000 optimal, "
        f"{zero_selected} selections of zero entries",
    )


def test_criterion_3_weighted_kabsch_reductions():
    rng = np.random.default_rng(777)
    worst_equal = worst_rescale = worst_exact = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 13))
        src = rng.uniform(-20, 20, (n, 3))
        t = yaw_transform(rng.uniform(0, 2 * math.pi), rng.uniform(-15, 15, 3))
        exact_dst = apply_transform(t, src)
        noisy_dst = exact_dst + rng.normal(0, 0.05, (n, 3))

        ours = weighted_kabsch(WeightedCorrespondences(src, noisy_dst, np.ones(n)))
        r_ref, t_ref = kabsch_oracle(src, noisy_dst)
        worst_equal = max(
            worst_equal,
            float(np.linalg.norm(ours.transform.rotation - r_ref)),
            float(np.linalg.norm(ours.transform.translation - t_ref)),
        )

        w = rng.uniform(0.1, 3.0, n)
        scale = float(rng.uniform(1e-3, 1e3))
        a = weighted_kabsch(WeightedCorrespondences(src, noisy_dst, w)).transform
        b = weighted_kabsch(WeightedCorrespondences(src, noisy_dst, w * scale)).transform
        worst_rescale = max(
            worst_rescale,
            float(np.linalg.norm(a.rotation - b.rotation)),
            float(np.linalg.norm(a.translation - b.translation)),
        )

        exact = weighted_kabsch(WeightedCorrespondences(src, exact_dst, w))
        worst_exact = max(
            worst_exact,
            exact.rms_residual,
            float(np.linalg.norm(exact.transform.rotation - t.rotation)),
            float(np.linalg.norm(exact.transform.translation - t.translation)),
        )
    ok = worst_equal < 1e-12 and worst_rescale < 1e-12 and worst_exact < 1e-9
    verdict(
        3,
        ok,
        f"1000 correspondence sets: oracle gap {worst_equal:.2e} (bound 1e-12), "
        f"rescale gap {worst_rescale:.2e} (1e-12), exact-model residual "
        f"{worst_exact:.2e} (1e-9)",
    )


# Criterion 4's envelope is read at the harshest cell whose noise the
# distance gates can associate. Sigma sits on every center coordinate of
# both views, so under the true transform the true pairs of the sweep's
# own trials lie at a median box_distance of 2.8 m at (0.5 m, 25 deg),
# 59 % of them within tau = 3 m, the ceiling ODistParams allows; in every
# sigma >= 1.0 cell the median is 4.4 m or more and at most 23 % are
# admitted (8.8 m and 2.5 % at (2.0 m, 25 deg)), which leaves fits on one
# to three gated pairs. The test checks this premise on its own seeded
# scenes.
ENVELOPE_CELL = (0.5, 25.0)
EXTREME_CELL = (2.0, 25.0)


def true_pair_distances(sigma_pos, yaw_std_deg, n_trials=100, base=4000):
    """box_distance of every true pair under the true transform, after the
    sweep's independent noise is injected into both views.

    True pairs come from the noise-free scenes: a coop center mapped
    through the true transform lands on its own ego center, and the 5 m
    placement separation keeps every other ego center away.
    """
    distances = []
    for trial in range(n_trials):
        ego, coop, t_true = seeded_trial(trial, base=base)
        s_ego, s_coop = (
            int(s) for s in np.random.SeedSequence([base, trial, 1]).generate_state(2, np.uint64)
        )
        noisy_ego = inject_noise(ego, NoiseConfig(sigma_pos, yaw_std_deg, seed=s_ego))
        noisy_coop = inject_noise(coop, NoiseConfig(sigma_pos, yaw_std_deg, seed=s_coop))
        mapped = apply_transform(t_true, np.array([b.center for b in coop]))
        gap = np.linalg.norm(
            mapped[:, None, :] - np.array([b.center for b in ego])[None, :, :], axis=-1
        )
        for j, i in enumerate(gap.argmin(axis=1)):
            assert gap[j, i] < 1e-6
            distances.append(box_distance(noisy_ego[i], transform_box(t_true, noisy_coop[j])))
    return distances


def describe_cell(cell, summary):
    head = f"({cell[0]} m, {cell[1]:.0f} deg)"
    if summary.n_valid == 0:
        return f"{head} no trials within 3 m"
    return (
        f"{head} mRTE@3m {summary.mrte_m:.2f} m, mRRE@3m {summary.mrre_deg:.2f} deg "
        f"over {summary.n_valid}/{summary.n_total} trials"
    )


def test_criterion_4_noise_envelope():
    sigma_grid = (0.0, 0.5, 1.0, 2.0)
    yaw_grid = (0.0, 10.0, 25.0)
    start = time.perf_counter()
    cells = noise_sweep(
        grid_product(sigma_grid, yaw_grid),
        SynthConfig(n_boxes=15, visibility=0.8),
        n_trials=100,
        threshold_m=1.0,
        seed=0,
    )
    elapsed = time.perf_counter() - start
    by_cell = {(c.sigma_pos, c.yaw_std_deg): c for c in cells}
    rate = {key: c.summary.success_rate for key, c in by_cell.items()}
    problems = []

    zero = by_cell[(0.0, 0.0)].summary
    if zero.success_rate != 1.0 or not (zero.mrte_m < 1e-6):
        problems.append(
            f"zero cell not exact (success {zero.success_rate}, mRTE {zero.mrte_m})"
        )

    # the premise of the envelope cell: the gates admit its typical true
    # pair, and admit no typical true pair at any sigma >= 1.0
    tau = ODistParams().tau
    median = {
        cell: float(np.median(true_pair_distances(*cell)))
        for cell in [ENVELOPE_CELL] + [(s, y) for s in sigma_grid if s >= 1.0 for y in yaw_grid]
    }
    if not median[ENVELOPE_CELL] <= tau:
        problems.append(
            f"true-pair median distance {median[ENVELOPE_CELL]:.2f} m at the envelope "
            f"cell exceeds tau {tau}"
        )
    for cell, value in median.items():
        if cell[0] >= 1.0 and not value > tau:
            problems.append(f"true-pair median distance {value:.2f} m at {cell} within tau {tau}")

    # error envelope, read over the RTE<3m subset
    envelope = summarize(by_cell[ENVELOPE_CELL].trials, 3.0)
    extreme = summarize(by_cell[EXTREME_CELL].trials, 3.0)
    if envelope.n_valid == 0:
        problems.append("envelope cell: no trials within 3 m")
    elif not (envelope.mrte_m <= 2.0 and envelope.mrre_deg <= 4.0):
        problems.append(
            f"envelope cell exceeded: mRTE@3m {envelope.mrte_m:.2f} m (bound 2.0), "
            f"mRRE@3m {envelope.mrre_deg:.2f} deg (bound 4.0)"
        )

    # success@1m degrades along each axis, one-cell sampling noise allowed
    slack = 0.03
    for yaw in yaw_grid:
        rates = [rate[(s, yaw)] for s in sigma_grid]
        if any(b > a + slack for a, b in zip(rates, rates[1:])):
            problems.append(f"success not monotone in sigma at yaw {yaw}: {rates}")
    for sigma in sigma_grid:
        rates = [rate[(sigma, y)] for y in yaw_grid]
        if any(b > a + slack for a, b in zip(rates, rates[1:])):
            problems.append(f"success not monotone in yaw at sigma {sigma}: {rates}")

    # single-axis noise outlives combined noise (yaw-0 row vs diagonal)
    for sigma, yaw in ((0.5, 10.0), (1.0, 25.0), (2.0, 25.0)):
        if rate[(sigma, 0.0)] < rate[(sigma, yaw)] - slack:
            problems.append(
                f"pure-position row below combined cell at sigma {sigma}: "
                f"{rate[(sigma, 0.0)]} < {rate[(sigma, yaw)]}"
            )

    if elapsed >= 600:
        problems.append(f"sweep took {elapsed:.0f}s (bound 600s)")

    verdict(
        4,
        not problems,
        f"12-cell grid, 100 trials/cell in {elapsed:.0f}s; envelope cell "
        f"{describe_cell(ENVELOPE_CELL, envelope)}; extreme cell "
        f"{describe_cell(EXTREME_CELL, extreme)}; true-pair median distance "
        f"{median[ENVELOPE_CELL]:.2f} m at the envelope cell, "
        f"{min(v for c, v in median.items() if c[0] >= 1.0):.2f} m or more at "
        f"sigma >= 1.0 (tau {tau}); "
        + ("all sub-checks hold" if not problems else "; ".join(problems)),
    )


def test_criterion_5_metric_fixtures():
    problems = []
    s = summarize(
        [TrialError(1.0, 0.5), TrialError(2.0, 1.5), TrialError(3.0, 2.5)], 2.0
    )
    if s.success_rate != 2 / 3 or s.mrte_m != 1.0:
        problems.append(f"summary fixture: rate {s.success_rate}, mRTE {s.mrte_m}")

    eye = np.eye(3)

    def rot_z(deg):
        a = math.radians(deg)
        return np.array(
            [[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]]
        )

    if abs(rre(eye, eye)) > 1e-12:
        problems.append("rre of equal rotations not 0")
    if abs(rre(rot_z(30), rot_z(40)) - 10.0) > 1e-9:
        problems.append("rre of a 10 deg offset not 10")
    if abs(rre(eye, rot_z(180)) - 180.0) > 1e-9:
        problems.append("rre of an antipodal rotation not 180")
    if rte((0, 0, 0), (3, 4, 0)) != 5.0:
        problems.append("rte 3-4-5 not 5")
    if rte((1, 1, 1), (1, 1, 2)) != 1.0:
        problems.append("rte unit offset not 1")
    if rte((2, 2, 2), (2, 2, 2)) != 0.0:
        problems.append("rte of equal vectors not 0")
    verdict(5, not problems, "hand-countable summary and rre/rte examples exact"
            if not problems else "; ".join(problems))


def test_criterion_6_health_signal_shape():
    scene = spread_scene(10, seed=3, span=30.0, min_sep=8.0)
    deltas = np.linspace(0.0, 3.0, 61)
    confidences, means = [], []
    for delta in deltas:
        c, d = health_check(
            scene, scene, RigidTransform(np.eye(3), np.array([delta, 0.0, 0.0]))
        )
        confidences.append(c)
        means.append(d)

    problems = []
    if any(b < a - 1e-9 for a, b in zip(means, means[1:])):
        problems.append("mean distance decreased along the sweep")
    if any(b > a for a, b in zip(confidences, confidences[1:])):
        problems.append("confidence increased along the sweep")
    full = [i for i, c in enumerate(confidences) if c == 10]
    linear_gap = max(abs(means[i] - 2.0 * deltas[i]) for i in full)
    if linear_gap > 1e-9:
        problems.append(f"single-pairing regime not linear (gap {linear_gap:.2e})")
    if confidences[0] != 10 or means[0] != 0.0:
        problems.append("zero perturbation not a perfect health check")
    verdict(
        6,
        not problems,
        f"61-step translation sweep: D̄ = 2*delta to {linear_gap:.1e} over "
        f"{len(full)} single-pairing steps, then pairs drop together"
        if not problems
        else "; ".join(problems),
    )


def monitor_stream(tmp_path, name, frames):
    stream = tmp_path / name
    stream.mkdir()
    for i, (ego, coop) in enumerate(frames):
        save_scene(ego, stream / f"{i:02d}.ego.json")
        save_scene(coop, stream / f"{i:02d}.coop.json")
    return stream


def read_event_kinds(out_dir):
    lines = (out_dir / "events.jsonl").read_text().strip().splitlines()
    return [json.loads(line)["kind"] for line in lines]


def test_criterion_7_monitor_conformance(tmp_path, capsys):
    ego = spread_scene(6, seed=12)
    t_true = yaw_transform(0.6, (4.0, 1.0, 0.2))
    coop = transform_scene(invert(t_true), ego)
    drifted = RigidTransform(t_true.rotation, t_true.translation + [2.0, 0.0, 0.0])
    coop_drifted = transform_scene(invert(drifted), ego)
    empty = make_scene([], agent_id="coop")
    problems = []

    clean = monitor_stream(tmp_path, "clean", [(ego, coop)] * 10)
    assert cli.main(["monitor", str(clean), "--out", str(tmp_path / "out_clean")]) == 0
    kinds = read_event_kinds(tmp_path / "out_clean")
    if kinds != ["BootCalibrated"] + ["HealthOk"] * 9:
        problems.append(f"clean stream events {kinds}")

    drift_frames = [(ego, coop)] * 5 + [(ego, coop_drifted)] * 5
    drift = monitor_stream(tmp_path, "drift", drift_frames)
    assert cli.main(["monitor", str(drift), "--out", str(tmp_path / "out_drift")]) == 0
    kinds = read_event_kinds(tmp_path / "out_drift")
    expected = ["BootCalibrated"] + ["HealthOk"] * 4 + ["Recalibrated"] + ["HealthOk"] * 4
    if kinds != expected:
        problems.append(f"drift stream events {kinds}")

    lost_frames = [(ego, coop)] * 7 + [(ego, empty)] * 3
    lost = monitor_stream(tmp_path, "lost", lost_frames)
    assert cli.main(["monitor", str(lost), "--out", str(tmp_path / "out_lost")]) == 0
    kinds = read_event_kinds(tmp_path / "out_lost")
    expected = ["BootCalibrated"] + ["HealthOk"] * 6 + ["DegradedEntered"] * 3
    if kinds != expected:
        problems.append(f"lost-covisibility events {kinds}")
    lost_state = json.loads((tmp_path / "out_lost" / "state.json").read_text())
    if lost_state["status"] != "Degraded" or lost_state["extrinsic"] is None:
        problems.append(f"lost-covisibility final state {lost_state['status']}")

    first = monitor_stream(tmp_path, "first_half", drift_frames[:5])
    second = monitor_stream(tmp_path, "second_half", drift_frames[5:])
    out_split = tmp_path / "out_split"
    assert cli.main(["monitor", str(first), "--out", str(out_split)]) == 0
    assert cli.main(["monitor", str(second), "--out", str(out_split)]) == 0
    if read_event_kinds(out_split) != read_event_kinds(tmp_path / "out_drift"):
        problems.append("persisted state did not replay identically")
    split_state = json.loads((out_split / "state.json").read_text())
    full_state = json.loads((tmp_path / "out_drift" / "state.json").read_text())
    if split_state != full_state:
        problems.append("resumed final state differs from the straight run")

    capsys.readouterr()
    verdict(
        7,
        not problems,
        "clean / drift-at-5 / lost-covisibility streams and the persistence "
        "round trip all match the scripted event sequences"
        if not problems
        else "; ".join(problems),
    )


def test_criterion_8_yaw_flip_robustness():
    failures, worst_rre, worst_rte, _ = run_exact_recovery(100, flip_coop=True)
    verdict(
        8,
        not failures,
        "100/100 flipped-heading trials exact"
        if not failures
        else f"{failures}/100 flipped-heading trials missed the 1e-6 bounds "
        f"(worst RRE {worst_rre:.2e}, RTE {worst_rte:.2e})",
    )
