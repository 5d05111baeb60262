"""Command-line interface.

Subcommands:
  calibrate   estimate the coop-to-ego transform for one scene pair
  eval        score calibrations against ground truth over a manifest
  sweep       noise-robustness grid over synthetic scene pairs
  monitor     run the health/recalibration loop over a frame directory
  synth       generate a synthetic scene pair with known ground truth

Exit codes: 0 success, 2 unparseable input or usage error, 3 no co-visible
objects, 4 degenerate geometry.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import io as bio
from .association import NoCoVisibleObjects
from .metrics import summarize
from .monitor import MonitorState, step, unreadable_frame
from .pipeline import calibrate_scenes, trial_error
from .registration import DegenerateCorners, DegenerateGeometry, EmptyMatchSet
from .synth import (
    generate_scene_pair,
    grid_product,
    inject_noise,
    noise_sweep,
    random_yaw_transform,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_COVISIBLE = 3
EXIT_DEGENERATE = 4


def _parse_top_k(text: str):
    if text.lower() in ("all", "none", "inf"):
        return None
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("top-k must be >= 1 (or 'all')")
    return value


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON run configuration file")
    p.add_argument("--tau", type=float, dest="odist.tau", metavar="TAU",
                   help="pairing distance gate, meters")
    p.add_argument("--tau1", type=float, dest="odist.tau1", metavar="TAU1",
                   help="affinity mean-distance gate, meters")
    p.add_argument("--alpha", type=float, dest="odist.alpha", metavar="ALPHA",
                   help="weight of the center-distance term")
    p.add_argument("--beta", type=float, dest="odist.beta", metavar="BETA",
                   help="weight of the corner-distance term")
    p.add_argument("--top-k", type=_parse_top_k, dest="top_k",
                   help="keep only the k largest boxes per scene ('all' to disable)")


def _load_run_config(args) -> bio.RunConfig:
    """The --config file (or the defaults) with every flag given on the
    command line applied over it. A flag whose dest is "section.field"
    overrides that field; the flags of one section are applied together,
    so the section is validated only in its final form."""
    cfg = bio.load_config(args.config) if args.config else bio.RunConfig()
    sections: dict[str, dict] = {}
    for dest, value in vars(args).items():
        section, _, name = dest.partition(".")
        if name and value is not None:
            sections.setdefault(section, {})[name] = value
    cfg = dataclasses.replace(
        cfg,
        **{
            section: dataclasses.replace(getattr(cfg, section), **changes)
            for section, changes in sections.items()
        },
    )
    if args.top_k is not None:
        cfg = dataclasses.replace(cfg, top_k=args.top_k)
    return cfg


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path, header, rows) -> None:
    out = sys.stdout if path is None else open(path, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_calibrate(args) -> int:
    cfg = _load_run_config(args)
    ego = bio.load_scene(args.ego)
    coop = bio.load_scene(args.coop)
    report = calibrate_scenes(ego, coop, cfg.odist, cfg.top_k)
    json.dump(bio.report_to_dict(report), sys.stdout, indent=2)
    sys.stdout.write("\n")
    if args.out:
        bio.save_extrinsic(report.transform, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    trials = []
    times: list[float] = []
    n_missing_gt = 0
    for ego_path, coop_path, gt_path in bio.load_manifest(args.manifest):
        ego = bio.load_scene(ego_path)
        coop = bio.load_scene(coop_path)
        if gt_path is None:
            n_missing_gt += 1
            continue
        gt = bio.load_extrinsic(gt_path)
        start = time.perf_counter()
        trials.append(trial_error(ego, coop, gt, cfg.odist, cfg.top_k))
        times.append(time.perf_counter() - start)
    if not trials:
        print("no entries with ground truth to evaluate", file=sys.stderr)
        return EXIT_PARSE
    mean_time = float(np.mean(times))
    rows = []
    for threshold in args.thresholds or [1.0]:
        s = summarize(trials, threshold)
        rows.append(
            (s.threshold_m, s.success_rate, s.mrre_deg, s.mrte_m, mean_time,
             s.n_total, s.n_valid, n_missing_gt)
        )
    _write_csv(
        args.out,
        ["lambda_m", "success_rate", "mrre_deg", "mrte_m", "mean_time_s",
         "n_total", "n_valid", "n_missing_gt"],
        rows,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args)
    cells = noise_sweep(
        grid_product(tuple(args.sigma), tuple(args.yaw_std)),
        cfg.synth,
        n_trials=args.trials,
        threshold_m=args.threshold,
        seed=args.seed,
        params=cfg.odist,
        top_k=cfg.top_k,
    )
    rows = [
        (c.sigma_pos, c.yaw_std_deg, c.summary.success_rate,
         c.summary.mrte_m, c.summary.mrre_deg, c.summary.n_total)
        for c in cells
    ]
    _write_csv(
        args.out,
        ["sigma_pos", "yaw_std_deg", "success_rate", "mrte_m", "mrre_deg", "n_trials"],
        rows,
    )
    return EXIT_OK


def _stream_frames(stream_dir: Path):
    stems = sorted(
        {p.name[: -len(".ego.json")] for p in stream_dir.glob("*.ego.json")}
        | {p.name[: -len(".coop.json")] for p in stream_dir.glob("*.coop.json")}
    )
    for stem in stems:
        yield stem, stream_dir / f"{stem}.ego.json", stream_dir / f"{stem}.coop.json"


def cmd_monitor(args) -> int:
    cfg = _load_run_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    state_path = out_dir / "state.json"
    extrinsic_path = out_dir / "extrinsic.json"
    events_path = out_dir / "events.jsonl"

    if state_path.exists():
        state = bio.load_state(state_path)
    elif extrinsic_path.exists():
        state = MonitorState.initial(bio.load_extrinsic(extrinsic_path))
    else:
        state = MonitorState.initial()

    with open(events_path, "a") as events_file:
        for stem, ego_path, coop_path in _stream_frames(Path(args.stream)):
            try:
                ego = bio.load_scene(ego_path)
                coop = bio.load_scene(coop_path)
            except bio.ParseError as e:
                print(f"frame {stem}: {e}", file=sys.stderr)
                state, event = unreadable_frame(state)
                events_file.write(json.dumps(bio.event_to_dict(event)) + "\n")
                continue
            state, events = step(state, ego, coop, cfg.monitor, cfg.odist, cfg.top_k)
            for event in events:
                events_file.write(json.dumps(bio.event_to_dict(event)) + "\n")
            if state.current_extrinsic is not None:
                bio.save_extrinsic(state.current_extrinsic, extrinsic_path)
            bio.save_state(state, state_path)
    print(f"status: {state.status.value} after {state.frame_count} frames")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    seeds = np.random.SeedSequence(args.seed).generate_state(4, np.uint64)
    replacements = {"seed": int(seeds[0])}
    if cfg.synth.coop_transform is None:
        replacements["coop_transform"] = random_yaw_transform(
            np.random.default_rng(int(seeds[1]))
        )
    ego, coop, transform = generate_scene_pair(dataclasses.replace(cfg.synth, **replacements))
    ego = inject_noise(ego, dataclasses.replace(cfg.noise, seed=int(seeds[2])))
    coop = inject_noise(coop, dataclasses.replace(cfg.noise, seed=int(seeds[3])))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bio.save_scene(ego, out_dir / "ego.json")
    bio.save_scene(coop, out_dir / "coop.json")
    bio.save_extrinsic(transform, out_dir / "extrinsic.json")
    print(f"wrote ego.json, coop.json, extrinsic.json to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxcalib",
        description="Cross-agent LiDAR extrinsic calibration from 3D detection boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="calibrate one scene pair")
    p.add_argument("ego", type=Path, help="ego scene JSON")
    p.add_argument("coop", type=Path, help="coop scene JSON")
    _add_param_flags(p)
    p.add_argument("--out", type=Path, help="write the estimated extrinsic here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("eval", help="evaluate calibration over a manifest")
    p.add_argument("manifest", type=Path,
                   help="JSON list of {'ego', 'coop', 'gt'} file paths (gt may be null)")
    _add_param_flags(p)
    p.add_argument("--lambda", dest="thresholds", action="append", type=float,
                   metavar="METERS", help="success threshold; repeatable (default 1.0)")
    p.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="noise-robustness sweep on synthetic scenes")
    _add_param_flags(p)
    p.add_argument("--sigma", type=float, nargs="+", default=[0.0, 0.5, 1.0, 2.0],
                   help="center noise std grid, meters")
    p.add_argument("--yaw-std", type=float, nargs="+", default=[0.0, 10.0, 25.0],
                   help="yaw noise circular std grid, degrees")
    p.add_argument("--trials", type=int, default=100, help="trials per grid cell")
    p.add_argument("--lambda", dest="threshold", type=float, default=1.0,
                   metavar="METERS", help="success threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-boxes", dest="synth.n_boxes", metavar="N_BOXES", type=int)
    p.add_argument("--visibility", dest="synth.visibility", metavar="VISIBILITY", type=float)
    p.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("monitor", help="run the monitoring loop over a frame directory")
    p.add_argument("stream", type=Path,
                   help="directory of <stem>.ego.json / <stem>.coop.json frame pairs")
    _add_param_flags(p)
    p.add_argument("--theta-boot", dest="monitor.theta_boot", metavar="THETA_BOOT", type=float)
    p.add_argument("--theta-monitor", dest="monitor.theta_monitor", metavar="THETA_MONITOR",
                   type=float)
    p.add_argument("--max-retries", dest="monitor.max_retries", metavar="MAX_RETRIES", type=int)
    p.add_argument("--out", type=Path, default=Path("monitor_out"),
                   help="output directory (events.jsonl, state.json, extrinsic.json)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("synth", help="generate a synthetic scene pair")
    _add_param_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-boxes", dest="synth.n_boxes", metavar="N_BOXES", type=int)
    p.add_argument("--visibility", dest="synth.visibility", metavar="VISIBILITY", type=float)
    p.add_argument("--sigma", dest="noise.sigma_pos", metavar="SIGMA", type=float,
                   help="center noise std, meters")
    p.add_argument("--yaw-std", dest="noise.yaw_std_deg", metavar="YAW_STD", type=float,
                   help="yaw noise circular std, degrees")
    p.add_argument("--out", type=Path, default=Path("synth_out"))
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except bio.ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except NoCoVisibleObjects as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_COVISIBLE
    except (DegenerateCorners, DegenerateGeometry, EmptyMatchSet) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as e:
        # out-of-range flag values (e.g. --tau beyond its domain)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
