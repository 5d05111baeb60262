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
import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io as bio
from .association import NoCoVisibleObjects
from .geometry import DegenerateGeometry
from .metrics import summarize
from .monitor import MonitorState, step, unreadable_frame
from .pipeline import calibrate_scenes, trial_error
from .synth import PlacementFailure, grid_product, noise_sweep, noisy_pair

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_COVISIBLE = 3
EXIT_DEGENERATE = 4


def _parse_top_k(text: str) -> int | None:
    """'all' disables the prefilter; config_from_dict checks any other k."""
    return None if text == "all" else int(text)


def _parse_threshold(text: str) -> float:
    value = float(text)
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _config_flag(p: argparse.ArgumentParser, flag: str, dest: str, type, help=None) -> None:
    """A flag that sets run-config field dest, "section.field" or a
    top-level field. A flag not given is absent from the parsed args."""
    p.add_argument(flag, dest=dest, type=type, default=argparse.SUPPRESS, help=help,
                   metavar=flag[2:].upper().replace("-", "_"))


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON run configuration file")
    _config_flag(p, "--tau", "odist.tau", float, "pairing distance gate, meters")
    _config_flag(p, "--alpha", "odist.alpha", float, "weight of the center-distance term")
    _config_flag(p, "--beta", "odist.beta", float, "weight of the corner-distance term")
    _config_flag(p, "--top-k", "top_k", _parse_top_k,
                 "keep only the k largest boxes per scene ('all' to disable)")


def _load_run_config(args) -> bio.RunConfig:
    """The --config file (or the defaults) with the flags given on the
    command line applied over it by the merge the file went through."""
    base = bio.load_config(args.config) if args.config else bio.RunConfig()
    names = {f.name for f in dataclasses.fields(bio.RunConfig)}
    flags: dict = {}
    for dest, value in vars(args).items():
        section, dot, name = dest.partition(".")
        if dot:
            flags.setdefault(section, {})[name] = value
        elif dest in names:
            flags[dest] = value
    return bio.config_from_dict(flags, "command line", base)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_out(path):
    """The CSV destination, stdout when path is None. Commands open it
    before their first trial, so an unwritable path fails at once."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def _write_csv(out, header, rows) -> None:
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])


def cmd_calibrate(args) -> int:
    cfg = _load_run_config(args)
    ego = bio.load_scene(args.ego)
    coop = bio.load_scene(args.coop)
    report = calibrate_scenes(ego, coop, cfg.odist, cfg.top_k)
    if args.out:
        bio.save_extrinsic(report.transform, args.out)
    json.dump(bio.report_to_dict(report), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    with _csv_out(args.out) as out:
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
            out,
            ["lambda_m", "success_rate", "mrre_deg", "mrte_m", "mean_time_s",
             "n_total", "n_valid", "n_missing_gt"],
            rows,
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args)
    with _csv_out(args.out) as out:
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
            out,
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
    if not args.stream.is_dir():
        print(f"error: {args.stream}: not a directory", file=sys.stderr)
        return EXIT_PARSE
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

    written = None  # the extrinsic this run last wrote: a health frame holds it unchanged
    with open(events_path, "a") as events_file:
        for stem, ego_path, coop_path in _stream_frames(args.stream):
            try:
                ego = bio.load_scene(ego_path)
                coop = bio.load_scene(coop_path)
            except bio.ParseError as e:
                print(f"frame {stem}: {e}", file=sys.stderr)
                state, event = unreadable_frame(state)
                events = [event]
            else:
                state, events = step(state, ego, coop, cfg.monitor, cfg.odist, cfg.top_k)
            for event in events:
                events_file.write(json.dumps(bio.event_to_dict(event), allow_nan=False) + "\n")
            events_file.flush()  # a resumed run must find every event of the state it resumes from
            if state.current_extrinsic is not None and state.current_extrinsic is not written:
                bio.save_extrinsic(state.current_extrinsic, extrinsic_path)
                written = state.current_extrinsic
            bio.save_state(state, state_path)
    print(f"status: {state.status.value} after {state.frame_count} frames")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    ego, coop, transform = noisy_pair(cfg.synth, cfg.noise, np.random.SeedSequence(args.seed))
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
    p.add_argument("--lambda", dest="thresholds", action="append", type=_parse_threshold,
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
    p.add_argument("--lambda", dest="threshold", type=_parse_threshold, default=1.0,
                   metavar="METERS", help="success threshold")
    p.add_argument("--seed", type=int, default=0)
    _config_flag(p, "--n-boxes", "synth.n_boxes", int)
    _config_flag(p, "--visibility", "synth.visibility", float)
    p.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("monitor", help="run the monitoring loop over a frame directory")
    p.add_argument("stream", type=Path,
                   help="directory of <stem>.ego.json / <stem>.coop.json frame pairs")
    _add_param_flags(p)
    _config_flag(p, "--theta-boot", "monitor.theta_boot", float)
    _config_flag(p, "--theta-monitor", "monitor.theta_monitor", float)
    p.add_argument("--out", type=Path, default=Path("monitor_out"),
                   help="output directory (events.jsonl, state.json, extrinsic.json)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("synth", help="generate a synthetic scene pair")
    _add_param_flags(p)
    p.add_argument("--seed", type=int, default=0)
    _config_flag(p, "--n-boxes", "synth.n_boxes", int)
    _config_flag(p, "--visibility", "synth.visibility", float)
    _config_flag(p, "--sigma", "noise.sigma_pos", float, "center noise std, meters")
    _config_flag(p, "--yaw-std", "noise.yaw_std_deg", float, "yaw noise circular std, degrees")
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
    except DegenerateGeometry as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, PlacementFailure) as e:
        # out-of-range flag values (e.g. --tau beyond its domain), or
        # synthetic settings no box layout can satisfy
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        # an --out destination that cannot be created or written, or an
        # output stream that cannot be written (which names no file)
        print(f"error: {e}" if e.filename is None else f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
