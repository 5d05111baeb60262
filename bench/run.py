"""boxcalib benchmark: one workload per fresh, single-threaded process.

Run from the repository root:

    python3 bench/run.py --workload sweep15 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

--trace 0 measures the end-to-end metrics untraced. --trace 1 repeats the
workload with spans around every call the benchmark makes into boxcalib
and prints the per-layer metrics derived from them. Either way the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

and the line before it holds the details: the tail percentile, sample
counts, failure counts, output digests and the environment.
"""
import os

# One BLAS / OpenMP thread, fixed before numpy loads; the set-up probes inherit it.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_PINS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOAD_NAMES = ("sweep15", "dense32", "monitor_stream")
PROBES = 5  # set-up is measured this many times per run; setup_s is the median
PROBE_TIMEOUT_S = 120
EVENT_KINDS = ("BootCalibrated", "HealthOk", "Recalibrated", "RetryExhausted",
               "AlertRaised", "DegradedEntered")


def load_boxcalib():
    """Import boxcalib from the checkout's src/, never from an installed copy."""
    init = ROOT / "src" / "boxcalib" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the repository root")
    sys.path.insert(0, str(init.parent.parent))
    import boxcalib

    if Path(boxcalib.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported boxcalib from {boxcalib.__file__}, not {init}")
    return boxcalib


def probe_setup(workload: str, seed: int, work: Path) -> list[dict]:
    probes = []
    for _ in range(PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def measure(wl, seconds: float, tracer) -> list:
    from workloads import GroundTruthError, OpRecord

    wl.run(0)  # warm-up: lazy imports and caches, not counted
    wl.reset()
    gauge = wl.speed_gauge()
    records = []
    deadline = time.perf_counter() + seconds
    k = 0
    rounds = []  # index of the first reference sample taken before each op
    # runs end on a whole cycle of the workload's input mix
    while not records or time.perf_counter() < deadline or len(records) % wl.cycle:
        rounds.append(gauge.tick())
        if tracer is not None:
            tracer.op = k
        try:
            records.append(wl.run(k, tracer))
        except GroundTruthError as e:
            records.append(OpRecord(math.nan, 0.0, "GroundTruthError", str(e)))
        k += 1
    rounds += [gauge.tick(), len(gauge.samples["compute"])]
    for i, rec in enumerate(records):
        rec.factor = gauge.factor(rounds[i], rounds[i + 2], rec.speed_kinds)
    if tracer is not None:
        for span in tracer.spans:
            if span.op >= 0:
                span.factor = records[span.op].factor
    return records


def latencies_s(records, scaled: bool = True) -> list[float]:
    """Op latencies (at the reference speed unless scaled is False); ops
    that raised before a latency was taken are left out."""
    return [r.latency_s * (r.factor if scaled else 1.0) for r in records if not math.isnan(r.latency_s)]


def setup_s(probes, scaled: bool = True) -> float:
    return stats.median([(p["import_s"] + p["first_op_s"]) * (p["factor"] if scaled else 1.0) for p in probes])


def throughput(records, scaled: bool = True) -> float:
    return len(records) / sum(r.busy_s * (r.factor if scaled else 1.0) for r in records)


def quality(records) -> dict:
    from boxcalib import summarize

    matched = sum(r.matched for r in records)
    return {
        "summary": summarize([r.trial for r in records], 1.0),
        "precision": stats.ratio(sum(r.matched_correct for r in records), matched),
        "recall": stats.ratio(sum(r.matched_correct for r in records), sum(r.shared for r in records)),
    }


def end_to_end(records, probes) -> dict:
    latencies = latencies_s(records)
    tail_s, _ = stats.tail(latencies)
    q = quality(records)
    return {
        "setup_s": (setup_s(probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "latency_p50_ms": (1e3 * stats.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "throughput_ops_s": (throughput(records), "1/s"),
        "match_precision": (q["precision"], "ratio"),
        "match_recall": (q["recall"], "ratio"),
    }


def per_layer(tracer, records, probes) -> dict:
    """Per-layer metrics from the spans. A span's per-op time is its total
    time over the ops it occurred in; layers a workload does not call read 0."""
    c = tracer.counts

    def per_op_ms(name):
        return stats.ratio(tracer.total_ms(name), len({s.op for s in tracer.spans if s.name == name}))

    def per_call_ms(name):
        return stats.ratio(tracer.total_ms(name), tracer.calls(name))

    def mean(name):
        return stats.ratio(sum(c[name]), len(c[name]))

    def step_ms(path):
        return 1e3 * stats.median([s.seconds for s in tracer.spans
                                   if s.name == "monitor.step" and s.attrs["path"] == path])

    q = quality(records)
    anchors = sum(c["affinity.anchors"])
    recal_attempts = [s.attrs["attempts"] for s in tracer.spans
                      if s.name == "monitor.step" and s.attrs["path"] == "recal"]
    return {
        "association.build_affinity.ms_per_op": (per_op_ms("association.build_affinity"), "ms"),
        "association.build_affinity.share": (stats.ratio(
            tracer.total_ms("association.build_affinity"),
            tracer.total_ms("pipeline.calibrate_scenes")), "ratio"),
        "association.build_affinity.anchors": (mean("affinity.anchors"), "count"),
        "association.build_affinity.us_per_anchor": (stats.ratio(
            1e3 * tracer.total_ms("association.build_affinity"), anchors), "us"),
        "association.build_affinity.nonzero_ratio": (stats.ratio(sum(c["affinity.useful"]), anchors), "ratio"),
        "association.build_affinity.flip_ratio": (stats.ratio(
            sum(c["affinity.flipped"]), sum(c["affinity.useful"])), "ratio"),
        "association.solve_assignment.ms_per_op": (per_op_ms("association.solve_assignment"), "ms"),
        "association.solve_assignment.cells": (mean("assignment.cells"), "count"),
        "association.solve_assignment.matches": (mean("assignment.matches"), "count"),
        "association.top_k_by_volume.ms_per_op": (per_op_ms("association.top_k_by_volume"), "ms"),
        "association.top_k_by_volume.kept_ratio": (stats.ratio(sum(c["top_k.kept"]), sum(c["top_k.input"])), "ratio"),
        "association.alignment_score.ms_per_call": (per_call_ms("association.alignment_score"), "ms"),
        "registration.build_feature_clouds.ms_per_op": (per_op_ms("registration.build_feature_clouds"), "ms"),
        "registration.weighted_kabsch.ms_per_op": (per_op_ms("registration.weighted_kabsch"), "ms"),
        "registration.weighted_kabsch.points": (mean("kabsch.points"), "count"),
        "registration.weighted_kabsch.rms_residual_m": (mean("kabsch.rms_residual"), "m"),
        "synth.generate_scene_pair.ms_per_op": (per_op_ms("synth.generate_scene_pair"), "ms"),
        "synth.inject_noise.ms_per_op": (per_op_ms("synth.inject_noise"), "ms"),
        "metrics.score.ms_per_op": (per_op_ms("metrics.score"), "ms"),
        "metrics.success_at_1m": (q["summary"].success_rate, "ratio"),
        "metrics.mrte_m": (q["summary"].mrte_m or 0.0, "m"),
        "metrics.mrre_deg": (q["summary"].mrre_deg or 0.0, "deg"),
        "monitor.step.health_path_ms": (step_ms("health"), "ms"),
        "monitor.step.recal_path_ms": (step_ms("recal"), "ms"),
        "monitor.step.exhausted_path_ms": (step_ms("exhausted"), "ms"),
        "monitor.attempts_per_recal": (stats.ratio(sum(recal_attempts), len(recal_attempts)), "count"),
        **{f"monitor.events.{kind}": (float(len(c[f"events.{kind}"])), "count") for kind in EVENT_KINDS},
        "io.load_scene.ms_per_call": (per_call_ms("io.load_scene"), "ms"),
        "io.load_scene.bytes_per_call": (mean("io.load_scene.bytes"), "B"),
        "io.save_state.ms_per_call": (per_call_ms("io.save_state"), "ms"),
        "io.save_extrinsic.ms_per_call": (per_call_ms("io.save_extrinsic"), "ms"),
        "setup.import_s": (stats.median([p["import_s"] * p["factor"] for p in probes]), "s"),
        "setup.first_op_s": (stats.median([p["first_op_s"] * p["factor"] for p in probes]), "s"),
        "trace.overhead_ms_per_op": (1e3 * stats.median(c["trace.overhead_s"]), "ms"),
        "trace.decomposition_mismatch": (float(sum(c["trace.mismatch"])), "count"),
        "op.within_budget_rate": (within_budget(records), "ratio"),
        "op.fail_rate": (stats.fail_rate([r.failed for r in records]), "ratio"),
    }


def within_budget(records) -> float:
    """Against the budget in measured (unscaled) time, as a caller sees it."""
    return stats.within_budget_rate(
        [r.latency_s if not math.isnan(r.latency_s) else math.inf for r in records],
        [r.failed for r in records],
    )


def details(args, wl, records, probes) -> dict:
    import numpy
    import scipy

    raw = latencies_s(records, scaled=False)
    _, percentile = stats.tail(raw)
    factors = [r.factor for r in records]
    invalid = Counter(r.invalid for r in records if r.invalid is not None)
    prefix = [r.discrete for r in records[: wl.digest_ops]]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": len(records), "latency_samples": len(raw),
        "tail_percentile": round(percentile, 2),
        "unscaled": {
            "setup_s": setup_s(probes, scaled=False),
            "latency_p50_ms": 1e3 * stats.median(raw),
            "latency_tail_ms": 1e3 * stats.tail(raw)[0],
            "throughput_ops_s": throughput(records, scaled=False),
        },
        "speed_factor": {"min": min(factors), "median": stats.median(factors), "max": max(factors)},
        "within_budget_rate": within_budget(records),
        "fail_rate": stats.fail_rate([r.failed for r in records]),
        "success_at_1m": quality(records)["summary"].success_rate,
        "errors": dict(Counter(r.error for r in records if r.error is not None)),
        "invalid": dict(invalid.most_common(5)),
        "digest_ops": wl.digest_ops,
        "digest": stats.digest(prefix) if len(prefix) == wl.digest_ops else None,
        "environment": {
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {name: os.environ[name] for name in BLAS_PINS},
        },
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_one(args) -> int:
    load_boxcalib()
    from spans import Tracer
    from workloads import WORKLOADS

    tmp_root = ROOT / ".bench_tmp"
    work = tmp_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tracer = Tracer() if args.trace else None
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.prepare(tracer)
        probes = probe_setup(args.workload, args.seed, work)
        records = measure(wl, args.seconds, tracer)
        metrics = per_layer(tracer, records, probes) if tracer else end_to_end(records, probes)
        detail = details(args, wl, records, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tmp_root.is_dir() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not detail["invalid"],
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, printed as a table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results[name] = result
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:48s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
