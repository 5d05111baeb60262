"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on one workload and prints, per metric,
the median and the quartile spread (Q3 - Q1) / median of the runs:

    python3 bench/steady.py --workload sweep15 --seeds 1 2 3 4 5 --seconds 25
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} tail=p{detail['tail_percentile']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        print(f"{name:48s} median {statistics.median(vals):12.6g}  spread {spread:7.3f}  "
              f"min {min(vals):10.5g}  max {max(vals):10.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
