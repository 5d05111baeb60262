"""Set-up probe, run by run.py in a fresh interpreter.

Times `import boxcalib` (with its CLI module) and then the workload's first
op, then the machine speed (see speed.py), and prints them as one JSON line:

    python3 bench/probe.py <workload> <seed> <work dir>
"""
import json
import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path.cwd() / "src"))
    start = time.perf_counter()
    import boxcalib.cli  # noqa: F401  (imports the whole package)
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, work)
    first_op_s = wl.first_op_s()
    gauge = wl.speed_gauge()
    for _ in range(10):
        gauge.tick()
    factor = gauge.factor(0, len(gauge.samples["compute"]))
    print(json.dumps({"import_s": import_s, "first_op_s": first_op_s, "factor": factor}))


if __name__ == "__main__":
    main()
