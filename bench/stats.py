"""Arithmetic shared by the benchmark's metrics, kept free of boxcalib so it
can be tested on its own (see test_bench.py)."""
from __future__ import annotations

import hashlib
import math
import statistics

# Criterion 1's per-frame budget; a failed op counts as a miss.
BUDGET_S = 0.100
# The tail percentile is the highest one with at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.

    That is the eleventh-largest sample; its percentile is the share of
    samples at or below it, 100 * (n - 10) / n. With ten or fewer samples
    nothing has ten beyond it, and the maximum is returned as percentile 100.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES_BEYOND - 1], 100.0 * (n - TAIL_SAMPLES_BEYOND) / n


def within_budget_rate(latencies_s: list[float], failed: list[bool], budget_s: float = BUDGET_S) -> float:
    """Share of ops that succeeded within the budget; failed ops are misses."""
    if len(latencies_s) != len(failed) or not latencies_s:
        raise ValueError("need one failure flag per latency, and at least one op")
    hits = sum(1 for t, f in zip(latencies_s, failed) if not f and t <= budget_s)
    return hits / len(latencies_s)


def fail_rate(failed: list[bool]) -> float:
    if not failed:
        raise ValueError("no ops")
    return sum(failed) / len(failed)


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was counted (a layer the workload does not call)."""
    return num / den if den else 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def digest(items) -> str:
    """Order-sensitive SHA-256 over the repr of each item."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
