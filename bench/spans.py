"""In-memory spans and counts for the traced run.

Spans are recorded by the benchmark around each call it makes into a
boxcalib module's public functions; nothing inside the library is
instrumented. A span's name is "<module>.<function>" of the call it wraps.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "op", "factor", "start_ns", "end_ns", "attrs")

    def __init__(self, name: str, op: int):
        self.name = name
        self.op = op
        self.factor = 1.0  # set once the run's speed samples are in (see speed.py)
        self.start_ns = time.perf_counter_ns()
        self.end_ns = self.start_ns
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        """Duration at the reference speed (see speed.py)."""
        return (self.end_ns - self.start_ns) * 1e-9 * self.factor


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.op = -1  # id shared by the spans of one op; negative while preparing inputs

    @contextmanager
    def span(self, name: str):
        rec = Span(name, self.op)
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end_ns = time.perf_counter_ns()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(self.durations(name))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def call(tracer: Tracer | None, name: str, fn, *args):
    """fn(*args), inside a span when tracing."""
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, *args)
