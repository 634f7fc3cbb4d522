"""In-memory spans for the traced benchmark run, and the statistics on them.

A span records a name, a start and end time from ``time.perf_counter``, the
id of the span that was open when it started, and an optional key (a tick
timestamp or a sweep cell).  Spans stay in memory until the run ends.  The
untraced run uses ``NullTracer``, whose ``span`` costs one call and records
nothing.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    key: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, key=None):
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        record = Span(sid, name, time.perf_counter(), float("nan"), parent, None if key is None else str(key))
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()


class NullTracer:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, key=None):
        return self._null


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _covered(children.get(s.id, []), s.start, s.end) for s in spans]


def span_cost(n: int = 2000) -> float:
    """Median duration a span adds around no work: the tracer's own cost."""
    tracer = Tracer()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    durations = sorted(s.duration for s in tracer.spans)
    return durations[n // 2]


def summarize(spans: list[Span], cost: float = 0.0) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name.

    ``cost`` (see ``span_cost``) is taken off every span's total and self
    time.  A child's cost already leaves its parent's self time with the
    interval the child covers.
    """
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration - cost
        row["self_s"] += own - cost
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
