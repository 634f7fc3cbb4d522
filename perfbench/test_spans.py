"""Checks of the benchmark's span arithmetic, percentiles and speed sampling.

Run with ``python3 -m pytest perfbench/test_spans.py`` or
``python3 perfbench/test_spans.py``; plain asserts, no plugins needed.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import NullTracer, Span, Tracer, percentile, self_times, summarize  # noqa: E402
from speed import NOMINAL_REF_S, SpeedSampler  # noqa: E402


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, None)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "step", 0.0, 10.0),
        _span(1, "table", 1.0, 8.0, parent=0),
        _span(2, "forecast", 2.0, 5.0, parent=1),
    ]
    assert self_times(spans) == [3.0, 4.0, 3.0]


def test_self_time_of_siblings_and_overlaps():
    spans = [
        _span(0, "table", 0.0, 10.0),
        _span(1, "forecast", 1.0, 3.0, parent=0),
        _span(2, "forecast", 4.0, 6.0, parent=0),
        _span(3, "forecast", 5.0, 7.0, parent=0),  # overlaps its sibling: union counts once
        _span(4, "late", 9.0, 12.0, parent=0),  # reaches past the parent: clipped
    ]
    assert self_times(spans)[0] == 10.0 - 2.0 - 3.0 - 1.0


def test_summary_totals_and_cost():
    spans = [
        _span(0, "step", 0.0, 10.0),
        _span(1, "forecast", 1.0, 3.0, parent=0),
        _span(2, "forecast", 4.0, 6.0, parent=0),
    ]
    summary = summarize(spans)
    assert summary["step"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["forecast"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    charged = summarize(spans, cost=0.5)
    assert charged["step"] == {"calls": 1, "total_s": 9.5, "self_s": 5.5}
    assert charged["forecast"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_tracer_records_parents_and_keys():
    tracer = Tracer()
    with tracer.span("step", key="t0"):
        with tracer.span("table"):
            pass
    with tracer.span("step", key="t1"):
        pass
    step0, table, step1 = tracer.spans
    assert (step0.parent, table.parent, step1.parent) == (None, 0, None)
    assert (step0.key, step1.key) == ("t0", "t1")
    assert step0.start <= table.start <= table.end <= step0.end <= step1.start
    with NullTracer().span("step", key="t0") as record:
        assert record is None


def test_percentiles_of_a_known_sample():
    sample = list(range(1, 101))  # 1..100
    assert percentile(sample, 50) == 50.5
    assert abs(percentile(sample, 95) - 95.05) < 1e-12
    assert percentile(reversed(sample), 0) == 1
    assert percentile(sample, 100) == 100
    assert percentile([7.0], 95) == 7.0


def test_reference_units_charge_each_stretch_at_the_latest_sample():
    speed = SpeedSampler()
    speed.starts = [0.0, 1.0, 3.0]
    speed.durations = [0.5, 0.25, 1.0]
    # [0.5, 1.0) at 0.5 s per unit, [1.25, 3.0) at 0.25, the sample at 3.0 is
    # the sampler's own time until past the end.
    assert speed.reference_units(0.5, 3.5) == 0.5 / 0.5 + 1.75 / 0.25
    assert speed.nominal_s(0.5, 3.5) == 8.0 * NOMINAL_REF_S
    assert speed.raw_s(0.5, 3.5) == 3.0 - 0.25 - 0.5
    assert speed.reference_units(-1.0, -0.5) == 0.5 / 0.5  # before any sample: the first


def test_sampler_samples_while_work_runs():
    import time

    with SpeedSampler(interval=0.01) as speed:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(speed.starts) >= 3
    assert all(d > 0.0 for d in speed.durations)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("perfbench checks: all passed")
