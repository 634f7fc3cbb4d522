"""Machine-speed sampling, so timings survive a noisy shared host.

The host this benchmark was built on runs other tenants' work on the same
cores.  For stretches of seconds to minutes, the same code then runs 40-80%
slower; one batch of ten ``live_cvar`` runs had a median step of 17 ms in
some runs and 10-11 ms in others.  While work runs, a timer signal runs a
fixed reference computation (1.4-2.4 ms) every ``INTERVAL`` seconds and
records how long it took.  A timed interval is then charged piecewise:
each stretch between two samples counts its length divided by the latest
sample's duration, and the sampler's own time is left out.  Multiplied by
``NOMINAL_REF_S`` this gives the interval's length at the reference speed,
in seconds.  In 60-75 s tests the median step of 15 stretches of a run
varied with a coefficient of variation of 18-19% on ``live_cvar`` and
``sweep``; measured in reference units, by 1.3% and 2.0%.

The reference computation lives here, not in the package, so a change to
the package cannot move it.
"""
from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

INTERVAL = 0.1
# Duration of one sample at the reference speed: the sample duration in the
# quietest runs on a 2-vCPU Intel Xeon (2.1 GHz) VM with numpy 2.4, so that
# times read close to wall time on a quiet host.
NOMINAL_REF_S = 1.4e-3

_RNG = np.random.default_rng(0)
_ROWS = _RNG.normal(size=(16, 160))
_WINDOW = list(_RNG.normal(size=(40, 200)))
_T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class _Record:
    timestamp: datetime
    u: float
    price: float


def reference() -> float:
    """Work shaped like the package's: small arrays, a big window, records.

    Two passes over the same small rows: a single short pass after 100 ms
    of other work mostly measures cold caches, and tracked the host's speed
    about three times worse in tests.  Then a 480 x 200 window is stacked
    and summed, as ``AlphaAdapter.windowed_mean`` does: the package's steps
    also stream through about a megabyte, and other tenants slow that more
    than small-array work; without it, the correction was half as good.
    Last, frozen dataclasses keyed by timestamp, as backtest ledgers and
    reports are built; this halved the residual variation on ``sweep``.
    """
    acc = 0.0
    for row in [*_ROWS, *_ROWS]:
        values = np.sort(row)
        masses = np.full(values.size, 1.0 / values.size)
        cum = np.cumsum(masses[::-1])
        idx = min(int(np.searchsorted(cum, 0.3)), values.size - 1)
        acc += float(np.log(np.exp(values * 0.1) @ masses)) + float(values[idx])
        acc += sum(i * 0.5 for i in range(60))
    acc += float(np.sum(np.stack(_WINDOW * 12), axis=0)[0])
    for _ in range(2):
        records = [_Record(_T0 + timedelta(minutes=15 * i), i * 0.1, i * 0.5) for i in range(120)]
        by_time = {r.timestamp: r for r in records}
        acc += sum(r.price * r.u for r in by_time.values())
    return acc


class SpeedSampler:
    """Runs ``reference`` on a timer signal and converts intervals with it."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample(None, None)  # one sample before any interval starts
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_units(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] in reference computations, sampler time excluded."""
        i = bisect.bisect_right(self.starts, t0)
        ref = self.durations[i - 1] if i > 0 else self.durations[0]
        cost, cursor = 0.0, t0
        while i < len(self.starts) and self.starts[i] < t1:
            cost += max(self.starts[i] - cursor, 0.0) / ref
            ref = self.durations[i]
            cursor = self.starts[i] + ref
            i += 1
        return cost + max(t1 - cursor, 0.0) / ref

    def nominal_s(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] at the reference speed, in seconds."""
        return self.reference_units(t0, t1) * NOMINAL_REF_S

    def raw_s(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] minus the sampler's own time in it."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(min(d, t1 - s) for s, d in zip(self.starts[lo:hi], self.durations[lo:hi]))
