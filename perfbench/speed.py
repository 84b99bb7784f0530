"""Timing at a fixed reference CPU speed.

The benchmark runs on machines whose cores are shared with other tenants: a
fixed piece of pure-Python work can take 1.5 times as long from one second
to the next. Raw wall times then differ between runs by more than the
benchmark's bounds. So every timed region is also sampled with a small,
fixed workload (`probe`) that does not touch alexq. The region's time is
scaled by REFERENCE_PROBE_S / median(probe times): the time the region would
have taken at the speed where the probe takes REFERENCE_PROBE_S. Raw times
are kept beside the scaled ones in the result file.

A region is probed once before, once after, and every INTERVAL_S from a
SIGALRM handler while it runs. The time spent in the handler's probes is
subtracted from the region's time. With a `limit`, the handler raises
TimeLimit in the region once it has run that many seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

# median probe time on a 2-core Intel Xeon guest in its fast state
REFERENCE_PROBE_S = 0.0004
INTERVAL_S = 0.05

# dictionary lookups on small int tuples, like most of alexq's inner loops;
# the key set is small so that the probe stays in cache inside a large call
_KEYS = tuple((i * 7919 % 4099, i % 13, i % 7) for i in range(32))
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def probe() -> float:
    """Seconds taken by the fixed probe workload."""
    t0 = time.perf_counter()
    table = _TABLE
    acc = 0
    for _ in range(64):
        for a, b, c in _KEYS:
            acc += table[(a, b, c)] ^ (a * b + c)
    return time.perf_counter() - t0


class TimeLimit(Exception):
    """A timed region ran longer than its limit and was stopped."""


class Timer:
    """Context manager: `raw` and reference-speed `seconds` of its block."""

    def __init__(self, limit: float | None = None) -> None:
        self.limit = limit
        self.probes: list[float] = []
        self.raw = self.seconds = 0.0

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe())
        if self.limit is not None and time.perf_counter() - self._start > self.limit:
            raise TimeLimit(f"stopped after {self.limit} s")

    def __enter__(self) -> Timer:
        self.probes = [probe()]
        self._start = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        inside = sum(self.probes[1:])
        self.probes.append(probe())
        self.raw = elapsed - inside
        self.seconds = self.raw * REFERENCE_PROBE_S / statistics.median(self.probes)
