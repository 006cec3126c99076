"""Spans, machine-speed calibration and summary statistics for the benchmark.

This module imports nothing from miint: the harness uses it to summarise,
and the worker uses it to time its calls into miint.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager, nullcontext


def now() -> float:
    """Seconds on CLOCK_MONOTONIC.

    The clock is system-wide, so the harness and its child processes share
    one time base: a child's timestamps can be compared with the moment the
    harness spawned it.
    """
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Seconds the reference kernel takes at the speed reported times are scaled
# to (its typical time on the 2-core machine the baseline was taken on).
REFERENCE_S = 0.015

_CAL_Z = None


def reference_kernel() -> None:
    """A fixed mix of the work miint does: complex powers over an array,
    an exactly rounded Python-level sum, and integer/dict work in Python.
    It shares no code with miint, so no change to miint can move it."""
    global _CAL_Z
    import numpy as np

    if _CAL_Z is None:
        k = np.arange(1, 65537, dtype=np.float64)
        _CAL_Z = (k % 97 + 1.0) + 1j * (k % 89 + 0.5)
    a = _CAL_Z ** -10 * np.conj(_CAL_Z) ** -9
    math.fsum(a.real.tolist())
    math.fsum(a.imag.tolist())
    table = {}
    for c in range(1, 200):
        for d in range(c):
            if math.gcd(c, d) == 1:
                table[c, d] = c * d % 7


CALIBRATION_REPS = 5


def calibrate() -> float:
    """Median seconds of CALIBRATION_REPS runs of the reference kernel.

    The shared machine's speed drifts by tens of percent over seconds to
    minutes, for every process alike.  Dividing a time by the kernel's time
    measured next to it cancels that drift; `speed_factor` does so.
    """
    times = []
    for _ in range(CALIBRATION_REPS):
        start = now()
        reference_kernel()
        times.append(now() - start)
    return statistics.median(times)


def speed_factor(calibration_s: float) -> float:
    """Factor that scales a time measured next to a calibration to the
    reference machine speed."""
    return REFERENCE_S / calibration_s


class Timer:
    """An interval timed by a SpeedClock, as measured (`raw`) and scaled to
    the reference speed (`scaled`).  The scaled part of a segment is only
    known once the segment ends, so read `pair()` after the clock's last
    `split`."""

    def __init__(self, clock: "SpeedClock", start: float):
        self.clock, self.start = clock, start
        self.raw = self.scaled = 0.0

    def stop(self) -> None:
        self.clock.close(self, now())
        self.clock.running.remove(self)

    def pair(self) -> list[float]:
        return [self.raw, self.scaled]


class SpeedClock:
    """Segment-by-segment scaling of timed work to the reference speed.

    The clock starts at a moment with a calibration made just before it.
    `split` ends the current segment and calibrates; every timer's part in
    that segment is scaled by the mean of the calibrations at the segment's
    two ends.  The calibrations' own time is in no segment, so no timer
    counts it.  `total` times everything from the start.
    """

    def __init__(self, start: float, calibration_s: float, tracer: "Tracer | None" = None):
        self.cal, self.segment_start = calibration_s, start
        self.tracer = tracer or Tracer(False)
        self.running: list[Timer] = []
        self.pending: list[tuple[Timer, float]] = []  # parts in the current segment
        self.total = self.timer(start)

    def timer(self, start: float | None = None) -> Timer:
        """A timer running from `start` (default: now) until it is stopped."""
        t = Timer(self, now() if start is None else start)
        self.running.append(t)
        return t

    def close(self, t: Timer, end: float) -> None:
        """Count t's part of the current segment up to `end`."""
        d = end - max(t.start, self.segment_start)
        t.raw += d
        self.pending.append((t, d))

    def split(self) -> list[float]:
        """End the segment; return the [raw, scaled] total so far."""
        end = now()
        with self.tracer.span("calibration"):
            cal = calibrate()
        for t in self.running:
            self.close(t, end)
        f = speed_factor((self.cal + cal) / 2)
        for t, d in self.pending:
            t.scaled += d * f
        self.pending = []
        self.cal, self.segment_start = cal, now()
        return self.total.pair()

    def split_after(self, seconds: float) -> None:
        """Split if the current segment has run for at least `seconds`."""
        if now() - self.segment_start >= seconds:
            self.split()

    def factor(self) -> float:
        return self.total.scaled / self.total.raw if self.total.raw else 1.0


class Tracer:
    """Spans kept in memory as [name, start, end, parent] lists.

    `parent` is the index of the enclosing span, or None for a root span.
    A span name may carry a case after '@' (as in 'raseries.phi@delta') so
    that statistics can be balanced over cases.  When disabled, `span`
    returns a null context and records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, now(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = now()


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def percentile(values: list[float], q: float) -> float | None:
    """The q-th percentile (0 < q < 100) of `values`, or None when fewer
    than ten samples rank beyond it, so that a tail figure always rests on
    at least ten samples."""
    n = len(values)
    if n - math.ceil(n * q / 100) < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def balanced_median(by_case: dict[str, list[float]]) -> float:
    """Mean over cases of each case's median, so that a run's mix of cases
    does not move the figure."""
    return statistics.fmean(statistics.median(v) for v in by_case.values())


def balanced_mean(by_case: dict[str, list[float]]) -> float:
    """Mean over cases of each case's mean."""
    return statistics.fmean(statistics.fmean(v) for v in by_case.values())


def by_case(spans: list[list], layer: str) -> dict[str, list[float]]:
    """Durations of the spans named `layer` or `layer@<case>`, per case."""
    out: dict[str, list[float]] = {}
    for name, start, end, _ in spans:
        base, _, case = name.partition("@")
        if base == layer:
            out.setdefault(case, []).append(end - start)
    return out
