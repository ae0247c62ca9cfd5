"""Host-speed clock: times a workload against a reference kernel run on the
same CPU, interleaved with it, so that the host's drifting speed cancels.

On a shared host the speed of a vCPU drifts by tens of per cent over
seconds to minutes, and the drift reaches every kind of code alike. While
a HostClock runs, a SIGALRM handler fires every PERIOD_S seconds of wall
time and times reference(), a fixed pure-Python kernel, in the main thread
between two bytecodes of the workload. An interval of the workload is then
reported twice:

- raw: its wall time minus the time spent in the handler;
- normalised: raw * NOMINAL_S / (median reference time in the interval),
  i.e. seconds on a host where the reference takes NOMINAL_S. The median
  ignores the rare sample that a preemption stretches tenfold.

The reference uses only the interpreter (no numpy), so it can run while
csslab, numpy and scipy are being imported. A change to csslab cannot
change the reference; it moves the normalised time as it moves the raw
time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
NOMINAL_S = 5.0e-4
REF_LOOPS = 7000


def reference() -> int:
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s


class HostClock:
    def __init__(self):
        self.samples: list[float] = []  # reference-kernel times
        self.handler_s = 0.0            # summed time inside the handler
        self._previous = None

    def _on_alarm(self, *_):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple:
        return time.perf_counter(), len(self.samples), self.handler_s

    def since(self, mark: tuple) -> tuple[float, float, float]:
        """(raw seconds, normalised seconds, median reference seconds) of
        the interval since `mark`; with no sample in it the normalised time
        is the raw one."""
        t0, n0, h0 = mark
        raw = time.perf_counter() - t0 - (self.handler_s - h0)
        if len(self.samples) == n0:
            return raw, raw, NOMINAL_S
        ref = statistics.median(self.samples[n0:])
        return raw, raw * NOMINAL_S / ref, ref
