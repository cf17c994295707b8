"""Host speed, measured by a short reference probe run between pieces of the work.

On a shared host each vCPU runs identical work at two speeds about 1.8x
apart and switches between them several times a second (another tenant's
load on the same core comes and goes), and the share of time spent slow
changes from minute to minute.  That is more than any bound worth gating
on, and a probe at the start and end of a run cannot follow it.

So work that runs in this process on one CPU is cut into windows of
about ``WINDOW_S`` and a probe -- a fixed piece of tuple, dict, string and
SHA-256 work, the kind the simulator does, that never touches ``repro``
-- runs between windows, on the same CPU (:class:`Timeline`).  A stretch
of work inside a window is reported as its wall time times
``REFERENCE_S / p``, with ``p`` the mean of the probes on both sides of
the window: what it would take on a host on which the probe takes
``REFERENCE_S``.  Probe time is not work time.

Work that keeps every CPU busy in pool workers cannot be cut into
windows; there a background thread times the reference work on each CPU
in turn every ``SAMPLE_PERIOD_S`` while the work runs (:class:`Sampler`),
and the stretch is scaled by the mean of ``REFERENCE_S / p`` over the
samples.  Those probes share their CPU with a busy worker, so
they read slower than ``REFERENCE_S`` even on a fast host and pooled
figures are not comparable with inline ones; they take about 5% of one
CPU.

No change to the program can move a probe, so a slower program still
reads slower.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List

__all__ = [
    "REFERENCE_S",
    "SAMPLE_PERIOD_S",
    "WINDOW_S",
    "Sampler",
    "Timeline",
    "on_one_cpu",
    "probe_seconds",
]

#: Probe time on the 2-vCPU host the benchmark was defined on, at its fast speed.
REFERENCE_S = 0.0004

#: Work between two probes; the speed states last a few hundred milliseconds.
WINDOW_S = 0.015

#: Time between two samples of a :class:`Sampler`.
SAMPLE_PERIOD_S = 0.015

# Timings per probe; the probe is their median, so one interrupt does not
# read as a slow host.
PROBE_REPEATS = 3


def _reference_work() -> int:
    table = {}
    total = 0
    for i in range(600):
        key = (i, i & 7, "k%d" % (i & 255))
        table[key] = [i, i + 1]
        total += len(table[key]) + hash(key) % 7
        if i % 16 == 0:
            total += hashlib.sha256(str(i).encode()).digest()[0]
    return total


def _reference_seconds() -> float:
    started = time.perf_counter()
    _reference_work()
    return time.perf_counter() - started


def probe_seconds() -> float:
    """Wall seconds the reference work takes now (median of a few)."""
    return statistics.median(_reference_seconds() for _ in range(PROBE_REPEATS))


class Timeline:
    """Probes between pieces of work, and the scaled time of any stretch.

    Call :meth:`tick` between pieces of work (it probes once the window
    is full) and :meth:`probe` after the last one; then :meth:`scaled`
    gives the reference-speed seconds of any stretch ``[start, end]`` of
    ``time.perf_counter()`` readings, and :meth:`raw` its wall seconds,
    both without the probes inside it.
    """

    def __init__(self, window_s: float = WINDOW_S) -> None:
        self.window_s = window_s
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._probes: List[float] = []
        self.probe()

    def probe(self) -> None:
        started = time.perf_counter()
        seconds = probe_seconds()
        self._starts.append(started)
        self._probes.append(seconds)
        self._ends.append(time.perf_counter())

    def tick(self) -> None:
        if time.perf_counter() - self._ends[-1] >= self.window_s:
            self.probe()

    @property
    def median_probe_s(self) -> float:
        return statistics.median(self._probes)

    def _stretch(self, start: float, end: float, scale: bool) -> float:
        if end > self._starts[-1]:
            raise ValueError("probe after the stretch before reading it")
        total = 0.0
        window = max(0, bisect.bisect_right(self._ends, start) - 1)
        while window + 1 < len(self._starts) and self._ends[window] < end:
            seconds = min(end, self._starts[window + 1]) - max(start, self._ends[window])
            if seconds > 0:
                factor = 1.0
                if scale:
                    pair = self._probes[window] + self._probes[window + 1]
                    factor = 2 * REFERENCE_S / pair
                total += seconds * factor
            window += 1
        return total

    def scaled(self, start: float, end: float) -> float:
        return self._stretch(start, end, True)

    def raw(self, start: float, end: float) -> float:
        return self._stretch(start, end, False)


class Sampler:
    """Samples every CPU's speed from a background thread while in use.

    ``with Sampler() as sampler:`` around work that keeps pool workers
    busy on every CPU; afterwards :meth:`scaled` gives the reference-speed
    seconds of it.  The thread moves itself from CPU to CPU;
    the thread that enters keeps its own affinity, so processes it starts
    may run anywhere.
    """

    def __init__(self, period_s: float = SAMPLE_PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        turn = 0
        while True:
            if len(cpus) > 1:
                # Affinity set from a thread applies to that thread alone.
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                turn += 1
            self.samples.append(_reference_seconds())
            if self._stop.wait(self.period_s):
                return

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of a stretch that took the whole block."""
        return (end - start) * statistics.fmean(REFERENCE_S / seconds for seconds in self.samples)

    def raw(self, start: float, end: float) -> float:
        return end - start


@contextmanager
def on_one_cpu() -> Iterator[None]:
    """Keep this process (and what it starts meanwhile) on one CPU, so the
    probes and the work between them run on the same CPU."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
