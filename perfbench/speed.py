"""Machine speed, sampled while the benchmark runs, to report times at a fixed speed.

On a few cores of a shared host the same Python code runs at one speed for
tens of milliseconds to seconds and then at a half to a third of that speed,
as other tenants load the host; CPU time slows alike, so neither wall nor CPU
time of a run is steady.  A :class:`SpeedSampler` runs a fixed pure-Python
probe every :data:`INTERVAL_S` from a timer signal in the main thread, so the
probes sample the speed evenly in time, also in the middle of a long
operation.  An operation's time is then reported at reference speed: its wall
time, less the probes that ran inside it, times :data:`REFERENCE_PROBE_S` over
the mean probe time around it.  A faster program still reads faster, and a
program that waits longer (queueing, sleeping) still reads slower.

The probe follows the program's slowdown only roughly, as different code
slows by different amounts.  On a 2-vCPU host, over 2-second windows of a
fixed SQL parsing loop while the host's speed swung, the coefficient of
variation of the parse time fell from 0.22 in wall time to 0.04 scaled.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between probes.
INTERVAL_S = 0.01
#: Iterations of the probe loop: about 80 microseconds at reference speed.
PROBE_LOOPS = 150
#: The probe's time at reference speed: its time in the fast state of a
#: 2-vCPU x86-64 cloud host under CPython 3.11.
REFERENCE_PROBE_S = 80e-6
#: Probes further than this from an operation are not used to scale it.
WINDOW_S = 0.02
#: A probe slower than this many times the run's median probe was interrupted
#: (the thread lost its core), so it is capped: it says nothing about the speed.
OUTLIER_FACTOR = 3.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def shifted(self, by: int) -> int:
        return self.x + by


def probe() -> int:
    """The fixed unit of interpreter work the speed is measured with.

    It mixes what the program spends its time on: method calls, object
    allocation, tuple-keyed dictionaries, string building and a sort.
    """
    table: dict[tuple, int] = {}
    names: list[str] = []
    point = _Point(1, 2)
    for i in range(PROBE_LOOPS):
        table[(i & 31,)] = point.shifted(i)
        point = _Point(i, i & 3)
        names.append(str(i))
    names.sort()
    return len(table)


class SpeedSampler:
    """Probes the machine's speed from a timer signal while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._cap: float | None = None
        self._samples_at_cap = 0

    def _on_alarm(self, _signum, _frame) -> None:
        started = time.perf_counter()
        probe()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> SpeedSampler:
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def scaled_s(self, start: float, end: float) -> float:
        """Seconds that ``[start, end]`` of wall time take at reference speed."""
        if not self.durations:
            raise RuntimeError("no speed samples: the sampler never ran")
        if self._cap is None or len(self.durations) != self._samples_at_cap:
            self._cap = OUTLIER_FACTOR * statistics.median(self.durations)
            self._samples_at_cap = len(self.durations)
        low = bisect.bisect_left(self.starts, start - WINDOW_S)
        high = bisect.bisect_right(self.starts, end + WINDOW_S)
        if low == high:  # no probe near: take the nearest one
            low = min(max(low - 1, 0), len(self.starts) - 1)
            high = low + 1
        inside = self.durations[
            bisect.bisect_left(self.starts, start) : bisect.bisect_left(self.starts, end)
        ]
        window = self.durations[low:high]
        speed = sum(min(d, self._cap) for d in window) / len(window)
        busy = max(0.0, end - start - sum(inside))
        return busy * REFERENCE_PROBE_S / speed

    def scaled_ms(self, start: float, end: float) -> float:
        return self.scaled_s(start, end) * 1000.0

    def slowdown(self) -> float:
        """The run's median probe time over the reference time."""
        return statistics.median(self.durations) / REFERENCE_PROBE_S
