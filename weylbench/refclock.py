"""Reference time: wall time corrected for how fast the machine runs right now.

The benchmark machine is a share of a busy host.  The same pure-Python loop
runs up to ~1.7x slower from one 50 ms stretch to the next as neighbours come
and go, in process time as much as in wall time, so raw wall times of one and
the same code drift by 30% and more between runs a few minutes apart.

A worker therefore starts a timer signal that runs a fixed probe every
``PERIOD_S`` seconds and records when it started and how long it took.  The
reference time of an interval is its wall time minus the probes inside it,
with each moment between probes divided by the slowdown the nearest probe
measured (its time over ``PROBE_REF_S``).  One reference second is a second
at the speed at which the probe takes ``PROBE_REF_S``, about its time on an
idle core of an Intel Xeon under Python 3.11.
"""
from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.025
PROBE_REF_S = 0.5e-3


def probe() -> int:
    """Fixed interpreter work shaped like the package's: tuple keys, dict sums."""
    terms = {(i, j): i * j + 1 for i in range(12) for j in range(12)}
    other = list(terms.items())[:16]
    out: dict[tuple[int, int], int] = {}
    for (a, b), u in terms.items():
        for (c, d), v in other:
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + u * v
    return len(out)


class RefClock:
    """Probe samples ``(start, seconds)`` and the conversion they allow.

    ``start``/``stop`` run the probe on SIGALRM in this process; a clock built
    from another process's samples only converts (``perf_counter`` is the
    system-wide monotonic clock, so the stamps of both processes agree).
    """

    def __init__(self, samples=()) -> None:
        self.starts = [s for s, _ in samples]
        self.seconds = [d for _, d in samples]
        self.base: list[float] = []  # reference seconds at each probe's start

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def samples(self, until: float | None = None) -> list[list[float]]:
        """Samples up to the first one after ``until`` (all by default)."""
        end = len(self.starts) if until is None else bisect.bisect(self.starts, until) + 1
        return [[s, d] for s, d in zip(self.starts[:end], self.seconds[:end])]

    def _inside(self, a: float, b: float) -> range:
        return range(bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b))

    def wall(self, a: float, b: float) -> float:
        """Wall seconds of ``[a, b]`` without the probes that ran inside it."""
        return b - a - sum(self.seconds[k] for k in self._inside(a, b))

    def reference(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval ``[a, b]``."""
        return self._at(b) - self._at(a)

    def _at(self, t: float) -> float:
        """Reference seconds from the first probe's start to ``t``.

        Probes count zero; the gap between two probes runs at the rate the
        earlier one measured up to its middle and at the later one's after
        it.  Being one function of ``t``, intervals add up: a span's
        children never sum to more than the span.
        """
        if not self.starts:
            raise ValueError("no probe samples to convert with")
        if len(self.base) != len(self.starts):
            self.base = [0.0]
            for k in range(len(self.starts) - 1):
                self.base.append(self.base[-1] + self._gap(k, self.starts[k + 1]))
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) * PROBE_REF_S / self.seconds[0]
        return self.base[k] + self._gap(k, t)

    def _gap(self, k: int, t: float) -> float:
        """Reference seconds from the start of probe ``k`` to ``t``, before the next probe."""
        end = self.starts[k] + self.seconds[k]
        if t <= end:
            return 0.0
        rate = PROBE_REF_S / self.seconds[k]
        if k + 1 == len(self.starts):
            return (t - end) * rate
        middle = (end + self.starts[k + 1]) / 2
        if t <= middle:
            return (t - end) * rate
        return (middle - end) * rate + (t - middle) * PROBE_REF_S / self.seconds[k + 1]

    def slowdown(self) -> float:
        """Mean probe time over ``PROBE_REF_S``: how busy the machine was."""
        return sum(self.seconds) / len(self.seconds) / PROBE_REF_S
