"""The core's speed while the benchmark runs, sampled from inside the process.

On a shared host a vCPU runs at one of a few speed levels (about 1.4x to 1.9x
apart on the 2-vCPU Xeon VM this benchmark was written on), switching every
fraction of a second, with a share of slow time that drifts over minutes. Raw
wall time follows that share, so runs of the same code spread by more than a
regression bound. `Sampler` times a small fixed pure-Python kernel that does
not touch ffk, on a wall-clock timer signal, so each sample is the core's
speed at that moment. `work_s` turns a measured interval into the time it
would have taken at a fixed nominal speed:

    work_s(a, b) = (b - a - kernel time in [a, b]) * mean(speed(sample))

where `speed` is NOMINAL / (the sample's time), weighted over the kernel's
two parts toward the kind of arithmetic the workload does most. Its mean over samples taken uniformly in time is the work the core
did per second, in units of the nominal speed; a program that slows
down like the kernel gets the same `work_s` whatever the share of slow time,
and a change to the program moves `work_s` as it moves wall time. The kernel
mixes a small-integer loop (like `s(p)` and the sieve) with a `Fraction` sum
(like the intersection numbers), whose slow-level ratios (about 1.4 and 1.8)
bracket ffk's.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

#: seconds the two kernel parts take at the nominal speed, about their fast
#: level on the VM above; they fix the unit of `work_s` and nothing else
NOMINAL = (100e-6, 87e-6)
#: weights of the two parts in the speed, for a workload whose arithmetic is
#: mostly `Fraction` (intersection numbers) or mostly small integers (`s(p)`)
FRACTION_LIKE = (0.25, 0.75)
INTEGER_LIKE = (0.75, 0.25)


def _ints() -> int:
    s = 0
    for i in range(1500):
        s += i * i % 7
    return s


def _fractions() -> Fraction:
    x = Fraction(0)
    for i in range(1, 40):
        x += Fraction(1, i % 13 + 1)
    return x


class Sampler:
    """Times the kernel every `interval` seconds of wall time while installed.

    `samples` holds (start, integer-loop time, Fraction time), in order.
    """

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the core's speed
        try:
            t0 = perf_counter()
            _ints()
            t1 = perf_counter()
            _fractions()
            self.samples.append((t0, t1 - t0, perf_counter() - t1))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> Sampler:
        self._tick(None, None)  # first call outside the timed work warms the kernel
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def paused(self):
        """No samples inside: the kernel would compete with a child process for the core."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)


def speed(sample, weights) -> float:
    """The core's speed when `sample` was taken, as a share of the nominal speed."""
    return weights[0] * NOMINAL[0] / sample[1] + weights[1] * NOMINAL[1] / sample[2]


def work_s(samples, a: float, b: float, weights) -> float:
    """Seconds the interval [a, b] would have taken at the nominal speed."""
    inside = [s for s in samples if a <= s[0] < b]
    if not inside:
        return b - a
    kernel = sum(s[1] + s[2] for s in inside)
    return (b - a - kernel) * sum(speed(s, weights) for s in inside) / len(inside)
