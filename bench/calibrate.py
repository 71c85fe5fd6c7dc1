"""Calibrated timing: divide out how fast the host ran while an operation ran.

On a shared virtual machine the speed of a vCPU changes from one second to
the next, by 2x and more, and the guest counts the lost time as its own CPU
time (no steal shows). A wall-clock latency then measures the neighbours as
much as liekit. The worker therefore times a fixed piece of pure-Python
``Fraction`` arithmetic, the kind of work liekit's exact linear algebra does:

- a burst of samples right after import and another right after the
  operation, a few milliseconds in which the host's speed rarely changes;
- one sample every ``INTERVAL_S`` of wall time during the operation, taken in
  a SIGALRM handler on the operation's own thread, so the sample runs on the
  same vCPU at the same time as the operation.

A calibrated time is ``wall_s * REF_S / mean(samples)``, with the slowest
``TRIM`` share of the samples left out of the mean: the time the operation
would have taken had the calibration loop run at ``REF_S``, its median on the
unloaded development host (Intel Xeon 2.0 GHz, Python 3.11.7). There, at
rest, a calibrated second is a wall-clock second. The loop is standard-library
code only, so a change to liekit cannot change its speed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01    # one sample per 10 ms of an operation
BURST = 40           # samples before and after an operation
REF_S = 1.0e-4       # median sample on the unloaded development host
TRIM = 0.05          # share of the slowest samples left out of the mean


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 23):
        total += Fraction(i, i + 1) * Fraction(3, 7)
    return total


class Sampler:
    """Collects calibration samples; `during` holds those taken in the operation."""

    def __init__(self) -> None:
        _loop()                         # first use of Fraction; not a sample
        self.around: list[float] = []
        self.during: list[float] = []

    def sample(self, into: list[float]) -> None:
        started = _now()
        _loop()
        into.append(_now() - started)

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample(self.around)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.sample(self.during))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self) -> float:
        """Mean of all samples but the slowest TRIM share.

        A few samples of a long operation take 10 to 100 times the usual
        time; one of them moved a calibrated 7.7 s operation to 5.3 s. Without
        them the calibrated times of ten torus and ten snobl calls spread
        about half as much.
        """
        samples = sorted(self.around + self.during)
        kept = samples[:max(1, round(len(samples) * (1 - TRIM)))]
        return sum(kept) / len(kept)
