"""Host-speed calibration for the timed runs.

The benchmark runs on shared virtual machines whose speed drifts by a
quarter or more for tens of seconds at a time, as other tenants come and go.
A run of the program's ops is slowed by such a phase exactly as much as a
fixed reference loop timed in the same seconds is, so every timing the
benchmark reports is scaled by REFERENCE_S / (time of a fixed reference
loop around it): a time in "reference seconds", the seconds the op would
take on a host where the loop takes REFERENCE_S.  The host's fast and slow
phases alternate within seconds, so each op is scaled by the loop timings
just before and just after it, not by one figure for the whole run.  The
loop is the benchmark's own code, so no change to the program can move it.

The loop mixes what the workloads spend their time on: dict and tuple
traffic in the interpreter, Fraction arithmetic, and numpy broadcasting and
reductions over arrays of a few hundred kilobytes.
"""
from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# the reference loop's median time on the host that measured baseline.json
REFERENCE_S = 0.017
# seconds between two timings of the loop within a run
INTERVAL_S = 0.25

_rng = np.random.default_rng(20201204)
_X = _rng.random((300, 4, 4, 4, 4))
_Y = _rng.random((300, 4, 4))


def reference_loop():
    """Fixed work, independent of the program; returns a checksum."""
    table = {}
    for i in range(24000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    denominators = 0
    for _ in range(45):
        total = Fraction(0)
        for i in range(1, 40):
            total += Fraction(1, i)
        denominators += total.denominator % 1000
    acc = 0.0
    for _ in range(24):
        acc += float((_X * _Y[:, :, :, None, None]).sum(axis=2)[:, 0, 0, 0].sum())
    return len(table), denominators, acc


def time_loop():
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


class Calibrator:
    """Times the reference loop over a run: tick() is called after each op,
    outside its timed interval, and times the loop once INTERVAL_S seconds
    have passed since its last timing."""

    def __init__(self):
        reference_loop()  # first call pays numpy's one-off allocations
        self.at = []        # perf_counter() when each timing ended
        self.samples = []   # seconds the loop took
        self._time()

    def _time(self):
        self.samples.append(time_loop())
        self.at.append(perf_counter())

    def tick(self):
        if perf_counter() - self.at[-1] >= INTERVAL_S:
            self._time()

    def loop_s(self):
        return statistics.median(self.samples)

    def scale_at(self, start):
        """Factor from measured to reference seconds for an op that started
        at perf_counter() `start`: REFERENCE_S over the mean of the last
        timing before it and the first one after it."""
        i = bisect.bisect_right(self.at, start)
        around = self.samples[max(i - 1, 0):i + 1]
        return REFERENCE_S * len(around) / sum(around)


def loop_s_now():
    """Median of five back-to-back timings of the loop, for a process that
    measures one thing once (a set-up)."""
    reference_loop()
    return statistics.median(time_loop() for _ in range(5))
