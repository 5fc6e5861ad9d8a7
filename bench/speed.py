"""Machine-speed calibration, so timings from a host whose speed drifts compare.

A shared cloud host can run the same Python code a quarter slower or faster
from one minute to the next, for reasons the guest cannot see (no steal time
shows). Run-to-run spread of that size would hide any regression smaller than
itself. So every timed stretch is bracketed by a calibration: a fixed
pure-Python snippet that uses nothing from termsieve, so no change to the
program can alter it. A time measured between two calibrations is reported
as ``measured * NOMINAL_S / (mean of the two calibration times)``: the time the
work would take at the speed at which the snippet runs in NOMINAL_S. A program
change scales these times as it scales the measured ones; a change in machine
speed slows the snippet too and largely cancels out.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The snippet's time at the nominal speed: its median over a quiet minute on a
# 2-vCPU Xeon container. Only sets the scale; it cancels in any comparison.
NOMINAL_S = 0.0018
# A calibration is the best of this many runs of the snippet, so one
# interrupt does not set the scale of a whole stretch.
REPEATS = 3
# Longest timed stretch between two calibrations, in seconds.
EVERY_S = 0.25


def _snippet() -> int:
    # Building tuples and frozensets, keying a dict by them, appending and
    # sorting: the allocation-heavy interpreter work termsieve's engines do.
    # A snippet of plain integer arithmetic follows machine-speed changes
    # less closely than this one.
    seen: dict[frozenset[int], tuple[int, ...]] = {}
    made: list[tuple[int, ...]] = []
    for i in range(1000):
        t = tuple(range(i % 7, i % 7 + 6))
        key = frozenset(t)
        seen[key] = seen.get(key, ()) + (i,)
        made.append(t)
    return len(sorted(made[::7])) + len(seen)


def calibrate() -> float:
    """Seconds the snippet takes now (best of REPEATS)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _snippet()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Scales times taken between calibrations to the nominal speed.

    Work is timed in stretches. ``tick()`` is called between units of work;
    once EVERY_S has passed since the last calibration it ends the stretch.
    ``end_stretch()`` calibrates again and scales the times recorded since
    the last calibration; call it after the last unit of work.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []  # every calibration, in seconds
        self._pending: list[tuple[list[float], int]] = []
        self._last = calibrate()
        self.samples.append(self._last)
        self._since = perf_counter()

    def record(self, times: list[float], value: float) -> None:
        """Append a raw time to ``times``; it is scaled when the stretch ends."""
        times.append(value)
        self._pending.append((times, len(times) - 1))

    def tick(self) -> None:
        if perf_counter() - self._since >= EVERY_S:
            self.end_stretch()

    def end_stretch(self) -> None:
        now = calibrate()
        self.samples.append(now)
        factor = NOMINAL_S / ((self._last + now) / 2)
        for times, i in self._pending:
            times[i] *= factor
        self._pending.clear()
        self._last = now
        self._since = perf_counter()

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
