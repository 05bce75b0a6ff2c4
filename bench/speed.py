"""Machine speed, from a fixed calibration loop run between requests.

The machine this benchmark was written on shares its CPUs, and its speed
moves in steps of up to 1.7 times within seconds: a fixed loop timed in 5 s
windows spread by 0.35 (quartile distance over median) over 90 s.  Process
CPU time moves with wall time, so it does not help.  Every timing the
benchmark reports is therefore scaled to a reference speed: a time ``t``
measured while the calibration loop took ``c`` seconds is reported as
``t * REFERENCE_S / c``.  The loop is exact rational arithmetic in pure
Python, the kind of work fanokit does, and it is the benchmark's own code,
so a change to fanokit does not change its time.  Interleaved with
``sx --preset p3-blowup`` calls over 100 s, this scaling took the spread of
10 s medians from 0.20 to 0.02.  The raw wall times stay in the details line.

Set-up time is mostly interpreter start and imports, which slow by less
than the loop does, so it is scaled by a fresh interpreter that imports the
standard modules the CLI uses, started just before each set-up sample:
``t * STARTUP_REFERENCE_S / r``.  Over 100 s that took the spread of
medians of eleven samples from 0.07 to 0.02, against 0.03 with the loop.
"""
from __future__ import annotations

import array
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_S = 0.001   # calibration time the reported timings are scaled to
SHARE = 0.05          # share of a run's wall time spent calibrating
WINDOW_S = 0.5        # calibrations this close to a request measure its speed
NEAREST = 5           # fewest calibrations behind one speed reading
STARTUP_CODE = "import argparse, fractions, json, re"
STARTUP_REFERENCE_S = 0.05   # its wall time the set-up times are scaled to


def loop() -> None:
    """About a millisecond of Fraction arithmetic with growing denominators."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i * i + 1)


class Speed:
    """Calibration samples taken along a run, and the speed around a time."""

    def __init__(self):
        self.mid = array.array("d")     # sample midpoints, in time order
        self.took = array.array("d")
        self.start = time.perf_counter()
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        loop()
        t1 = time.perf_counter()
        self.mid.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.spent += t1 - t0

    def keep_up(self) -> None:
        """Calibrate until calibration has taken SHARE of the run so far."""
        while (self.spent < SHARE * (time.perf_counter() - self.start)
               or len(self.took) < NEAREST):
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median calibration time within WINDOW_S of
        [start, end], widened to the NEAREST closest samples if too few."""
        lo = bisect_left(self.mid, start - WINDOW_S)
        hi = bisect_right(self.mid, end + WINDOW_S)
        while hi - lo < NEAREST:
            before = start - self.mid[lo - 1] if lo > 0 else float("inf")
            after = self.mid[hi] - end if hi < len(self.mid) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.took[lo:hi])
