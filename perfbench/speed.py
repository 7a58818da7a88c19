"""Machine-speed normalization by an interleaved calibration loop.

On a shared machine the speed of one core drifts by tens of percent within
seconds, which would swamp any change to the program.  So a fixed unit of
pure-Python ``Fraction`` work (the program's own dominant cost) is timed
between checks, and every timed interval is scaled by
``REFERENCE_UNIT_S / (mean unit time near it)``: the result is the time the
interval would have taken on a machine that runs one unit in exactly
``REFERENCE_UNIT_S``.  The program cannot change the unit, so a faster
program still shows as faster; a slower machine does not.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

REFERENCE_UNIT_S = 0.004  # defines the reference speed
SAMPLE_EVERY_S = 0.05     # timed time between calibration samples
NEAREST = 8               # samples around an interval that set its factor


def calibration_unit() -> float:
    """Time one fixed unit of Fraction arithmetic."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for j in range(1, 600):
        x += Fraction(j % 13, j % 7 + 1) * Fraction(j, 17)
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Scale from measured time to reference time."""
    return REFERENCE_UNIT_S * len(samples) / sum(samples)


class SpeedMeter:
    """Calibrates between timed intervals.

    Call ``add(dt)`` after each timed interval, outside the timing; it
    samples the calibration unit right away, and then once per
    SAMPLE_EVERY_S of timed time.  ``normalized()`` returns every interval
    in reference seconds, scaled by the factor of the NEAREST samples taken
    just before and just after it.
    """

    def __init__(self):
        self.intervals: list[float] = []
        self.samples: list[tuple[int, float]] = []  # (intervals before, s)
        self._due = SAMPLE_EVERY_S

    def add(self, dt: float):
        self.intervals.append(dt)
        self._due += dt
        while self._due >= SAMPLE_EVERY_S:
            self.samples.append((len(self.intervals), calibration_unit()))
            self._due -= SAMPLE_EVERY_S

    def normalized(self) -> list[float]:
        pos = [p for p, _ in self.samples]
        out = []
        for i, dt in enumerate(self.intervals):
            # samples with position <= i were taken before interval i
            hi = bisect.bisect_right(pos, i)
            lo = hi - 1
            near = []
            while len(near) < NEAREST and (lo >= 0 or hi < len(pos)):
                if hi < len(pos) and (lo < 0 or pos[hi] - i <= i + 1 - pos[lo]):
                    near.append(self.samples[hi][1])
                    hi += 1
                else:
                    near.append(self.samples[lo][1])
                    lo -= 1
            out.append(dt * factor(near))
        return out

    def mean_unit_s(self) -> float:
        return sum(s for _, s in self.samples) / len(self.samples)
