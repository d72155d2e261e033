"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a small share of a shared host. A fixed
pure-Python loop there runs up to twice as slow from one minute to the
next, and every request slows with it, so raw wall times of the same
code spread across runs by more than any useful regression bound.

The calibration kernel is fixed exact-arithmetic work from the standard
library, independent of the program but shaped like its requests:
cross products over a standing table of Fraction points, then fresh
Fraction points sorted and deduplicated in a set. It is timed in the
untimed gap before every request and once after the last one. A
request's wall time is then rescaled to a host on which the kernel
takes REFERENCE_MS:

    adjusted = wall * REFERENCE_MS / median(kernel samples before and after it)

so the figures read as milliseconds on a steady reference host. A
change to the program moves the adjusted time as it moves the wall
time; a change of host speed moves both the request and the kernel and
cancels out. The raw wall times are kept in the record beside them.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# About the kernel's median time on a 2-vCPU Xeon VM; it only sets the scale.
REFERENCE_MS = 3.0
SAMPLES = 3
_POINTS = 4000


class Calibration:
    """The kernel and its standing table of points (a few hundred KB)."""

    def __init__(self):
        rng = random.Random(5)

        def coordinate():
            return Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**4))

        self.points = [(coordinate(), coordinate()) for _ in range(_POINTS)]
        self.order = list(range(_POINTS))
        rng.shuffle(self.order)

    def kernel(self) -> int:
        crossings = {}
        for j in self.order[:150]:
            x, y = self.points[j]
            u, v = self.points[self.order[-j]]
            c = x * v - y * u
            crossings[(c.numerator & 1023, c.denominator & 7)] = j
        fresh = [(Fraction(i * 7 % 101, 13 + i % 17), Fraction(i * 11 % 97, 19 + i % 5)) for i in range(60)]
        fresh.sort()
        seen = {(p[0] + q[0], p[1] - q[1]) for p, q in zip(fresh, fresh[1:])}
        return len(crossings) + len(seen)

    def sample(self, n: int = SAMPLES) -> list[float]:
        """Wall times of `n` kernel runs, in seconds."""
        out = []
        for _ in range(n):
            start = time.perf_counter()
            self.kernel()
            out.append(time.perf_counter() - start)
        return out


def scale(samples: list[float]) -> float:
    """Factor that takes a wall time measured beside `samples` to the reference host."""
    return REFERENCE_MS / 1000 / statistics.median(samples)


def adjust(latencies: list[float], gaps: list[list[float]]) -> list[float]:
    """Rescale request i by the kernel samples taken just before and just after it.

    `gaps` holds one list of samples per gap: before request 0, between
    each pair of requests, and after the last one.
    """
    if len(gaps) != len(latencies) + 1:
        raise ValueError(f"{len(latencies)} requests need {len(latencies) + 1} calibration gaps, got {len(gaps)}")
    return [wall * scale(gaps[i] + gaps[i + 1]) for i, wall in enumerate(latencies)]
