"""Contention-normalised timing.

On a shared host the speed of one core drifts by 15% and more within seconds,
and a whole run can sit in a state 1.5x slower than the next, so raw times of
the same op spread far beyond any useful bound.  The probe times a fixed
2,000-iteration integer loop, which no change to teamcomp can affect.
Scaling a measured time by ``REFERENCE_LOOP_S`` over the loop's cost at the
time gives the time on a core where the loop takes ``REFERENCE_LOOP_S``:
about an uncontended core of the 2-vCPU Linux VM (Python 3.11.7) the
benchmark was written on.  On that VM this cut the run-to-run spread of one
solve's time from 13% to 5% (coefficient of variation over 16 repeats).
"""

from __future__ import annotations

import array
import bisect
import signal
import statistics
from time import perf_counter

LOOP = 2000
REFERENCE_LOOP_S = 70e-6


def loop_cost() -> float:
    start = perf_counter()
    x = 0
    for i in range(LOOP):
        x += i
    return perf_counter() - start


def spot_factor(samples: int = 50) -> float:
    """Reference-to-current speed ratio, from a burst of loops (about 4 ms)."""
    return REFERENCE_LOOP_S / statistics.median(loop_cost() for _ in range(samples))


class SpeedProbe:
    """Times the loop every 20 ms from a SIGALRM handler while ops run."""

    PERIOD_S = 0.02

    def __init__(self) -> None:
        self.ends = array.array("d")
        self.costs = array.array("d")

    def _tick(self, signum, frame) -> None:
        self.costs.append(loop_cost())
        self.ends.append(perf_counter())

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, passes: list[dict]) -> dict:
        """Turn each pass's op ``intervals`` into ``op_s`` and ``wall_s``.

        An op's own time excludes the probe's loops inside it and is scaled
        by the loops' mean cost during the op; an op shorter than the period
        takes the nearest later sample.
        """
        for p in passes:
            raw, scaled = [], []
            for t0, t1 in p.pop("intervals"):
                lo = bisect.bisect_left(self.ends, t0)
                hi = bisect.bisect_right(self.ends, t1)
                inside = self.costs[lo:hi]
                local = inside or self.costs[min(lo, len(self.costs) - 1) : lo + 1]
                own = t1 - t0 - sum(inside)
                raw.append(own)
                scaled.append(own * REFERENCE_LOOP_S * len(local) / sum(local))
            p.update(raw_op_s=raw, raw_wall_s=sum(raw), op_s=scaled, wall_s=sum(scaled))
        return {
            "reference_loop_s": REFERENCE_LOOP_S,
            "median_loop_s": statistics.median(self.costs),
            "samples": len(self.costs),
        }
