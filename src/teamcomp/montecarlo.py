"""Monte Carlo cross-check of exact game values.

The only module whose results are floats: strategy weights and win
probabilities are converted to floats for sampling, and the resulting sample
mean is compared against the exact solver value.  Seeded, hence
reproducible.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .model import BehavioralStrategy, GameSpec, HistoryClassKey, ValidationError, _exact, _whole
from .solver import _reader


@dataclass(frozen=True)
class SimulationEstimate:
    samples: int
    seed: int
    mean: float
    stderr: float
    exact_value: Fraction

    @property
    def abs_error(self) -> float:
        return abs(self.mean - float(self.exact_value))

    @property
    def within_four_stderr(self) -> bool:
        if self.stderr == 0.0:
            return self.abs_error == 0.0
        return self.abs_error <= 4.0 * self.stderr


def simulate_competitions(
    spec: GameSpec,
    strategy1: BehavioralStrategy,
    strategy2: BehavioralStrategy,
    exact_value: Fraction,
    samples: int,
    seed: int,
) -> SimulationEstimate:
    """Play ``samples`` independent contests and summarize Team-1 utility.

    Each round draws Team 1's pick, Team 2's pick, then the match outcome."""
    readers = _reader(spec, strategy1, 1), _reader(spec, strategy2, 2)
    _whole(samples, "samples", 1)
    # random.Random seeds an int by its absolute value, so -3 would replay 3.
    _whole(seed, "seed", 0)
    exact_value = Fraction(_exact(exact_value))
    # The variance sums squared utilities in floats; that sum must stay finite.
    if any(u * u * samples > sys.float_info.max for u in spec.utility.values):
        raise ValidationError("utility values too large to sample in floats", "RANGE")
    rounds = spec.rounds
    win_prob = [[float(p) for p in row] for row in spec.strength.entries]
    utility = [float(u) for u in spec.utility.values]
    rng = random.Random(seed)
    # Per-class sampling tables, built at a class's first visit: each team's
    # players ascending and their cumulative weights, the last forced to 1.0.
    tables: dict[tuple[int, int, int], list[list]] = {}
    total = total_sq = 0.0
    for _ in range(samples):
        xm = ym = wins = 0
        for _k in range(rounds):
            table = tables.get((xm, ym, wins))
            if table is None:
                key = HistoryClassKey(xm, ym, wins)
                table = []
                for read in readers:
                    dist = read(key)
                    players = sorted(dist)
                    cums = list(accumulate(float(dist[p]) for p in players))
                    cums[-1] = 1.0
                    table += (players, cums)
                tables[xm, ym, wins] = table
            players1, cums1, players2, cums2 = table
            i = players1[bisect_right(cums1, rng.random())]
            j = players2[bisect_right(cums2, rng.random())]
            if rng.random() < win_prob[i][j]:
                wins += 1
            xm |= 1 << i
            ym |= 1 << j
        value = utility[wins]
        total += value
        total_sq += value * value

    mean = total / samples
    variance = 0.0 if samples == 1 else (total_sq - samples * mean * mean) / (samples - 1)
    stderr = math.sqrt(max(0.0, variance) / samples)
    return SimulationEstimate(samples, seed, mean, stderr, exact_value)
