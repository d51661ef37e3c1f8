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

from .model import GameSpec, HistoryClassKey, ValidationError, _whole
from .solver import Strategy, _distribution_at, _require_team_order


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
    strategy1: Strategy,
    strategy2: Strategy,
    exact_value: Fraction,
    samples: int,
    seed: int,
) -> SimulationEstimate:
    """Play ``samples`` independent contests and summarize Team-1 utility."""
    _require_team_order(strategy1, strategy2)
    _whole(samples, "samples", 1)
    # The variance sums squared utilities in floats; that sum must stay finite.
    if any(u * u * samples > sys.float_info.max for u in spec.utility.values):
        raise ValidationError("utility values too large to sample in floats", "RANGE")
    rounds = spec.rounds
    win_prob = [[float(p) for p in row] for row in spec.strength.entries]
    utility = [float(u) for u in spec.utility.values]
    rng = random.Random(seed)

    # Per-class sampling tables built lazily: (players, cumulative weights).
    tables: dict[tuple[int, HistoryClassKey], tuple[list[int], list[float]]] = {}

    def sampler(strategy: Strategy, key: HistoryClassKey):
        cache_key = (strategy.team, key)
        table = tables.get(cache_key)
        if table is None:
            dist = _distribution_at(spec, strategy, key)
            players = sorted(dist)
            cums: list[float] = []
            acc = 0.0
            for p in players:
                acc += float(dist[p])
                cums.append(acc)
            cums[-1] = 1.0  # guard against float undershoot at the top end
            table = (players, cums)
            tables[cache_key] = table
        players, cums = table
        return players[bisect_right(cums, rng.random())]

    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        xm = ym = wins = 0
        for _k in range(rounds):
            key = HistoryClassKey(xm, ym, wins)
            i = sampler(strategy1, key)
            j = sampler(strategy2, key)
            if rng.random() < win_prob[i][j]:
                wins += 1
            xm |= 1 << i
            ym |= 1 << j
        value = utility[wins]
        total += value
        total_sq += value * value

    mean = total / samples
    if samples > 1:
        variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    else:
        variance = 0.0
    stderr = math.sqrt(variance / samples)
    return SimulationEstimate(samples, seed, mean, stderr, exact_value)
