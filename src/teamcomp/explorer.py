"""Seeded instance generation and empirical search over recruiting gains.

The search asks how much a team can gain by recruiting always-losing players,
the quantity behind the open bound of at most 2/3 extra utility under
majority scoring and at most 1 under expected-wins scoring.  That bound is a
hypothesis under test here: sweeps report observations as "consistent with"
the bound or as counterexample candidates, never as a proof.

Reproducibility: every instance draws from ``random.Random(f"{seed}:{index}")``.
String seeding is stable across CPython versions, and the per-index split
makes the stream insensitive to how many instances run or in which order.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .analysis import add_dominated
from .instances import default_recruit_cap
from .model import (
    GameModelError,
    GameSpec,
    MAX_PLAYERS,
    ValidationError,
    _whole,
    document_from_spec,
    format_rational,
    make_spec,
    utility_name,
)
from .solver import solve

_ZERO = Fraction(0)

# Share of generated instances drawn as 0/1 permutation patterns.
_STRUCTURED_SHARE = 0.25
# Largest denominator of a generated strength entry.
_DENOMINATOR_BOUND = 4


@lru_cache(maxsize=None)
def rationals_up_to_denominator(bound: int) -> tuple[Fraction, ...]:
    """All distinct rationals in [0, 1] with denominator at most ``bound``,
    ascending."""
    _whole(bound, "denominator bound", 1)
    values = {Fraction(num, den) for den in range(1, bound + 1) for num in range(den + 1)}
    return tuple(sorted(values))


def random_probability(rng: random.Random, bound: int) -> Fraction:
    """Uniform over the distinct rationals in [0, 1] with denominator <= bound."""
    return rng.choice(rationals_up_to_denominator(bound))


def random_strength_rows(
    rng: random.Random, team1_size: int, team2_size: int, bound: int
) -> list[list[Fraction]]:
    return [
        [random_probability(rng, bound) for _ in range(team2_size)]
        for _ in range(team1_size)
    ]


def random_square_spec(
    rng: random.Random, rounds: int, bound: int, utility: str
) -> GameSpec:
    """Random contest with no spare players on either side."""
    return make_spec(rounds, random_strength_rows(rng, rounds, rounds, bound), utility)


def random_transitive_spec(
    rng: random.Random,
    rounds: int,
    team1_size: int,
    team2_size: int,
    bound: int,
    utility: str,
) -> GameSpec:
    """Random contest where both teams form strength chains.

    Sorting each column descending chains Team 1's rows; then sorting each
    row descending chains Team 2's columns while leaving the rows chained
    (sorting rows of a column-sorted matrix preserves the column order).
    """
    rows = random_strength_rows(rng, team1_size, team2_size, bound)
    for j in range(team2_size):
        column = sorted((rows[i][j] for i in range(team1_size)), reverse=True)
        for i in range(team1_size):
            rows[i][j] = column[i]
    rows = [sorted(row, reverse=True) for row in rows]
    return make_spec(rounds, rows, utility)


def random_weak_tail_spec(
    rng: random.Random, rounds: int, team1_size: int, bound: int
) -> GameSpec:
    """Random expected-wins (UE) contest where Team 1's players beyond the
    first T are weaker than every starter, and Team 2 has exactly T players."""
    if team1_size <= rounds:
        raise ValidationError("weak-tail specs need spare Team-1 players", "SIZE")
    pool = rationals_up_to_denominator(bound)
    rows = random_strength_rows(rng, rounds, rounds, bound)
    for _ in range(rounds, team1_size):
        tail = []
        for j in range(rounds):
            ceiling = min(rows[i][j] for i in range(rounds))
            tail.append(rng.choice([q for q in pool if q <= ceiling]))
        rows.append(tail)
    return make_spec(rounds, rows, "UE")


def _permutation_pattern_rows(
    rng: random.Random, team1_size: int, team2_size: int
) -> list[list[Fraction]]:
    # 0/1 specialist matrix: each row player beats exactly one distinct
    # opponent (when columns suffice): the shape where recruiting gains peak.
    one = Fraction(1)
    rows = [[_ZERO] * team2_size for _ in range(team1_size)]
    targets = list(range(team2_size))
    rng.shuffle(targets)
    for i in range(team1_size):
        if i < team2_size:
            rows[i][targets[i]] = one
    return rows


@dataclass(frozen=True)
class SearchConfig:
    """Sweep parameters, checked when built; the whole record stream is a
    pure function of these.

    ``seed`` is any int (PARSE otherwise).  Each range is a (low, high) pair
    (SHAPE otherwise); ``m_range`` bounds both team sizes (clamped below by the
    round count).  Strength entries have denominators up to a fixed bound of 4.
    ``max_recruits`` of None means the sharp counts that are never worth
    exceeding: T-1 recruits under expected-wins scoring, floor(T/2) under
    majority scoring.  ``utility`` is stored in its canonical form, "UE" or
    "UM", whatever its spelling when given.
    """

    seed: int
    instances: int
    t_range: tuple[int, int] = (2, 3)
    m_range: tuple[int, int] = (2, 5)
    utility: str = "UM"
    max_recruits: int | None = None

    def __post_init__(self) -> None:
        _whole(self.seed, "seed", None)
        _whole(self.instances, "instances", 1)
        for name, pair in (("round", self.t_range), ("size", self.m_range)):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValidationError(f"{name} range needs two ends, got {pair!r}", "SHAPE")
        for end in (*self.t_range, *self.m_range):
            _whole(end, "range end", 1)
        if not self.t_range[0] <= self.t_range[1] <= MAX_PLAYERS:
            raise ValidationError(f"bad round range {self.t_range}", "SIZE")
        if not self.m_range[0] <= self.m_range[1] <= MAX_PLAYERS:
            raise ValidationError(f"bad size range {self.m_range}", "SIZE")
        object.__setattr__(self, "utility", utility_name(self.utility))  # the class is frozen
        if self.max_recruits is not None:
            _whole(self.max_recruits, "recruit cap", 0)


@dataclass(frozen=True)
class GainRecord:
    """Outcome of one recruiting search: base value, best value over recruit
    counts, and the smallest count achieving the best."""

    index: int
    digest: str
    rounds: int
    team1_size: int
    team2_size: int
    utility: str
    recruits_used: int
    base_value: Fraction
    best_value: Fraction

    @property
    def gain(self) -> Fraction:
        return self.best_value - self.base_value


def spec_digest(spec: GameSpec) -> str:
    payload = json.dumps(document_from_spec(spec), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def generate_instance(config: SearchConfig, index: int) -> GameSpec:
    """Deterministic instance number ``index`` of the configured stream."""
    if not _whole(index, "index", 0) < config.instances:
        raise ValidationError(f"index {index} outside 0..{config.instances - 1}", "SIZE")
    rng = random.Random(f"{config.seed}:{index}")
    rounds = rng.randint(*config.t_range)
    lo = max(config.m_range[0], rounds)
    hi = max(config.m_range[1], lo)
    team1_size = rng.randint(lo, hi)
    team2_size = rng.randint(lo, hi)
    structured = rng.random() < _STRUCTURED_SHARE
    if structured:
        rows = _permutation_pattern_rows(rng, team1_size, team2_size)
    else:
        rows = random_strength_rows(rng, team1_size, team2_size, _DENOMINATOR_BOUND)
    return make_spec(rounds, rows, config.utility)


def max_gain(
    spec: GameSpec,
    max_recruits: int,
    *,
    index: int = 0,
    utility_name: str = "",
) -> GainRecord:
    """Report the contest's value with no recruits, its best value with up to
    ``max_recruits`` extra always-losing players, and the smallest recruit
    count achieving the best.

    The value never falls as recruits are added, for any strength matrix and
    utility table: a larger Team 1 keeps every strategy of the smaller one,
    since it may never field a recruit.  So the best value is the top rung's,
    and the count is the first rung, counting up from 0, that reaches it.
    The top rung is solved first, so a rung over the player limit (SIZE) or
    the class budget (BUDGET) is refused before any smaller one is solved;
    then rungs 0, 1, ... until one reaches the top's value or the next is
    the top.  No rung is solved twice.
    """
    _whole(max_recruits, "recruit cap", 0)
    best = solve(add_dominated(spec, max_recruits)).root_value
    values: list[Fraction] = []  # rungs 0, 1, ... until one reaches the best
    while len(values) < max_recruits and best not in values:
        values.append(solve(add_dominated(spec, len(values))).root_value)
    values.append(best)
    return GainRecord(
        index=index,
        digest=spec_digest(spec),
        rounds=spec.rounds,
        team1_size=spec.team1_size,
        team2_size=spec.team2_size,
        utility=utility_name,
        recruits_used=values.index(best),
        base_value=values[0],
        best_value=best,
    )


@dataclass(frozen=True)
class SweepSummary:
    """A sweep's inputs and records; the witness and the bound derive from them."""

    config: SearchConfig
    records: tuple[GainRecord, ...]
    skipped: tuple[int, ...]

    @property
    def witness(self) -> GainRecord | None:
        """The first record with the largest positive gain; a zero gain witnesses nothing."""
        return max((r for r in self.records if r.gain > 0), key=lambda r: r.gain, default=None)

    @property
    def max_gain(self) -> Fraction:
        return self.witness.gain if self.witness else _ZERO

    @property
    def witness_index(self) -> int | None:
        return self.witness.index if self.witness else None

    @property
    def witness_digest(self) -> str | None:
        return self.witness.digest if self.witness else None

    @property
    def bound(self) -> Fraction:
        return Fraction(1) if self.config.utility == "UE" else Fraction(2, 3)

    @property
    def exceeds_bound(self) -> bool:
        return self.max_gain > self.bound

    def to_document(self) -> dict:
        if not self.records:
            status = "no instance solved"
        elif self.exceeds_bound:
            status = "counterexample candidate: observed gain exceeds the conjectured bound"
        else:
            status = "consistent with the conjectured bound"
        return {
            "seed": self.config.seed,
            "instances": self.config.instances,
            "utility": self.config.utility,
            "max_gain": format_rational(self.max_gain),
            "conjectured_bound": format_rational(self.bound),
            "status": status,
            "witness_index": self.witness_index,
            "witness_digest": self.witness_digest,
            "skipped": list(self.skipped),
        }


def sweep(config: SearchConfig) -> SweepSummary:
    """Run the recruiting-gain search over the configured instance stream.

    An observation above the bound is surfaced prominently as a
    counterexample candidate; it is a finding, never an error.  Instances
    whose state space blows the solve budget are recorded and skipped.
    """
    utility = config.utility
    records: list[GainRecord] = []
    skipped: list[int] = []
    for index in range(config.instances):
        spec = generate_instance(config, index)
        cap = config.max_recruits
        if cap is None:
            cap = default_recruit_cap(spec.rounds, utility)
        try:
            records.append(max_gain(spec, cap, index=index, utility_name=utility))
        except GameModelError as exc:  # per-instance budget/size failures
            if exc.code not in ("BUDGET", "SIZE"):
                raise
            skipped.append(index)
    return SweepSummary(config, tuple(records), tuple(skipped))


CSV_HEADER = "index,T,m,n,utility,recruits_used,base_value,best_value,gain"


def records_to_csv(records: Iterable[GainRecord]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in records:
        out.write(
            f"{r.index},{r.rounds},{r.team1_size},{r.team2_size},{r.utility},"
            f"{r.recruits_used},{format_rational(r.base_value)},"
            f"{format_rational(r.best_value)},{format_rational(r.gain)}\n"
        )
    return out.getvalue()
