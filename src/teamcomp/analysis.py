"""Structural analysis and mechanical verification of equilibrium claims.

Covers player comparisons (weaker / weakest / dominated, transitive teams),
roster surgery (abandoning players, recruiting always-losing ones), the
parametrized threshold contests used in the recruiting analysis, and the
named checkers behind the CLI ``verify`` suites.  Each checker re-derives its
claim from solver output and returns a machine-readable report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Sequence

from .matrix import (
    best_col_response_value,
    best_row_response_value,
    col_dominates,
    row_dominates,
)
from .instances import default_recruit_cap, named_instance
from .model import (
    BehavioralStrategy,
    BudgetExceeded,
    GameSpec,
    HistoryClassKey,
    PreconditionError,
    ROOT_CLASS,
    StrengthMatrix,
    UtilityTable,
    ValidationError,
    _check_roster,
    _team,
    _whole,
    format_rational,
    player_label,
    unplayed,
    utility_name,
    utility_ue,
)
from .solver import (
    DEFAULT_ENUM_BUDGET,
    _check_budget,
    _require_no_spares,
    _uniform_play,
    enumerate_pure_strategies,
    evaluate_fixed,
    matching_distribution,
    max_meeting_probability,
    meeting_probabilities,  # unused here; bound so the benchmark's tracer can wrap it
    pure_meeting_grids,
    solve,
    stage_matrix,
    uniform_strategy,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Player comparisons
# ---------------------------------------------------------------------------

def weaker_team1(strength: StrengthMatrix, i: int, j: int) -> bool:
    """Player i never beats an opponent more often than player j does."""
    return all(a <= b for a, b in zip(strength.row(i), strength.row(j)))


@dataclass(frozen=True)
class PlayerClassification:
    """One team's per-player flags and its strength chain.

    ``order`` lists the team's player indices weakest-first, or is None when
    the team has no chain; the team is transitive exactly when it has one.
    """

    weakest: tuple[bool, ...]
    dominated: tuple[bool, ...]
    order: tuple[int, ...] | None

    @property
    def transitive(self) -> bool:
        return self.order is not None


def _row_players(strength: StrengthMatrix) -> PlayerClassification:
    """The classification of the row players."""
    m = strength.rows
    weakest = tuple(
        all(weaker_team1(strength, i, j) for j in range(m) if j != i) for i in range(m)
    )
    dominated = tuple(all(p == 0 for p in strength.row(i)) for i in range(m))
    # Sort by row mass: a componentwise chain forces mass order, so a chain
    # exists iff the mass-sorted order verifies (ties are identical-row
    # blocks and commute).
    order = sorted(range(m), key=lambda i: (sum(strength.row(i), _ZERO), i))
    chained = all(weaker_team1(strength, a, b) for a, b in itertools.pairwise(order))
    return PlayerClassification(weakest, dominated, tuple(order) if chained else None)


def classify(spec: GameSpec) -> tuple[PlayerClassification, PlayerClassification]:
    """Exact weakest/dominated flags and strength chain of Team 1 and Team 2.

    Team 2's player j beats Team 1's player i with probability 1 - P[i][j],
    so Team 2's flags are the row-player flags of the mirror 1 - P^T.
    """
    strength = spec.strength
    mirror = StrengthMatrix(
        tuple(tuple(1 - p for p in strength.col(j)) for j in range(strength.cols))
    )
    return _row_players(strength), _row_players(mirror)


# ---------------------------------------------------------------------------
# Roster surgery
# ---------------------------------------------------------------------------

def abandon(spec: GameSpec, team: int, players: Sequence[int]) -> GameSpec:
    """Remove the given players (zero-based) before play; T and U unchanged."""
    size = spec.team_size(team)
    drop = set(players)
    for p in drop:
        if not _whole(p, "player", 0) < size:
            raise ValidationError(f"no player {player_label(team, p)} on team {team}", "INDEX")
    if size - len(drop) < spec.rounds:
        raise ValidationError(
            f"abandoning {len(drop)} of {size} players leaves fewer than T={spec.rounds}",
            "SIZE",
        )
    entries = spec.strength.entries
    if team == 1:
        rows = tuple(entries[i] for i in range(size) if i not in drop)
    else:
        keep = [j for j in range(size) if j not in drop]
        rows = tuple(tuple(row[j] for j in keep) for row in entries)
    return GameSpec(spec.rounds, StrengthMatrix(rows), spec.utility)


def abandonment_delta(spec: GameSpec, team: int, players: Sequence[int]) -> Fraction:
    """Utility the abandoning team loses by dropping the players.

    Positive means the abandoned players were helping.  Measured in the
    abandoning team's own utility, so for Team 2 the sign flips relative to
    the solver's Team-1 values.
    """
    before = solve(spec).root_value
    after = solve(abandon(spec, team, players)).root_value
    delta = before - after
    return delta if team == 1 else -delta


def add_dominated(spec: GameSpec, count: int) -> GameSpec:
    """Recruit ``count`` players for Team 1 that lose every match."""
    if _whole(count, "recruit count", 0) == 0:
        return spec
    _check_roster(spec.rounds, spec.team1_size + count, spec.team2_size)
    zero_row = tuple([_ZERO] * spec.team2_size)
    rows = spec.strength.entries + tuple([zero_row] * count)
    return GameSpec(spec.rounds, StrengthMatrix(rows), spec.utility)


# ---------------------------------------------------------------------------
# Parametrized threshold contests
# ---------------------------------------------------------------------------

def _halves(c: int) -> tuple[int, int]:
    """ceil(c/2) and floor(c/2), exactly."""
    return (c + 1) // 2, c // 2


@dataclass(frozen=True)
class GammaParams:
    """Parameters of the threshold contest family.

    ``c`` is the underlying contest scale; ``a`` counts strong diagonal pairs
    already consumed by Team-1 wins (each lowers the win threshold by one);
    ``b`` counts consumed dummy pairs.  Valid whenever c >= 1,
    0 <= a <= ceil(c/2) and 0 <= b <= floor(c/2); checked when built (PARSE
    unless ints, SIZE below those bounds, PARAMS above them).
    """

    c: int
    a: int
    b: int

    def __post_init__(self) -> None:
        up, down = _halves(_whole(self.c, "c", 1))
        if not _whole(self.a, "a", 0) <= up or not _whole(self.b, "b", 0) <= down:
            raise ValidationError(
                f"invalid threshold-game parameters c={self.c}, a={self.a}, b={self.b}",
                "PARAMS",
            )

    @property
    def rounds(self) -> int:
        return self.c - self.a - self.b

    @property
    def team_size(self) -> int:
        return (self.c - self.a) + (_halves(self.c)[1] - self.b)

    @property
    def threshold(self) -> int:
        """Round wins Team 1 needs for utility +1 (otherwise -1)."""
        return _halves(self.c)[0] - self.a


def gamma_game(params: GammaParams) -> GameSpec:
    """Build the threshold contest for the given parameters.

    Both teams field the same number of players.  Player i of Team 1 beats
    only its mirror i on Team 2, and only for i below the strong-pair cutoff;
    the remaining Team-1 players always lose and the remaining Team-2 players
    are unbeatable.  Team 1 scores +1 for reaching the win threshold, else
    -1.  That table is deliberately not antisymmetric, but still zero-sum.
    """
    rounds, size = params.rounds, params.team_size
    if rounds < 1:
        raise ValidationError(
            f"parameters c={params.c}, a={params.a}, b={params.b} leave no rounds to play",
            "PARAMS",
        )
    _check_roster(rounds, size, size)
    strong = params.c - params.a
    entries = tuple(
        tuple(_ONE if i == j and i < strong else _ZERO for j in range(size))
        for i in range(size)
    )
    threshold = params.threshold
    values = tuple(_ONE if t >= threshold else -_ONE for t in range(rounds + 1))
    return GameSpec(rounds, StrengthMatrix(entries), UtilityTable(values))


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    """Machine-readable verdict: what was checked, with which parameters,
    any witnesses of failure, and the values involved.  A report passes
    exactly when it has no witness."""

    check: str
    params: dict
    witnesses: list[str] = field(default_factory=list)
    values: dict[str, Fraction] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_document(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "pass": self.passed,
            "witnesses": list(self.witnesses),
            "values": {k: format_rational(v) for k, v in self.values.items()},
        }


def _class_label(key: HistoryClassKey, m: int, n: int) -> str:
    xs = "+".join(player_label(1, i) for i in range(m) if (key.played1 >> i) & 1) or "-"
    ys = "+".join(player_label(2, j) for j in range(n) if (key.played2 >> j) & 1) or "-"
    return f"k={key.round_index} X={xs} Y={ys} w={key.wins}"


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_theorem1(spec: GameSpec) -> CheckReport:
    """Uniform random play is an equilibrium in every subgame when neither
    team has spare players.

    At each class the uniform row mixture must guarantee at least the class
    value and the uniform column mixture at most the class value.
    """
    _require_no_spares(spec)
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    result = solve(spec)
    witnesses = []
    for key in result.strategy1.moves:
        game = stage_matrix(spec, result.value_table, key)
        value = result.value_table[key]
        row_guarantee = best_col_response_value(game, [Fraction(1, game.rows)] * game.rows)
        col_guarantee = best_row_response_value(game, [Fraction(1, game.cols)] * game.cols)
        if row_guarantee < value or col_guarantee > value:
            witnesses.append(_class_label(key, m, n))
    return CheckReport(
        check="theorem1",
        params={"T": rounds},
        witnesses=witnesses,
        values={"root_value": result.root_value},
    )


def _strength_order_desc(spec: GameSpec, team: int) -> list[int]:
    order = classify(spec)[_team(team) - 1].order
    if order is None:
        raise PreconditionError(f"team {team} is not transitive")
    return list(reversed(order))  # strongest first


def check_theorem2(spec: GameSpec, team: int = 1) -> CheckReport:
    """With a monotone utility and a transitive team, spare weak players are
    droppable and the strongest remaining players dominate round by round.

    Verifies (a) the game value is unchanged after abandoning the team's
    weakest spare players, and (b) at every class, the stage-game line of the
    lowest-ranked player inside the team's top block dominates the line of
    every player outside the block.
    """
    if not spec.utility.monotone:
        raise PreconditionError("utility table is not monotone")
    strongest_first = _strength_order_desc(spec, team)
    rounds = spec.rounds
    size = spec.team_size(team)
    result = solve(spec)
    witnesses: list[str] = []
    values = {"value": result.root_value}

    if size > rounds:
        spare = strongest_first[rounds:]
        trimmed = solve(abandon(spec, team, spare))
        values["value_after_abandon"] = trimmed.root_value
        if trimmed.root_value != result.root_value:
            witnesses.append(
                f"value changed after abandoning {len(spare)} weak players: "
                f"{result.root_value} vs {trimmed.root_value}"
            )

    rank = {player: pos for pos, player in enumerate(strongest_first)}
    m, n = spec.team1_size, spec.team2_size
    for key in result.strategy1.moves:
        k = key.round_index
        # Ascending index = stage-game line order.
        lines = unplayed(key[team - 1], size)
        remaining = sorted(lines, key=rank.__getitem__)
        top = remaining[: rounds - k]
        rest = remaining[rounds - k :]
        if not rest:
            continue
        game = stage_matrix(spec, result.value_table, key)
        pos = {player: p for p, player in enumerate(lines)}
        anchor = top[-1]
        dominates = row_dominates if team == 1 else col_dominates
        for other in rest:
            if not dominates(game, pos[anchor], pos[other]):
                witnesses.append(
                    f"{_class_label(key, m, n)}: "
                    f"{player_label(team, anchor)} fails to dominate "
                    f"{player_label(team, other)}"
                )
    return CheckReport(
        check="theorem2",
        params={"team": team, "T": rounds},
        witnesses=witnesses,
        values=values,
    )


def top_block_uniform_strategy(spec: GameSpec, team: int) -> BehavioralStrategy:
    """Uniform play restricted to the team's strongest T players."""
    return _uniform_play(spec, team, sorted(_strength_order_desc(spec, team)[: spec.rounds]))


def check_corollary1(spec: GameSpec) -> CheckReport:
    """When both teams are transitive under a monotone utility, uniform play
    over each team's strongest T players is an equilibrium profile."""
    if not spec.utility.monotone:
        raise PreconditionError("utility table is not monotone")
    result = solve(spec)
    witnesses = []
    values = {"root_value": result.root_value}
    for team in (1, 2):
        fixed = top_block_uniform_strategy(spec, team)
        guarantee = evaluate_fixed(spec, fixed)
        values[f"team{team}_top_uniform_guarantee"] = guarantee
        if guarantee != result.root_value:
            witnesses.append(
                f"team {team} top-block uniform guarantees {guarantee}, "
                f"equilibrium value is {result.root_value}"
            )
    return CheckReport(
        check="corollary1",
        params={"T": spec.rounds},
        witnesses=witnesses,
        values=values,
    )


def check_lemma2(spec: GameSpec) -> CheckReport:
    """With no spare players and Team 1 uniform, every complete matching is
    equally likely no matter what Team 2 does.

    Exhaustive over all realization-distinct Team-2 pure adaptive strategies.
    """
    _require_no_spares(spec)
    rounds = spec.rounds
    expected = Fraction(1, factorial(rounds))
    strategies = enumerate_pure_strategies(spec, 2)
    first = next(strategies)  # settles the budget before the uniform table is built
    uniform1 = uniform_strategy(spec, 1)
    witnesses = []
    for count, pure in enumerate(itertools.chain([first], strategies), start=1):
        dist = matching_distribution(spec, uniform1, pure)
        if len(dist) != factorial(rounds) or any(p != expected for p in dist.values()):
            witnesses.append(f"strategy #{count} skews the matching distribution")
    return CheckReport(
        check="lemma2",
        params={"T": rounds, "strategies_checked": count},
        witnesses=witnesses,
        values={"matching_probability": expected},
    )


def check_lemma5(spec: GameSpec, *, enum_budget: int = DEFAULT_ENUM_BUDGET) -> CheckReport:
    """Against a uniform Team 2 with no spares, no Team-1 strategy can force
    any particular pairing more often than 1/T.

    Two verification routes, both exact:
      * a backward-induction maximization of each pairing probability over
        *all* Team-1 strategies at once (always run; complete), and
      * per-strategy meeting grids for every enumerable Team-1 pure adaptive
        strategy, in enumeration order, from one walk down the strategy
        prefix tree that plays each prefix through the solver's one forward
        pass (run when the enumeration fits the budget).
    """
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    if n != rounds:
        raise PreconditionError(f"needs Team 2 without spares (n={n}, T={rounds})")
    bound = Fraction(1, rounds)
    witnesses = []
    worst = _ZERO
    for i in range(m):
        for j in range(n):
            peak = max_meeting_probability(spec, i, j)
            worst = max(worst, peak)
            if peak > bound:
                witnesses.append(
                    f"{player_label(1, i)} can meet {player_label(2, j)} "
                    f"with probability {peak} > {bound}"
                )
    # Per-strategy grids only when the enumeration fits the budget; the
    # walk settles that before it yields its first grid.
    strategies_checked = 0
    enumerated = True
    try:
        for strategies_checked, grid in enumerate(
            pure_meeting_grids(spec, budget=enum_budget), start=1
        ):
            for i, row in enumerate(grid):
                for j, q in enumerate(row):
                    if q > bound:
                        witnesses.append(
                            f"pure strategy #{strategies_checked} meets "
                            f"({player_label(1, i)}, {player_label(2, j)}) "
                            f"with probability {q} > {bound}"
                        )
    except BudgetExceeded:
        enumerated = False
    return CheckReport(
        check="lemma5",
        params={
            "T": rounds,
            "m": m,
            "strategies_checked": strategies_checked,
            "enumeration_complete": enumerated,
        },
        witnesses=witnesses,
        values={"bound": bound, "max_meeting_probability": worst},
    )


def check_theorem3(spec: GameSpec) -> CheckReport:
    """A team whose spare players are all weaker than its starters can drop
    them without losing value, provided the opponent has no spares and the
    utility is the expected-wins one.

    Structural preconditions (team sizes, weak tail by index) are hard
    errors.  The value comparison itself is always reported, so running the
    checker under a different utility documents exactly how the claim breaks
    there; ``pass`` reflects whether the value survived the abandonment.
    """
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    if m <= rounds:
        raise PreconditionError(f"Team 1 needs spare players (m={m}, T={rounds})")
    if n != rounds:
        raise PreconditionError(f"Team 2 must have no spares (n={n}, T={rounds})")
    strength = spec.strength
    for tail in range(rounds, m):
        for head in range(rounds):
            if not weaker_team1(strength, tail, head):
                raise PreconditionError(
                    f"{player_label(1, tail)} is not weaker than {player_label(1, head)}"
                )
    is_ue = spec.utility == utility_ue(rounds)
    with_tail = solve(spec).root_value
    without_tail = solve(abandon(spec, 1, list(range(rounds, m)))).root_value
    witnesses = []
    if with_tail != without_tail:
        witnesses.append(
            f"value changes when the tail is abandoned: {with_tail} vs {without_tail}"
            + ("" if is_ue else " (utility is not the expected-wins table)")
        )
    lemma5 = check_lemma5(spec)
    if not lemma5.passed:
        witnesses.extend(lemma5.witnesses)
    return CheckReport(
        check="theorem3",
        params={
            "T": rounds,
            "m": m,
            "utility_is_UE": is_ue,
            "lemma5_strategies_checked": lemma5.params["strategies_checked"],
            "lemma5_enumeration_complete": lemma5.params["enumeration_complete"],
        },
        witnesses=witnesses,
        values={
            "with_tail": with_tail,
            "without_tail": without_tail,
            "max_meeting_probability": lemma5.values["max_meeting_probability"],
        },
    )


def check_theorem4(rounds: int, variant: str) -> CheckReport:
    """Recruiting always-losing players pays up to a sharp count.

    Expected-wins variant: with T-2 recruits the team is pinned at -T/2, one
    more recruit strictly improves, and a T-th recruit adds nothing.
    Majority variant: with floor(T/2)-1 recruits the team is pinned at -1,
    one more strictly improves, and another adds nothing.
    """
    variant = utility_name(variant)
    if _whole(rounds, "T", 1) < 2:
        raise PreconditionError("needs at least two rounds")
    if variant == "UE":
        base, pinned = named_instance(f"ex4:{rounds}"), -Fraction(rounds, 2)
    else:
        base, pinned = named_instance(f"ex5:{rounds}"), -_ONE
    sharp = default_recruit_cap(rounds, variant)
    counts = [sharp - 1, sharp, sharp + 1]
    # Largest rung first: a rung over the class budget is refused before any
    # smaller one is solved.
    results = [solve(add_dominated(base, r)).root_value for r in counts[::-1]][::-1]
    witnesses = []
    if results[0] != pinned:
        witnesses.append(
            f"value with {counts[0]} recruits is {results[0]}, expected {pinned}"
        )
    if not results[1] > pinned:
        witnesses.append(
            f"value with {counts[1]} recruits is {results[1]}, expected > {pinned}"
        )
    if results[2] != results[1]:
        witnesses.append(
            f"extra recruit changed the value: {results[1]} vs {results[2]}"
        )
    return CheckReport(
        check="theorem4",
        params={"T": rounds, "variant": variant},
        witnesses=witnesses,
        values={f"recruits_{r}": v for r, v in zip(counts, results)},
    )


def check_lemma6(c_max: int) -> CheckReport:
    """Every threshold contest in the family has value above -1.

    Also verifies, whenever both parameters can still grow, that the root
    stage game's diagonal cells equal the values of the two reduced contests
    (strong pair consumed / dummy pair consumed), and that the value never
    drops when the threshold loosens.
    """
    _whole(c_max, "c_max", 1)
    # Refuse the largest contest, SIZE or BUDGET, before solving any.
    _check_budget(gamma_game(GammaParams(c_max, 0, 0)))
    values: dict[tuple[int, int, int], Fraction] = {}
    witnesses: list[str] = []
    for c in range(1, c_max + 1):
        up, down = _halves(c)
        # Largest (a, b) first: both contests a contest reduces to are
        # solved, and checked, before it is.
        for a in range(up, -1, -1):
            for b in range(down, -1, -1):
                tag = f"c={c} a={a} b={b}"
                params = GammaParams(c, a, b)
                if params.rounds == 0:
                    # Round-less corner: the threshold is already met, so the
                    # contest is worth exactly +1 without any play.
                    value = _ONE
                else:
                    result = solve(gamma_game(params))
                    value = result.root_value
                values[(c, a, b)] = value
                if not value > -1:
                    witnesses.append(f"{tag}: value {value} is not above -1")
                if a == up and value != 1:
                    witnesses.append(f"{tag}: threshold already met but value is {value}")
                if a < up and values[(c, a + 1, b)] < value:
                    witnesses.append(f"{tag}: loosening the threshold lowered the value")
                if a < up and b < down:
                    payoff = stage_matrix(result.spec, result.value_table, ROOT_CLASS).payoff
                    for i in range(result.spec.team1_size):
                        expected = values[(c, a + 1, b)] if i < c - a else values[(c, a, b + 1)]
                        if payoff[i][i] != expected:
                            witnesses.append(
                                f"{tag}: diagonal cell {i} is {payoff[i][i]}, "
                                f"reduced contest is worth {expected}"
                            )
    return CheckReport(
        check="lemma6",
        params={"C_max": c_max},
        witnesses=witnesses,
        values={f"C{c}_a{a}_b{b}": v for (c, a, b), v in sorted(values.items())},
    )
