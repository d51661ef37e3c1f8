"""Backward-induction solver over history classes.

Histories that used the same player sets and produced the same number of
Team-1 wins share a value, so states are (played1, played2, wins) triples
rather than raw move sequences.  Levels run from the terminal round downward;
each non-terminal class is summarized by one small zero-sum matrix game whose
cells blend the two successor values by the match-win probability, and the
equilibrium mixtures of those stage games assemble the behavioral strategies.
Translates share one game: two win counts at the same played sets whose
remaining utilities differ by a constant c have stage games that differ by c
in every cell, so the later class takes the earlier one's strategies and its
value plus c (von Neumann & Morgenstern).  Under UE every win count at a round
is such a translate; under UM only the decided ones are.

All class tables are computed in full, including classes no equilibrium play
reaches, because best-response evaluation needs off-path values too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, prod
from typing import Callable, Iterator, Mapping, Union

from .matrix import MatrixGame, solve_matrix
from .model import (
    BehavioralStrategy,
    BudgetExceeded,
    CoverageError,
    GameSpec,
    HistoryClassKey,
    PureAdaptiveStrategy,
    RedundantPlayersError,
    ROOT_CLASS,
    TerminalClassError,
    ValidationError,
    _whole,
    player_label,
    unplayed,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Abort threshold on the number of history classes a single solve may touch.
DEFAULT_CLASS_BUDGET = 50_000_000

#: Abort threshold on the number of pure adaptive strategies an enumeration
#: may yield.
DEFAULT_ENUM_BUDGET = 200_000

Strategy = Union[BehavioralStrategy, PureAdaptiveStrategy]
#: A finished contest: the sorted (i, j) pairs that met and the terminal class.
_Outcome = tuple[tuple[tuple[int, int], ...], HistoryClassKey]
#: The classes of one round where a pure strategy's own picks lead, sorted.
_Frontier = tuple[HistoryClassKey, ...]
#: One step down the strategy prefix tree: (frontier, picks there, state) to
#: the next round's frontier and state.
_Step = Callable[[_Frontier, tuple[int, ...], object], tuple[_Frontier, object]]


def class_count(team1_size: int, team2_size: int, rounds: int) -> int:
    """Number of history classes in the solver's value table, terminal ones
    included; translates among them share one stage game (see ``solve``)."""
    return sum(
        comb(team1_size, k) * comb(team2_size, k) * (k + 1) for k in range(rounds + 1)
    )


def _masks(size: int, k: int) -> Iterator[int]:
    for combo in itertools.combinations(range(size), k):
        mask = 0
        for i in combo:
            mask |= 1 << i
        yield mask


# The match rule, written once.  Team-1 player i meets Team-2 player j and
# wins with probability p: the contest moves to wins+1 when p > 0 and stays at
# wins when p < 1.  The forward pass and ``evaluate_fixed`` walk the successor
# classes; ``stage_matrix`` blends the successor values without building them.

def _successors(
    key: HistoryClassKey, i: int, j: int, p: Fraction
) -> tuple[tuple[HistoryClassKey, Fraction], ...]:
    """Classes the match (i, j) at ``key`` leads to, each with its probability."""
    xm, ym, wins = key
    xm, ym = xm | (1 << i), ym | (1 << j)
    if p == 1:
        return ((HistoryClassKey(xm, ym, wins + 1), _ONE),)
    if p == 0:
        return ((HistoryClassKey(xm, ym, wins), _ONE),)
    return ((HistoryClassKey(xm, ym, wins + 1), p), (HistoryClassKey(xm, ym, wins), 1 - p))


def _blend(
    values: Mapping[HistoryClassKey, Fraction], xm: int, ym: int, wins: int, p: Fraction
) -> Fraction:
    """Expected successor value of a match won with probability ``p``; the
    masks ``xm``/``ym`` already include the two players who met."""
    if p == 1:
        return values[(xm, ym, wins + 1)]
    if p == 0:
        return values[(xm, ym, wins)]
    return p * values[(xm, ym, wins + 1)] + (1 - p) * values[(xm, ym, wins)]


def _reach(spec: GameSpec, key: HistoryClassKey, team: int, pick: int) -> set[HistoryClassKey]:
    """Classes one round after ``key`` when ``team`` commits ``pick`` and the
    other team commits any of its unused players."""
    strength = spec.strength.entries
    other = 3 - team
    free = unplayed(key[other - 1], spec.team_size(other))
    pairs = [(pick, j) for j in free] if team == 1 else [(i, pick) for i in free]
    return {succ for i, j in pairs for succ, _ in _successors(key, i, j, strength[i][j])}


@dataclass(frozen=True)
class SolveResult:
    """Complete equilibrium summary of one contest.

    ``value_table`` covers every class; ``strategy1``/``strategy2`` hold one
    equilibrium mixture per decision class (an equilibrium, not the unique
    one; ties are resolved by the deterministic pivot rule).
    """

    spec: GameSpec
    value_table: Mapping[HistoryClassKey, Fraction]
    strategy1: BehavioralStrategy
    strategy2: BehavioralStrategy
    root_value: Fraction


def stage_matrix(
    spec: GameSpec,
    values: Mapping[HistoryClassKey, Fraction],
    key: HistoryClassKey,
) -> MatrixGame:
    """One-round matrix game at ``key`` given the next level's values.

    Rows are Team 1's unused players in ascending index order, columns Team
    2's.  The (i, j) cell is the win-value weighted by the match probability
    plus the loss-value weighted by its complement.
    """
    m, n = spec.team1_size, spec.team2_size
    xm, ym, wins = key
    k = key.round_index
    if k >= spec.rounds:
        raise TerminalClassError(f"class at round {k} of {spec.rounds} has no stage game")
    strength = spec.strength.entries
    cols = [(j, ym | (1 << j)) for j in unplayed(ym, n)]
    payoff = []
    for i in unplayed(xm, m):
        xm_next, row = xm | (1 << i), strength[i]
        payoff.append(
            tuple([_blend(values, xm_next, ym_next, wins, row[j]) for j, ym_next in cols])
        )
    return MatrixGame(tuple(payoff))


def solve(spec: GameSpec, *, class_budget: int = DEFAULT_CLASS_BUDGET) -> SolveResult:
    """Equilibrium values and strategies for every history class.

    Deterministic: class iteration order and every stage-game pivot are
    fixed, so identical specs produce identical tables.
    """
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    total = class_count(m, n, rounds)
    if total > _whole(class_budget, "budget", 0):
        raise BudgetExceeded(
            f"{total} history classes exceed the budget of {class_budget}"
        )

    values: dict[HistoryClassKey, Fraction] = {}
    moves1: dict[HistoryClassKey, dict[int, Fraction]] = {}
    moves2: dict[HistoryClassKey, dict[int, Fraction]] = {}
    utility = spec.utility.values

    for xmask in _masks(m, rounds):
        for ymask in _masks(n, rounds):
            for wins in range(rounds + 1):
                values[HistoryClassKey(xmask, ymask, wins)] = utility[wins]

    for k in range(rounds - 1, -1, -1):
        # Each win count's first translate at this round and the constant
        # between their remaining utilities; a count that is its own first
        # gets its stage game solved.
        sources: list[tuple[int, Fraction]] = []
        firsts: dict[tuple[Fraction, ...], int] = {}
        for wins in range(k + 1):
            rest = utility[wins : wins + rounds - k + 1]
            first = firsts.setdefault(tuple(u - rest[0] for u in rest), wins)
            sources.append((first, rest[0] - utility[first]))
        for xmask in _masks(m, k):
            row_players = unplayed(xmask, m)
            for ymask in _masks(n, k):
                col_players = unplayed(ymask, n)
                for wins, (first, shift) in enumerate(sources):
                    key = HistoryClassKey(xmask, ymask, wins)
                    if first < wins:
                        twin = (xmask, ymask, first)
                        values[key] = values[twin] + shift
                        moves1[key] = moves1[twin]
                        moves2[key] = moves2[twin]
                        continue
                    game = stage_matrix(spec, values, key)
                    solution = solve_matrix(game)
                    values[key] = solution.value
                    moves1[key] = dict(zip(row_players, solution.row_strategy))
                    moves2[key] = dict(zip(col_players, solution.col_strategy))

    return SolveResult(
        spec=spec,
        value_table=values,
        strategy1=BehavioralStrategy(1, moves1),
        strategy2=BehavioralStrategy(2, moves2),
        root_value=values[ROOT_CLASS],
    )


def uniform_strategy(spec: GameSpec, team: int) -> BehavioralStrategy:
    """Pick uniformly among the team's unused players at every class."""
    own_size = spec.team_size(team)
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    moves: dict[HistoryClassKey, dict[int, Fraction]] = {}
    for k in range(rounds):
        weight = Fraction(1, own_size - k)
        for xmask in _masks(m, k):
            for ymask in _masks(n, k):
                dist = {i: weight for i in unplayed((xmask, ymask)[team - 1], own_size)}
                for wins in range(k + 1):
                    moves[HistoryClassKey(xmask, ymask, wins)] = dist
    return BehavioralStrategy(team, moves)


def _require_no_spares(spec: GameSpec) -> None:
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    if m != rounds or n != rounds:
        raise RedundantPlayersError(
            f"needs team sizes equal to T (have {m} and {n}, T={rounds})"
        )


def _require_team_order(strategy1: Strategy, strategy2: Strategy) -> None:
    """The one play-order rule: Team 1's strategy first, Team 2's second
    (PARSE otherwise)."""
    if strategy1.team != 1 or strategy2.team != 2:
        raise ValidationError("pass team 1's strategy first and team 2's second", "PARSE")


def _distribution_at(
    spec: GameSpec, strategy: Strategy, key: HistoryClassKey
) -> dict[int, Fraction]:
    """Strategy's move distribution at a class, validated against the
    unplayed players of the strategy's own team, whose roster and played set
    it reads from ``strategy.team`` (PARSE unless that is 1 or 2)."""
    own_size = spec.team_size(strategy.team)
    own_mask = key[strategy.team - 1]
    entry = strategy.moves.get(key)
    if entry is None:
        raise CoverageError(
            f"strategy for team {strategy.team} has no move at class "
            f"(played1={key.played1:b}, played2={key.played2:b}, wins={key.wins})"
        )
    if isinstance(strategy, PureAdaptiveStrategy) or isinstance(entry, int):
        player = int(entry)
        if not (0 <= player < own_size) or (own_mask >> player) & 1:
            raise CoverageError(
                f"strategy picks unavailable player {player_label(strategy.team, player)}"
            )
        return {player: _ONE}
    total = _ZERO
    for player, weight in entry.items():
        if weight < 0:
            raise CoverageError("strategy weights must be nonnegative")
        if weight > 0 and (not (0 <= player < own_size) or (own_mask >> player) & 1):
            raise CoverageError(
                f"strategy puts weight on unavailable player "
                f"{player_label(strategy.team, player)}"
            )
        total += weight
    if total != 1:
        raise CoverageError(f"strategy weights sum to {total}, expected 1")
    return {p: w for p, w in entry.items() if w > 0}


def evaluate_fixed(spec: GameSpec, fixed: Strategy) -> Fraction:
    """Team-1 value when ``fixed``'s team is frozen and the other team plays a
    best response.

    Memoized backward induction over exactly the classes reachable when the
    opponent plays arbitrarily; raises CoverageError if the fixed strategy is
    silent or invalid at any such class.
    """
    strength = spec.strength.entries
    utility = spec.utility.values
    rounds = spec.rounds
    # Roles, picked once.  ``step`` turns (Team 1, Team 2) order into (frozen,
    # free) order and back; the free team pushes Team-1 utility its own way.
    # The frozen team's number is checked where its first move is read.
    step, free, respond = (1, 2, min) if fixed.team == 1 else (-1, 1, max)
    free_size = spec.team_size(free)
    best: dict[HistoryClassKey, Fraction] = {}

    def value(key: HistoryClassKey) -> Fraction:
        if key.round_index == rounds:
            return utility[key.wins]
        if key not in best:
            dist = _distribution_at(spec, fixed, key)
            candidates = []
            for free_player in unplayed(key[free - 1], free_size):
                expected = _ZERO
                for fixed_player, weight in dist.items():
                    i, j = (fixed_player, free_player)[::step]
                    for succ, q in _successors(key, i, j, strength[i][j]):
                        expected += weight * q * value(succ)
                candidates.append(expected)
            best[key] = respond(candidates)
        return best[key]

    return value(ROOT_CLASS)


def _histories(
    spec: GameSpec, strategy1: Strategy, strategy2: Strategy
) -> dict[_Outcome, Fraction]:
    """Exact distribution over finished contests; probabilities sum to one."""
    _require_team_order(strategy1, strategy2)
    strength = spec.strength.entries

    states: dict[_Outcome, Fraction] = {((), ROOT_CLASS): _ONE}
    for _ in range(spec.rounds):
        nxt: dict[_Outcome, Fraction] = {}
        for (pairs, key), prob in states.items():
            dist1 = _distribution_at(spec, strategy1, key)
            dist2 = _distribution_at(spec, strategy2, key)
            for i, w1 in dist1.items():
                for j, w2 in dist2.items():
                    move_prob = prob * w1 * w2
                    pairs_next = tuple(sorted(pairs + ((i, j),)))
                    for succ, q in _successors(key, i, j, strength[i][j]):
                        state = (pairs_next, succ)
                        nxt[state] = nxt.get(state, _ZERO) + move_prob * q
        states = nxt
    return states


def matching_distribution(
    spec: GameSpec, strategy1: Strategy, strategy2: Strategy
) -> dict[tuple[int, ...], Fraction]:
    """Exact distribution over complete player matchings.

    Requires no redundant players (team sizes equal to the round count) so a
    finished contest always pairs everyone.  Keys are tuples where position i
    holds the Team-2 player matched with Team-1 player i; probabilities are
    marginalized over match outcomes and sum to one.
    """
    _require_no_spares(spec)
    result: dict[tuple[int, ...], Fraction] = {}
    for (pairs, _key), prob in _histories(spec, strategy1, strategy2).items():
        matching = tuple(j for _i, j in pairs)  # pairs already sorted by i
        result[matching] = result.get(matching, _ZERO) + prob
    return {key: result[key] for key in sorted(result)}


def meeting_probabilities(
    spec: GameSpec, strategy1: Strategy, strategy2: Strategy
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact probability grid of player pairs being committed the same round.

    Entry (i, j) is the chance Team 1's player i and Team 2's player j meet
    at some point of the contest under the two strategies.
    """
    grid = [[_ZERO] * spec.team2_size for _ in range(spec.team1_size)]
    for (pairs, _key), prob in _histories(spec, strategy1, strategy2).items():
        for i, j in pairs:
            grid[i][j] += prob
    return tuple(tuple(row) for row in grid)


def _prefix_walk(
    spec: GameSpec,
    team: int,
    budget: int,
    step: _Step | None = None,
    root: object = None,
) -> Iterator[tuple[_Frontier, list[list[int]], dict[HistoryClassKey, int], object]]:
    """Last round of every prefix of ``team``'s pure strategies, in
    enumeration order.

    A prefix fixes the team's picks at every class of its earlier rounds that
    its own picks reach.  Each yield is the prefix's last-round frontier, the
    unused players at each of its classes, the earlier picks (one dict,
    updated in place between yields) and the state ``step`` carried down.
    ``step(frontier, combo, state)`` gives the next round's frontier and
    state once ``combo`` is picked at ``frontier``; the default reaches every
    class any opponent move and outcome leads to and carries no state.
    Raises BudgetExceeded before the first yield when more than ``budget``
    strategies exist.
    """
    own_size = spec.team_size(team)
    _whole(budget, "budget", 0)
    rounds = spec.rounds

    def reachable(frontier, combo, _state):
        frontier_next: set[HistoryClassKey] = set()
        for key, choice in zip(frontier, combo):
            frontier_next |= _reach(spec, key, team, choice)
        return tuple(sorted(frontier_next)), None

    def prefixes(step, frontier, state, level, assignment):
        choices = [unplayed(key[team - 1], own_size) for key in frontier]
        if level + 1 == rounds:
            yield frontier, choices, assignment, state
            return
        for combo in itertools.product(*choices):
            assignment.update(zip(frontier, combo))
            yield from prefixes(step, *step(frontier, combo, state), level + 1, assignment)
        for key in frontier:
            del assignment[key]

    # Every prefix has at least one completion, so the count walk stops
    # after at most budget + 1 prefixes.
    total = 0
    for _frontier, choices, _picks, _state in prefixes(reachable, (ROOT_CLASS,), None, 0, {}):
        total += prod(len(players) for players in choices)
        if total > budget:
            raise BudgetExceeded(f"pure strategy enumeration exceeds the budget of {budget}")
    yield from prefixes(step or reachable, (ROOT_CLASS,), root, 0, {})


def enumerate_pure_strategies(
    spec: GameSpec, team: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[PureAdaptiveStrategy]:
    """Yield every realization-distinct pure adaptive strategy once.

    A strategy assigns one unused player to each class consistent with its
    own earlier picks (the opponent's moves and the match outcomes branch
    freely).  Two assignments that differ only off their own play path would
    play identically, so they are not enumerated twice.  Raises
    BudgetExceeded on the first ``next()`` when more than ``budget``
    strategies exist, before any strategy is yielded.
    """
    for frontier, choices, assignment, _ in _prefix_walk(spec, team, budget):
        for combo in itertools.product(*choices):
            moves = dict(assignment)
            moves.update(zip(frontier, combo))
            yield PureAdaptiveStrategy(team, moves)


def pure_meeting_grids(
    spec: GameSpec, *, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[tuple[tuple[Fraction, ...], ...]]:
    """Meeting grid of every Team-1 pure strategy against a uniform Team 2.

    The k-th grid equals ``meeting_probabilities(spec, pure,
    uniform_strategy(spec, 2))`` for the k-th strategy
    ``enumerate_pure_strategies(spec, 1, budget=budget)`` yields, and
    BudgetExceeded comes at the same point, before any grid.  One walk down
    the enumeration's prefix tree carries each frontier class's reach
    probability and the grid of the rounds already decided, so strategies
    that share a prefix share its work and only the last round is expanded
    per strategy.  A pair meets at most once, so a grid is a sum over rounds.
    """
    m, n = spec.team1_size, spec.team2_size
    strength = spec.strength.entries

    def slots(reach, frontier):
        """Each frontier class, Team 2's unused players there, and the
        probability of reaching the class and meeting any one of them."""
        for key in frontier:
            free = unplayed(key.played2, n)
            yield key, free, reach[key] / len(free)

    def step(frontier, combo, state):
        reach, grid = state
        grid = [row[:] for row in grid]
        reach_next: dict[HistoryClassKey, Fraction] = {}
        for (key, free, share), i in zip(slots(reach, frontier), combo):
            for j in free:
                grid[i][j] += share
                for succ, q in _successors(key, i, j, strength[i][j]):
                    reach_next[succ] = reach_next.get(succ, _ZERO) + share * q
        return tuple(sorted(reach_next)), (reach_next, grid)

    root = ({ROOT_CLASS: _ONE}, [[_ZERO] * n for _ in range(m)])
    for frontier, choices, _, (reach, grid) in _prefix_walk(spec, 1, budget, step, root):
        last = list(slots(reach, frontier))
        for combo in itertools.product(*choices):
            final = [row[:] for row in grid]
            for (_key, free, share), i in zip(last, combo):
                row = final[i]
                for j in free:
                    row[j] += share
            yield tuple(tuple(row) for row in final)


def max_meeting_probability(spec: GameSpec, row_player: int, col_player: int) -> Fraction:
    """Largest achievable probability that two given players meet.

    Team 1 picks to make the meeting happen; Team 2 selects uniformly among
    its unused players.  Computed by backward induction over played-set
    pairs, so the bound covers every Team-1 strategy at once, adaptive or
    mixed alike: win counts carry no information about the meeting event, so
    conditioning on them cannot help.
    """
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    _whole(row_player, "row player", 0)
    _whole(col_player, "column player", 0)
    if row_player >= m or col_player >= n:
        raise ValidationError("player index out of range", "INDEX")

    # Only pairs of played sets after which the two can still meet are
    # visited; every other one, terminal sets included, is worth zero.
    @cache
    def best(xmask: int, ymask: int) -> Fraction:
        k = xmask.bit_count()
        if k == rounds:
            return _ZERO
        totals = []
        for i in unplayed(xmask, m):
            total = _ZERO
            for j in unplayed(ymask, n):
                if i == row_player and j == col_player:
                    total += _ONE
                elif i != row_player and j != col_player:
                    total += best(xmask | (1 << i), ymask | (1 << j))
            totals.append(total)
        return max(totals) / (n - k)

    return best(0, 0)
