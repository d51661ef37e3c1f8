"""Backward-induction solver over history classes.

Histories that used the same player sets and produced the same number of
Team-1 wins share a value, so states are (played1, played2, wins) triples
rather than raw move sequences.  Levels run from the terminal round downward;
each non-terminal class is summarized by one small zero-sum matrix game whose
cells blend the two successor values by the match-win probability, and the
equilibrium mixtures of those stage games assemble the behavioral strategies.
A stage game is built in integers: with each win probability written a/Dp
over the strength matrix's one denominator Dp and the successor values over
the lcm D of their denominators, a cell is a*V_win + (Dp - a)*V_loss over
D*Dp.
One copy rule shares stage games.  Players whose rows (Team 1) or columns
(Team 2) of the strength matrix are equal have one type.  Classes at a round
whose unused players read the same types in index order, and whose win counts
have the same first translate (the lowest count whose remaining utilities
differ by a constant c), share a copy key: their stage games differ by c in
every cell (von Neumann & Morgenstern; Gilpin & Sandholm 2007), so only the
first is solved and each later one takes its value plus c.  Under UE every
win count at a round is a translate of zero wins; under UM only the decided
ones are.

Every class-indexed map (values, equilibrium and uniform moves) is one view
over one row per pair of played sets, indexed by win count.  Values cover
every class, off-path ones too, which best responses need: terminal pairs read
the utility table, later pairs their type sequences' value list, the root its
value.  Below the root a stage game yields its value alone; the root's is
solved last, with its mixtures.  Other mixtures are read when first asked
for, from the game of the first class read with the copy key: a type copy's
game is the same integer matrix, Bland's pivots and the saddle scan ignore a
translate's constant, and a certified answer is its game's only equilibrium.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import comb, lcm, prod

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
    _exact,
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

#: A contest some rounds in: the sorted (i, j) pairs that met and its class.
_Outcome = tuple[tuple[tuple[int, int], ...], HistoryClassKey]
#: The classes of one round where a pure strategy's own picks lead, sorted.
_Frontier = tuple[HistoryClassKey, ...]
#: A strategy's move distribution by class, as ``_reader`` builds it.
_Read = Callable[[HistoryClassKey], dict[int, Fraction]]


def class_count(team1_size: int, team2_size: int, rounds: int) -> int:
    """Number of history classes in the solver's value table, terminal ones
    included; translates among them, and classes whose unused players are of
    the same types, share one stage game (see ``solve``).  Each argument is a
    whole number (PARSE unless an int, SIZE below 0)."""
    _whole(team1_size, "team 1 size", 0)
    _whole(team2_size, "team 2 size", 0)
    _whole(rounds, "T", 0)
    return sum(
        comb(team1_size, k) * comb(team2_size, k) * (k + 1) for k in range(rounds + 1)
    )


def _check_budget(spec: GameSpec, budget: int = DEFAULT_CLASS_BUDGET) -> None:
    """BUDGET when ``spec`` has more history classes than ``budget``."""
    total = class_count(spec.team1_size, spec.team2_size, spec.rounds)
    if total > _whole(budget, "budget", 0):
        raise BudgetExceeded(f"{total} history classes exceed the budget of {budget}")


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
    one; ties are resolved by the deterministic pivot rule).  All three are
    views over one row per pair of played sets, the moves over the decision
    pairs; each copy key's stage game (see the module docstring) is solved on
    the first read of a class with that key, once for both teams.
    """

    spec: GameSpec
    value_table: Mapping[HistoryClassKey, Fraction]
    strategy1: BehavioralStrategy
    strategy2: BehavioralStrategy
    root_value: Fraction


@dataclass(frozen=True, eq=False, slots=True)
class _Table(Mapping):
    """Read-only map over history classes, one row per pair of played sets:
    class ``(played1, played2, wins)`` holds ``rows[played1, played2][wins]``,
    or ``entry`` of its key when ``entry`` is set.  Classes iterate in the
    rows' order, win counts ascending, and a key that names no class raises
    KeyError, as with a dict."""

    rows: dict[tuple[int, int], Sequence]
    entry: Callable[[HistoryClassKey], object] | None = None

    def __getitem__(self, key: HistoryClassKey):
        try:
            played1, played2, wins = key
            if wins < 0:
                raise IndexError(wins)
            value = self.rows[played1, played2][wins]
        except (TypeError, ValueError, KeyError, IndexError):
            raise KeyError(key) from None
        return value if self.entry is None else self.entry(key)

    def __iter__(self) -> Iterator[HistoryClassKey]:
        for (played1, played2), row in self.rows.items():
            for wins in range(len(row)):
                yield HistoryClassKey(played1, played2, wins)

    def __len__(self) -> int:
        return sum(map(len, self.rows.values()))


def _copy_rule(spec: GameSpec) -> tuple:
    """``(types1, types2, translates)``.  A class's copy key is
    ``(types1(played1), types2(played2), translates[round][wins][0])``: its
    unused players' types, a player's type being the first player with its
    strength row (Team 1) or column (Team 2), and its win count's first
    translate, which ``translates`` pairs with the constant between them."""

    def types(lines: Sequence[tuple[int, ...]], size: int) -> Callable[[int], tuple[int, ...]]:
        kinds = [lines.index(line) for line in lines]
        return cache(lambda mask: tuple(kinds[i] for i in unplayed(mask, size)))

    rows, utility, rounds = spec.strength.integer_form[0], spec.utility.values, spec.rounds
    translates = []
    for k in range(rounds):
        firsts: dict[tuple[Fraction, ...], int] = {}
        translates.append([])
        for wins in range(k + 1):
            rest = utility[wins : wins + rounds - k + 1]
            first = firsts.setdefault(tuple(u - rest[0] for u in rest), wins)
            translates[k].append((first, rest[0] - utility[first]))
    return types(rows, spec.team1_size), types(list(zip(*rows)), spec.team2_size), translates


def stage_matrix(
    spec: GameSpec,
    values: Mapping[HistoryClassKey, Fraction],
    key: HistoryClassKey,
) -> MatrixGame:
    """One-round matrix game at ``key`` given the next level's values.

    Rows are Team 1's unused players in ascending index order, columns Team
    2's.  The (i, j) cell is the win-value weighted by the match probability
    plus the loss-value weighted by its complement.  With the probability
    written ``a / Dp`` over the strength matrix's one denominator ``Dp`` and
    the successor values over the lcm ``D`` of the denominators of those that
    carry weight, the cell is the integer ``a * V_win + (Dp - a) * V_loss``
    over ``D * Dp``.

    ``key`` may be any (played1, played2, wins) triple of ints that names a
    class of the contest (PARSE for a field that is not an int, INDEX for a
    triple that names no class).
    """
    m, n = spec.team1_size, spec.team2_size
    if not (isinstance(key, tuple) and len(key) == 3):
        raise ValidationError(f"class key must be three ints, got {key!r}", "PARSE")
    xm, ym, wins = (_whole(field, "class key field", None) for field in key)
    k = xm.bit_count()
    if not (0 <= xm < 1 << m and 0 <= ym < 1 << n and ym.bit_count() == k and 0 <= wins <= k):
        raise ValidationError(f"{tuple(key)} names no class of a {m}x{n} contest", "INDEX")
    if k >= spec.rounds:
        raise TerminalClassError(f"class at round {k} of {spec.rounds} has no stage game")
    weights, scale = spec.strength.integer_form
    cols = [(j, ym | (1 << j)) for j in unplayed(ym, n)]
    # Each cell starts from one successor value at full weight, the win-value
    # when a == Dp and the loss-value otherwise; a cell whose match can go
    # either way is then moved by a * (V_win - V_loss).
    bases: list[Fraction] = []
    swings: list[tuple[int, int, Fraction]] = []  # (cell, a, V_win)
    for i in unplayed(xm, m):
        xm_next, row = xm | (1 << i), weights[i]
        for j, ym_next in cols:
            a = row[j]
            bases.append(values[(xm_next, ym_next, wins + 1 if a == scale else wins)])
            if 0 < a < scale:
                swings.append((len(bases) - 1, a, values[(xm_next, ym_next, wins + 1)]))
    ratios = [v.as_integer_ratio() for v in bases]
    swing_ratios = [v.as_integer_ratio() for _k, _a, v in swings]
    common = lcm(*[d for _n, d in ratios], *[d for _n, d in swing_ratios])
    scaled = [num * (common // d) for num, d in ratios]
    flat = [scale * v for v in scaled]
    for (at, a, _v), (num, d) in zip(swings, swing_ratios):
        flat[at] += a * (num * (common // d) - scaled[at])
    width = len(cols)
    cells = tuple(tuple(flat[start : start + width]) for start in range(0, len(flat), width))
    return MatrixGame(cells, common * scale)


def solve(spec: GameSpec, *, class_budget: int = DEFAULT_CLASS_BUDGET) -> SolveResult:
    """Equilibrium values for every history class, and the strategies that
    read each class's mixtures off them.

    Deterministic: class iteration order and every stage-game pivot are
    fixed, so identical specs produce identical tables.
    """
    _check_budget(spec, class_budget)
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    utility = spec.utility.values
    rows = dict.fromkeys(itertools.product(_masks(m, rounds), _masks(n, rounds)), utility)
    decisions: dict[tuple[int, int], Sequence[Fraction]] = {}
    values = _Table(rows)

    # The first pair of played masks with each pair of type sequences fills
    # the round's values by win count: the first class with each copy key
    # solves its stage game, and each other win count takes its first
    # translate's value plus the constant.  Every later pair shares the list.
    types1, types2, translates = _copy_rule(spec)
    by_types: dict[tuple, list[Fraction]] = {}
    for k in range(rounds - 1, 0, -1):
        columns = [(ym, types2(ym)) for ym in _masks(n, k)]
        for xmask in _masks(m, k):
            row_types = types1(xmask)
            for ymask, col_types in columns:
                row = by_types.get((row_types, col_types))
                if row is None:
                    row = by_types[row_types, col_types] = []
                    for wins, (first, shift) in enumerate(translates[k]):
                        if first == wins:
                            game = stage_matrix(spec, values, HistoryClassKey(xmask, ymask, wins))
                            row.append(solve_matrix(game, mixtures=False).value)
                        else:
                            row.append(row[first] + shift if shift else row[first])
                pair = xmask, ymask
                rows[pair] = decisions[pair] = row

    root = solve_matrix(stage_matrix(spec, values, ROOT_CLASS))
    rows[0, 0] = decisions[0, 0] = [root.value]
    memo = {(types1(0), types2(0), 0): root}

    def mixture(team: int, key: HistoryClassKey) -> dict[int, Fraction]:
        copy = types1(key[0]), types2(key[1]), translates[key[0].bit_count()][key[2]][0]
        if copy not in memo:
            memo[copy] = solve_matrix(stage_matrix(spec, values, key))
        weights = (memo[copy].row_strategy, memo[copy].col_strategy)[team - 1]
        return dict(zip(unplayed(key[team - 1], spec.team_size(team)), weights))

    return SolveResult(
        spec=spec,
        value_table=values,
        strategy1=BehavioralStrategy(1, _Table(decisions, partial(mixture, 1))),
        strategy2=BehavioralStrategy(2, _Table(decisions, partial(mixture, 2))),
        root_value=root.value,
    )


def _uniform_play(spec: GameSpec, team: int, pool: Sequence[int]) -> BehavioralStrategy:
    """Team ``team`` picks uniformly among its unused players in ``pool`` at
    every class; all pairs with the same own played set share one row."""
    m, n = spec.team1_size, spec.team2_size
    rows: dict[tuple[int, int], list[dict[int, Fraction]]] = {}
    for k in range(spec.rounds):
        by_own = {}
        for own in _masks(spec.team_size(team), k):
            free = [i for i in pool if not (own >> i) & 1]
            by_own[own] = [dict.fromkeys(free, Fraction(1, len(free)))] * (k + 1)
        for pair in itertools.product(_masks(m, k), _masks(n, k)):
            rows[pair] = by_own[pair[team - 1]]
    return BehavioralStrategy(team, _Table(rows))


def uniform_strategy(spec: GameSpec, team: int) -> BehavioralStrategy:
    """Pick uniformly among the team's unused players at every class."""
    return _uniform_play(spec, team, range(spec.team_size(team)))


def _require_no_spares(spec: GameSpec) -> None:
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    if m != rounds or n != rounds:
        raise RedundantPlayersError(f"needs team sizes equal to T (have {m} and {n}, T={rounds})")


def _distribution_at(
    spec: GameSpec, strategy: BehavioralStrategy, key: HistoryClassKey
) -> dict[int, Fraction]:
    """Strategy's move distribution at a class.  The entry's form picks the
    reading: a player number plays that player, a mapping is a mixture, any
    other entry is PARSE.  Players pass ``_whole``, weights ``_exact``, and a
    weighted player must be unplayed on ``strategy.team`` (PARSE unless 1 or 2)."""
    own_size = spec.team_size(strategy.team)
    own_mask = key[strategy.team - 1]
    entry = strategy.moves.get(key)
    if entry is None:
        raise CoverageError(
            f"strategy for team {strategy.team} has no move at class "
            f"(played1={key.played1:b}, played2={key.played2:b}, wins={key.wins})"
        )
    if isinstance(entry, int):
        entry = {entry: 1}
    elif not isinstance(entry, Mapping):
        raise ValidationError(f"strategy move must be a player or a mapping: {entry!r}", "PARSE")
    total = 0
    for player, weight in entry.items():
        player, weight = _whole(player, "player", 0), _exact(weight)
        if weight < 0:
            raise CoverageError("strategy weights must be nonnegative")
        if weight and (player >= own_size or (own_mask >> player) & 1):
            raise CoverageError(
                f"strategy puts weight on unavailable player "
                f"{player_label(strategy.team, player)}"
            )
        total += weight
    if total != 1:
        raise CoverageError(f"strategy weights sum to {total}, expected 1")
    return {p: w for p, w in entry.items() if w}


def _reader(spec: GameSpec, strategy: BehavioralStrategy, team: int) -> _Read:
    """The one way a walk reads a strategy: ``strategy``'s move distribution
    by class, each class read and checked once.  ``strategy`` must be Team
    ``team``'s (the play-order rule: Team 1's strategy first, Team 2's second;
    PARSE otherwise).  The reader's dicts are shared, never to be changed."""
    if strategy.team != team:
        raise ValidationError("pass team 1's strategy first and team 2's second", "PARSE")
    return cache(partial(_distribution_at, spec, strategy))


def evaluate_fixed(spec: GameSpec, fixed: BehavioralStrategy) -> Fraction:
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
    read = _reader(spec, fixed, fixed.team)
    best: dict[HistoryClassKey, Fraction] = {}

    def value(key: HistoryClassKey) -> Fraction:
        if key.round_index == rounds:
            return utility[key.wins]
        if key not in best:
            dist = read(key)
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
    spec: GameSpec, read1: _Read, read2: _Read, rounds: int
) -> dict[_Outcome, Fraction]:
    """The one forward pass: exact distribution over contests ``rounds`` rounds
    in, summing to one, with Team 1 playing the moves ``read1`` gives and
    Team 2 those of ``read2`` (each a ``_reader``)."""
    strength = spec.strength.entries

    states: dict[_Outcome, Fraction] = {((), ROOT_CLASS): _ONE}
    for _ in range(rounds):
        nxt: dict[_Outcome, Fraction] = {}
        for (pairs, key), prob in states.items():
            dist1, dist2 = read1(key), read2(key)
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
    spec: GameSpec, strategy1: BehavioralStrategy, strategy2: BehavioralStrategy
) -> dict[tuple[int, ...], Fraction]:
    """Exact distribution over complete player matchings.

    Requires no redundant players (team sizes equal to the round count) so a
    finished contest always pairs everyone.  Keys are tuples where position i
    holds the Team-2 player matched with Team-1 player i; probabilities are
    marginalized over match outcomes and sum to one.
    """
    _require_no_spares(spec)
    read1, read2 = _reader(spec, strategy1, 1), _reader(spec, strategy2, 2)
    result: dict[tuple[int, ...], Fraction] = {}
    for (pairs, _key), prob in _histories(spec, read1, read2, spec.rounds).items():
        matching = tuple(j for _i, j in pairs)  # pairs already sorted by i
        result[matching] = result.get(matching, _ZERO) + prob
    return {key: result[key] for key in sorted(result)}


def meeting_probabilities(
    spec: GameSpec, strategy1: BehavioralStrategy, strategy2: BehavioralStrategy
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact probability grid of player pairs being committed the same round.

    Entry (i, j) is the chance Team 1's player i and Team 2's player j meet
    at some point of the contest under the two strategies.
    """
    read1, read2 = _reader(spec, strategy1, 1), _reader(spec, strategy2, 2)
    grid = [[_ZERO] * spec.team2_size for _ in range(spec.team1_size)]
    for (pairs, _key), prob in _histories(spec, read1, read2, spec.rounds).items():
        for i, j in pairs:
            grid[i][j] += prob
    return tuple(tuple(row) for row in grid)


def _prefix_walk(
    spec: GameSpec, team: int, budget: int
) -> Iterator[tuple[_Frontier, list[list[int]], dict[HistoryClassKey, int]]]:
    """Last round of every prefix of ``team``'s pure strategies, in
    enumeration order.

    A prefix fixes the team's picks at every class of its earlier rounds that
    its own picks reach.  Each yield is the prefix's last-round frontier, the
    unused players at each of its classes and the earlier picks (one dict,
    updated in place between yields).  Raises BudgetExceeded before the first
    yield when more than ``budget`` strategies exist.
    """
    own_size = spec.team_size(team)
    _whole(budget, "budget", 0)
    rounds = spec.rounds
    over = f"pure strategy enumeration exceeds the budget of {budget}"

    def prefixes(frontier, level, picks):
        choices = [unplayed(key[team - 1], own_size) for key in frontier]
        if level + 1 == rounds:
            yield frontier, choices, picks
            return
        # Distinct picks here start disjoint, non-empty sets of strategies.
        if prod(map(len, choices)) > budget:
            raise BudgetExceeded(over)
        for combo in itertools.product(*choices):
            picks.update(zip(frontier, combo))
            reached: set[HistoryClassKey] = set()
            for key, pick in zip(frontier, combo):
                reached |= _reach(spec, key, team, pick)
            yield from prefixes(tuple(sorted(reached)), level + 1, picks)
        for key in frontier:
            del picks[key]

    # Every prefix has at least one completion, so the count walk stops
    # after at most budget + 1 prefixes.  A count walk that ends has checked
    # every frontier, so the yield walk never raises.
    total = 0
    for _frontier, choices, _picks in prefixes((ROOT_CLASS,), 0, {}):
        total += prod(map(len, choices))
        if total > budget:
            raise BudgetExceeded(over)
    yield from prefixes((ROOT_CLASS,), 0, {})


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
    for frontier, choices, picks in _prefix_walk(spec, team, budget):
        for combo in itertools.product(*choices):
            moves = dict(picks)
            moves.update(zip(frontier, combo))
            yield PureAdaptiveStrategy(team, moves)


def pure_meeting_grids(
    spec: GameSpec, *, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[tuple[tuple[Fraction, ...], ...]]:
    """Meeting grid of every Team-1 pure strategy against a uniform Team 2.

    The k-th grid equals ``meeting_probabilities(spec, pure,
    uniform_strategy(spec, 2))`` for the k-th strategy
    ``enumerate_pure_strategies(spec, 1, budget=budget)`` yields, and
    BudgetExceeded comes at the same point, before any grid.  Each prefix of
    the enumeration plays its earlier picks through ``_histories``, the one
    forward pass, into reach probabilities and a partial grid; the passes
    share one reader of uniform Team 2, and only the last round is expanded
    per strategy.  A pair meets at most once, so a grid is a sum over rounds.
    """
    m, n = spec.team1_size, spec.team2_size
    walk = _prefix_walk(spec, 1, budget)
    first = next(walk)  # settles the budget before the uniform table is built
    read2 = _reader(spec, uniform_strategy(spec, 2), 2)
    for frontier, choices, picks in itertools.chain([first], walk):
        # The pass ends before the walk resumes and updates ``picks``.
        read1 = _reader(spec, PureAdaptiveStrategy(1, picks), 1)
        prefix = _histories(spec, read1, read2, spec.rounds - 1)
        grid = [[_ZERO] * n for _ in range(m)]
        reach: dict[HistoryClassKey, Fraction] = {}
        for (pairs, key), prob in prefix.items():
            reach[key] = reach.get(key, _ZERO) + prob
            for i, j in pairs:
                grid[i][j] += prob
        # Team 2's unused players at each frontier class, and the chance of
        # reaching the class and meeting any one of them.
        frees = [unplayed(key.played2, n) for key in frontier]
        last = [(free, reach[key] / len(free)) for key, free in zip(frontier, frees)]
        for combo in itertools.product(*choices):
            final = [row[:] for row in grid]
            for (free, share), i in zip(last, combo):
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
