"""Independent oracles used only by the tests.

Deliberately disjoint from the production code paths: the matrix-game value
is found by square-support enumeration with certificate verification (no
simplex, no pivoting), and the contest value is found by recursing over raw
ordered histories (no class collapsing, no bit masks).  Slow but trustworthy
on the small fixtures they are applied to.

The forward oracles (``oracle_outcomes`` and the meeting and matching views
of it) play two strategies by recursion over raw ordered pick sequences and
match outcomes; a strategy is a function of the ordered history, so no class
key, mask or successor rule is involved.

``oracle_simulate`` is a reference Monte Carlo sampler: it reads each
strategy's ``moves`` afresh every round, with no table cache, and makes the
same draws in the same order as ``simulate_competitions`` must.

``bland_reference`` is the one oracle that pivots: it pins down which optimal
mixtures the production solver must return, by running Bland's rule on the
full tableau over ``Fraction`` (no integer scaling, no condensed columns).
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_square_system(matrix, rhs):
    """Gauss-Jordan over Fractions; returns the solution or None if singular."""
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][-1] for i in range(n)]


def oracle_matrix_value(payoff) -> Fraction:
    """Zero-sum matrix game value by support enumeration.

    For every pair of equal-size supports, solve the equalization equations
    for both players, then accept only if the mixtures are nonnegative and
    the global optimality certificates hold:

        (x M)_j >= v for every column j,   (M y)_i <= v for every row i.

    A zero-sum game always has an equilibrium with equal-size supports, so
    scanning square supports is exhaustive.
    """
    n_rows = len(payoff)
    n_cols = len(payoff[0])
    for size in range(1, min(n_rows, n_cols) + 1):
        for rows in itertools.combinations(range(n_rows), size):
            for cols in itertools.combinations(range(n_cols), size):
                # Row mixture x on `rows`: equal payoff v across `cols`.
                mat = [[payoff[i][j] for i in rows] + [-ONE] for j in cols]
                mat.append([ONE] * size + [ZERO])
                sol = solve_square_system(mat, [ZERO] * size + [ONE])
                if sol is None:
                    continue
                x, value = sol[:size], sol[size]
                if any(w < 0 for w in x):
                    continue
                # Column mixture y on `cols`: equal payoff v across `rows`.
                mat = [[payoff[i][j] for j in cols] + [-ONE] for i in rows]
                mat.append([ONE] * size + [ZERO])
                sol = solve_square_system(mat, [ZERO] * size + [ONE])
                if sol is None:
                    continue
                y, value2 = sol[:size], sol[size]
                if value2 != value or any(w < 0 for w in y):
                    continue
                x_full = [ZERO] * n_rows
                for i, w in zip(rows, x):
                    x_full[i] = w
                y_full = [ZERO] * n_cols
                for j, w in zip(cols, y):
                    y_full[j] = w
                row_payoffs = [
                    sum((x_full[i] * payoff[i][j] for i in range(n_rows)), ZERO)
                    for j in range(n_cols)
                ]
                col_payoffs = [
                    sum((y_full[j] * payoff[i][j] for j in range(n_cols)), ZERO)
                    for i in range(n_rows)
                ]
                if all(p >= value for p in row_payoffs) and all(
                    p <= value for p in col_payoffs
                ):
                    return value
    raise AssertionError("support enumeration found no equilibrium; impossible")


def bland_reference(payoff) -> tuple[Fraction, tuple, tuple]:
    """(value, row mixture, column mixture) that the matrix solver must return.

    A pure saddle point is taken in scan order.  Otherwise the game is shifted
    so that every entry is at least 1 and

        maximize 1.w  subject to  M'w <= 1,  w >= 0

    is solved on the full rational tableau with Bland's rule: the lowest
    variable with a negative reduced cost enters, the smallest ratio leaves
    and ties go to the lowest basic variable.  The LP optimum is 1/v' for the
    shifted value v'; w and the slack reduced costs, rescaled by v', are the
    column and row mixtures.
    """
    n_rows, n_cols = len(payoff), len(payoff[0])
    row_mins = [min(row) for row in payoff]
    col_maxs = [max(payoff[i][j] for i in range(n_rows)) for j in range(n_cols)]
    if max(row_mins) == min(col_maxs):
        i_star, j_star = row_mins.index(max(row_mins)), col_maxs.index(min(col_maxs))
        row = tuple(ONE if i == i_star else ZERO for i in range(n_rows))
        col = tuple(ONE if j == j_star else ZERO for j in range(n_cols))
        return max(row_mins), row, col

    shift = ONE - min(row_mins)
    n_vars = n_cols + n_rows  # structural + slack; the rhs follows them
    rows = []
    for i in range(n_rows):
        row = [a + shift for a in payoff[i]] + [ZERO] * n_rows + [ONE]
        row[n_cols + i] = ONE
        rows.append(row)
    objective = [-ONE] * n_cols + [ZERO] * (n_rows + 1)
    basis = [n_cols + i for i in range(n_rows)]
    while True:
        enter = next((j for j in range(n_vars) if objective[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(n_rows):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        pivot_row = [v / rows[leave][enter] for v in rows[leave]]
        rows[leave] = pivot_row
        for i in range(n_rows):
            if i != leave and rows[i][enter]:
                factor = rows[i][enter]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pivot_row)]
        factor = objective[enter]
        objective = [a - factor * b for a, b in zip(objective, pivot_row)]
        basis[leave] = enter

    scale = 1 / objective[-1]
    w = [ZERO] * n_cols
    for i, var in enumerate(basis):
        if var < n_cols:
            w[var] = rows[i][-1]
    row = tuple(u * scale for u in objective[n_cols:n_vars])
    return scale - shift, row, tuple(x * scale for x in w)


def oracle_game_value(spec) -> Fraction:
    """Contest value by recursion over raw ordered histories.

    States are the ordered tuples of players each team committed so far plus
    the win count, with no merging of permutation-equivalent histories, so this
    does not assume the property the class-based solver is built on.
    """
    strength = spec.strength.entries
    utility = spec.utility.values
    rounds = spec.rounds
    m, n = spec.team1_size, spec.team2_size
    cache: dict = {}

    def value(seq1: tuple, seq2: tuple, wins: int) -> Fraction:
        if len(seq1) == rounds:
            return utility[wins]
        state = (seq1, seq2, wins)
        found = cache.get(state)
        if found is not None:
            return found
        avail1 = [i for i in range(m) if i not in seq1]
        avail2 = [j for j in range(n) if j not in seq2]
        payoff = []
        for i in avail1:
            row = []
            for j in avail2:
                p = strength[i][j]
                cell = ZERO
                if p > 0:
                    cell += p * value(seq1 + (i,), seq2 + (j,), wins + 1)
                if p < 1:
                    cell += (1 - p) * value(seq1 + (i,), seq2 + (j,), wins)
                row.append(cell)
            payoff.append(row)
        result = oracle_matrix_value(payoff)
        cache[state] = result
        return result

    return value((), (), 0)


def oracle_history_class_value(spec, seq1: tuple, seq2: tuple, wins: int) -> Fraction:
    """Value of the subgame after a concrete (ordered) opening."""
    strength = spec.strength.entries
    utility = spec.utility.values
    rounds = spec.rounds
    m, n = spec.team1_size, spec.team2_size

    def value(s1: tuple, s2: tuple, w: int) -> Fraction:
        if len(s1) == rounds:
            return utility[w]
        avail1 = [i for i in range(m) if i not in s1]
        avail2 = [j for j in range(n) if j not in s2]
        payoff = []
        for i in avail1:
            row = []
            for j in avail2:
                p = strength[i][j]
                cell = ZERO
                if p > 0:
                    cell += p * value(s1 + (i,), s2 + (j,), w + 1)
                if p < 1:
                    cell += (1 - p) * value(s1 + (i,), s2 + (j,), w)
                row.append(cell)
            payoff.append(row)
        return oracle_matrix_value(payoff)

    return value(seq1, seq2, wins)


def oracle_uniform(team: int, size: int):
    """A team's uniform strategy as a forward-oracle move function: equal
    weight on each of its ``size`` players not yet in its own sequence."""

    def move(seq1: tuple, seq2: tuple, wins: int) -> dict:
        own = (seq1, seq2)[team - 1]
        free = [p for p in range(size) if p not in own]
        return {p: Fraction(1, len(free)) for p in free}

    return move


def oracle_outcomes(spec, move1, move2) -> dict:
    """Distribution over finished contests by recursion over raw histories.

    ``move1``/``move2`` map the ordered picks so far and Team 1's win count to
    a {player: weight} mixture.  Each round draws one pick per team, then a
    Team-1 win with the match probability and a loss with its complement; a
    branch of probability zero is dropped.  Keys are the finished
    ``(seq1, seq2, wins)`` histories.
    """
    strength = spec.strength.entries
    rounds = spec.rounds
    outcomes: dict = {}

    def play(seq1: tuple, seq2: tuple, wins: int, prob: Fraction) -> None:
        if len(seq1) == rounds:
            key = (seq1, seq2, wins)
            outcomes[key] = outcomes.get(key, ZERO) + prob
            return
        for i, w1 in move1(seq1, seq2, wins).items():
            for j, w2 in move2(seq1, seq2, wins).items():
                p = strength[i][j]
                for won, q in ((1, p), (0, 1 - p)):
                    if w1 * w2 * q:
                        play(seq1 + (i,), seq2 + (j,), wins + won, prob * w1 * w2 * q)

    play((), (), 0, ONE)
    return outcomes


def oracle_meeting_grid(spec, move1, move2) -> tuple:
    """Chance each (Team-1, Team-2) pair is committed in the same round."""
    grid = [[ZERO] * spec.team2_size for _ in range(spec.team1_size)]
    for (seq1, seq2, _wins), prob in oracle_outcomes(spec, move1, move2).items():
        for i, j in zip(seq1, seq2):
            grid[i][j] += prob
    return tuple(tuple(row) for row in grid)


def oracle_matching_distribution(spec, move1, move2) -> dict:
    """Distribution over complete matchings, keyed by the tuple whose entry
    i is Team 1 player i's opponent, in key order; needs no spare players."""
    result: dict = {}
    for (seq1, seq2, _wins), prob in oracle_outcomes(spec, move1, move2).items():
        opponent = dict(zip(seq1, seq2))
        matching = tuple(opponent[i] for i in range(spec.team1_size))
        result[matching] = result.get(matching, ZERO) + prob
    return {key: result[key] for key in sorted(result)}


def oracle_simulate(spec, strategy1, strategy2, samples: int, seed: int) -> tuple:
    """(mean, stderr) of Team-1 utility over ``samples`` sampled contests.

    One ``random.Random(seed)`` draws, each round, Team 1's pick, Team 2's pick
    and then the match.  A pick reads the move at the (played1, played2, wins)
    masks: a player number plays that player, a mapping is a mixture whose
    zero weights are dropped.  The players are sorted, their float weights
    summed in that order with the last sum set to 1.0, and ``bisect_right``
    of one draw in those sums picks.
    """
    rng = random.Random(seed)
    strength = spec.strength.entries
    utility = spec.utility.values

    def pick(strategy, state) -> int:
        move = strategy.moves[state]
        mixture = {move: 1} if isinstance(move, int) else {p: w for p, w in move.items() if w}
        players = sorted(mixture)
        sums, acc = [], 0.0
        for p in players:
            acc += float(mixture[p])
            sums.append(acc)
        sums[-1] = 1.0
        return players[bisect_right(sums, rng.random())]

    total = total_sq = 0.0
    for _ in range(samples):
        played1 = played2 = wins = 0
        for _round in range(spec.rounds):
            i = pick(strategy1, (played1, played2, wins))
            j = pick(strategy2, (played1, played2, wins))
            if rng.random() < float(strength[i][j]):
                wins += 1
            played1 |= 1 << i
            played2 |= 1 << j
        value = float(utility[wins])
        total += value
        total_sq += value * value
    mean = total / samples
    if samples == 1:
        return mean, 0.0
    variance = (total_sq - samples * mean * mean) / (samples - 1)
    return mean, math.sqrt(max(0.0, variance) / samples)
