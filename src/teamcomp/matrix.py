"""Exact solver for finite two-player zero-sum matrix games.

The row player maximizes, the column player minimizes.  Games with a pure
saddle point are settled by a direct scan; everything else goes through one
primal simplex with Bland's anti-cycling rule, so output is deterministic and
the minimax value is exact.

The LP uses the classic positivization transform.  Shift the payoff matrix by
a constant until every entry is positive, then solve

    maximize  1.w   subject to  M'w <= 1,  w >= 0.

At the optimum the objective equals 1/v' where v' is the shifted game value;
the column strategy is w rescaled by v', and the row strategy is the dual
vector, read off the slack columns of the final objective row, rescaled the
same way.  Undoing the shift yields the original value.

The simplex runs on integers (Edmonds 1967; Bareiss 1968): each constraint
row is scaled by the lcm of its own denominators, and each pivot divides
exactly by the previous pivot, so no pivot takes a gcd; only the returned
fractions are reduced.  It takes exactly the pivots of Bland's rule on the
rational tableau.  Scaling a row by a positive number rescales its slack but
changes no sign of a reduced cost and no order of the ratios, and the common
denominator of the integer tableau, the previous pivot, is always positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .model import RationalLike, ValidationError, _parse_rows, _whole, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class MatrixGame:
    """Payoff grid for the row player (the maximizer)."""

    payoff: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]]) -> "MatrixGame":
        return MatrixGame(_parse_rows(rows, "payoff"))

    @property
    def rows(self) -> int:
        return len(self.payoff)

    @property
    def cols(self) -> int:
        return len(self.payoff[0])


@dataclass(frozen=True)
class MatrixSolution:
    """Value plus one optimal mixed strategy per player.

    The value is the canonical output; when several optimal strategies exist
    the solver returns the one its fixed pivot rule lands on.
    """

    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


def _validate_distribution(weights: Sequence[RationalLike], size: int) -> list[Fraction]:
    if len(weights) != size:
        raise ValidationError(
            f"distribution has {len(weights)} weights, expected {size}", "DIST"
        )
    parsed = [parse_rational(w) for w in weights]
    if any(w < 0 for w in parsed):
        raise ValidationError("distribution weights must be nonnegative", "DIST")
    if sum(parsed) != 1:
        raise ValidationError("distribution weights must sum to exactly 1", "DIST")
    return parsed


def solve_matrix(game: MatrixGame) -> MatrixSolution:
    """Exact minimax value and optimal mixed strategies.

    Deterministic: a fixed scan order picks among pure saddle points and
    Bland's rule fixes every simplex pivot.
    """
    payoff = game.payoff
    n_rows, n_cols = game.rows, game.cols

    # Pure saddle point: maximin meets minimax without mixing.
    row_mins = [min(row) for row in payoff]
    maximin = max(row_mins)
    col_maxs = [max(payoff[i][j] for i in range(n_rows)) for j in range(n_cols)]
    minimax = min(col_maxs)
    if maximin == minimax:
        i_star = row_mins.index(maximin)
        j_star = col_maxs.index(minimax)
        row = tuple(_ONE if i == i_star else _ZERO for i in range(n_rows))
        col = tuple(_ONE if j == j_star else _ZERO for j in range(n_cols))
        return MatrixSolution(maximin, row, col)

    return _simplex(payoff, _ONE - min(row_mins))  # the shift makes every entry >= 1 > 0


def _simplex(payoff: Sequence[Sequence[Fraction]], shift: Fraction) -> MatrixSolution:
    """Bland's simplex on the game ``payoff + shift``, whose entries are positive.

    The condensed tableau keeps one row per constraint, then the objective
    row, and one column per nonbasic variable, then the right-hand side.
    Variables ``0..n-1`` are the column weights w, ``n..n+m-1`` the slacks.
    Every entry is an integer over the common denominator ``den``, the
    previous pivot, which is always positive.  Row i starts scaled by
    ``scales[i]``, the lcm of its own denominators, so its right-hand side is
    ``scales[i]`` and its slack coefficient 1.

    Every entry being positive, the LP is bounded and some row always leaves;
    Bland's rule never revisits a basis, so the loop ends.
    """
    n_rows, n_cols = len(payoff), len(payoff[0])
    scales = []
    tableau = []
    for line in payoff:
        scale = lcm(shift.denominator, *(a.denominator for a in line))
        lift = shift.numerator * (scale // shift.denominator)
        tableau.append([a.numerator * (scale // a.denominator) + lift for a in line] + [scale])
        scales.append(scale)
    tableau.append([-1] * n_cols + [0])
    basis = list(range(n_cols, n_cols + n_rows))
    nonbasic = list(range(n_cols))
    den = 1

    while True:
        entering = [j for j in range(n_cols) if tableau[-1][j] < 0]
        if not entering:
            break
        enter = min(entering, key=nonbasic.__getitem__)
        # Smallest ratio rhs/coeff over positive coefficients, compared by
        # cross-multiplication; ties go to the lowest basic variable.
        leave = None
        for i in range(n_rows):
            coeff = tableau[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                here = tableau[i][-1] * tableau[leave][enter]
                best = tableau[leave][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        for i, row in enumerate(tableau):
            if i != leave:
                factor = row[enter]
                new = [(pivot * a - factor * b) // den for a, b in zip(row, pivot_row)]
                new[enter] = -factor
                tableau[i] = new
        pivot_row[enter] = den
        den = pivot
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

    # The LP optimum is objective/den = 1/v' for the shifted value v'; each
    # weight is its LP variable (or dual) rescaled by v'.
    objective = tableau[-1]
    total = objective[-1]
    col_strategy = [_ZERO] * n_cols
    for i, var in enumerate(basis):
        if var < n_cols:
            col_strategy[var] = Fraction(tableau[i][-1], total)
    row_strategy = [_ZERO] * n_rows
    for j, var in enumerate(nonbasic):
        if var >= n_cols:
            i = var - n_cols
            row_strategy[i] = Fraction(scales[i] * objective[j], total)
    return MatrixSolution(Fraction(den, total) - shift, tuple(row_strategy), tuple(col_strategy))


def row_dominates(game: MatrixGame, i: int, j: int) -> bool:
    """True iff row ``i`` is at least as good as row ``j`` in every column."""
    _whole(i, "row index", 0)
    _whole(j, "row index", 0)
    if max(i, j) >= game.rows:
        raise ValidationError(f"row index out of range: {i}, {j}", "INDEX")
    row_i, row_j = game.payoff[i], game.payoff[j]
    return all(a >= b for a, b in zip(row_i, row_j))


def col_dominates(game: MatrixGame, i: int, j: int) -> bool:
    """True iff column ``i`` is at least as good as column ``j`` for the
    minimizing player (entrywise <=)."""
    _whole(i, "column index", 0)
    _whole(j, "column index", 0)
    if max(i, j) >= game.cols:
        raise ValidationError(f"column index out of range: {i}, {j}", "INDEX")
    return all(row[i] <= row[j] for row in game.payoff)


def best_row_response_value(game: MatrixGame, col_strategy: Sequence[RationalLike]) -> Fraction:
    """Best payoff the row player can extract against a fixed column mixture."""
    weights = _validate_distribution(col_strategy, game.cols)
    return max(
        sum((w * c for w, c in zip(weights, row)), _ZERO) for row in game.payoff
    )


def best_col_response_value(game: MatrixGame, row_strategy: Sequence[RationalLike]) -> Fraction:
    """Lowest payoff the column player can force against a fixed row mixture;
    equivalently, the guarantee that row mixture locks in."""
    weights = _validate_distribution(row_strategy, game.rows)
    return min(
        sum((w * game.payoff[i][j] for i, w in enumerate(weights)), _ZERO)
        for j in range(game.cols)
    )
