"""Exact solver for finite two-player zero-sum matrix games.

The row player maximizes, the column player minimizes.  Games with a pure
saddle point are settled by a direct scan; everything else goes through a
primal simplex over exact rationals with Bland's anti-cycling rule, so output
is deterministic and the minimax value is exact; no floating point anywhere.

The LP uses the classic positivization transform.  Shift the payoff matrix by
a constant until every entry is positive, then solve

    maximize  1.w   subject to  M'w <= 1,  w >= 0.

At the optimum the objective equals 1/v' where v' is the shifted game value;
the column strategy is w rescaled by v', and the row strategy is the dual
vector, read off the slack columns of the final objective row, rescaled the
same way.  Undoing the shift yields the original value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import RationalLike, ValidationError, _parse_rows, parse_rational

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

    shift = _ONE - min(row_mins)  # makes every entry >= 1 > 0
    shifted = [[payoff[i][j] + shift for j in range(n_cols)] for i in range(n_rows)]
    lp_value, col_raw, row_raw = _simplex_positive(shifted)
    scale = 1 / lp_value  # the shifted game value; positive by construction
    row_strategy = tuple(u * scale for u in row_raw)
    col_strategy = tuple(w * scale for w in col_raw)
    return MatrixSolution(scale - shift, row_strategy, col_strategy)


def _simplex_positive(mat: list[list[Fraction]]) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Solve max 1.w s.t. mat.w <= 1, w >= 0 for an all-positive matrix.

    Returns (objective, w, dual).  Bounded because every matrix entry is
    positive, feasible at w = 0; Bland's rule (lowest-index entering variable,
    lowest-index basic variable on ratio ties) guarantees termination.
    """
    n_rows = len(mat)
    n_cols = len(mat[0])
    width = n_cols + n_rows + 1  # structural + slack + rhs
    rows: list[list[Fraction]] = []
    for i in range(n_rows):
        row = list(mat[i]) + [_ZERO] * n_rows + [_ONE]
        row[n_cols + i] = _ONE
        rows.append(row)
    objective = [-_ONE] * n_cols + [_ZERO] * (n_rows + 1)
    basis = [n_cols + i for i in range(n_rows)]

    while True:
        enter = -1
        for j in range(n_cols + n_rows):
            if objective[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio: Fraction | None = None
        for i in range(n_rows):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:  # cannot happen for positive matrices
            raise ValidationError("unbounded game LP; matrix not positive?", "RANGE")
        pivot_row = rows[leave]
        pivot = pivot_row[enter]
        if pivot != 1:
            rows[leave] = pivot_row = [v / pivot for v in pivot_row]
        for i in range(n_rows):
            if i == leave:
                continue
            factor = rows[i][enter]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], pivot_row)]
        factor = objective[enter]
        if factor:
            objective = [a - factor * b for a, b in zip(objective, pivot_row)]
        basis[leave] = enter

    w = [_ZERO] * n_cols
    for i, var in enumerate(basis):
        if var < n_cols:
            w[var] = rows[i][-1]
    dual = [objective[n_cols + i] for i in range(n_rows)]
    return objective[-1], w, dual


def row_dominates(game: MatrixGame, i: int, j: int) -> bool:
    """True iff row ``i`` is at least as good as row ``j`` in every column."""
    if not (0 <= i < game.rows and 0 <= j < game.rows):
        raise ValidationError(f"row index out of range: {i}, {j}", "INDEX")
    row_i, row_j = game.payoff[i], game.payoff[j]
    return all(a >= b for a, b in zip(row_i, row_j))


def col_dominates(game: MatrixGame, i: int, j: int) -> bool:
    """True iff column ``i`` is at least as good as column ``j`` for the
    minimizing player (entrywise <=)."""
    if not (0 <= i < game.cols and 0 <= j < game.cols):
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
