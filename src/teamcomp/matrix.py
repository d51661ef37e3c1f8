"""Exact solver for finite two-player zero-sum matrix games.

The row player maximizes, the column player minimizes.  Games with a pure
saddle point are settled by a direct scan; everything else is defined by a
primal simplex over exact rationals with Bland's anti-cycling rule, so output
is deterministic and the minimax value is exact.

Most games skip that exact simplex.  A float run of the same pivot loop
guesses the supports, the bordered systems on those supports are solved
exactly by fraction-free elimination, and an exact certificate (square
nonsingular supports, positive weights, strictly worse off-support replies)
proves the equilibrium unique, hence the one Bland's rule returns.  Floats
only pick which system to solve; no float reaches a returned value, and a
guess that fails the certificate falls back to the exact simplex.

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
from math import comb, inf, lcm
from typing import Sequence

from .model import RationalLike, ValidationError, _parse_rows, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)
_EPS = 1e-9  # zero tolerance of the float support guess, on entries in [1, 2]


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
    Bland's rule fixes every simplex pivot.  A game without a saddle point is
    first tried on the supports a float run of the simplex guesses: the
    answer is returned only when an exact certificate shows it is the game's
    unique equilibrium, hence exactly what Bland's rule returns; otherwise the
    exact simplex runs.
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

    support = _guess_support(payoff)
    if support is not None:
        solution = _certified_solution(payoff, *support)
        if solution is not None:
            return solution

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
    result = _bland(mat, _ONE, 0)
    if result is None:  # cannot happen for positive matrices
        raise ValidationError("unbounded game LP; matrix not positive?", "RANGE")
    return result


def _bland(mat: Sequence[Sequence], one: Fraction | float, eps: float) -> tuple | None:
    """The pivot loop of ``_simplex_positive`` in the number type of ``one``.

    A quantity counts as negative or positive only beyond ``eps``, which is 0
    in exact arithmetic.  Returns None when no row can leave (an unbounded
    LP) or when the pivots outnumber the bases: Bland's rule never revisits a
    basis, so only a float run that rounding set cycling gets that far.
    """
    zero = one - one
    n_rows = len(mat)
    n_cols = len(mat[0])
    n_vars = n_cols + n_rows  # structural + slack; the rhs follows them
    rows = []
    for i in range(n_rows):
        row = list(mat[i]) + [zero] * n_rows + [one]
        row[n_cols + i] = one
        rows.append(row)
    objective = [-one] * n_cols + [zero] * (n_rows + 1)
    basis = [n_cols + i for i in range(n_rows)]

    for _ in range(comb(n_vars, n_rows)):
        enter = -1
        for j in range(n_vars):
            if objective[j] < -eps:
                enter = j
                break
        if enter < 0:
            w = [zero] * n_cols
            for i, var in enumerate(basis):
                if var < n_cols:
                    w[var] = rows[i][-1]
            return objective[-1], w, objective[n_cols:n_vars]
        leave = -1
        best_ratio = None
        for i in range(n_rows):
            coeff = rows[i][enter]
            if coeff > eps:
                ratio = rows[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return None
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
    return None


def _guess_support(payoff: Sequence[Sequence[Fraction]]) -> tuple[list[int], list[int]] | None:
    """Rows and columns with positive weight in a float run of the LP.

    Only a guess, which ``_certified_solution`` accepts or rejects exactly.
    The entries are mapped affinely onto [1, 2], which keeps the float LP
    well scaled; None when an entry lies outside float range or all entries
    round to one number.
    """
    try:
        cells = [[float(a) for a in row] for row in payoff]
    except OverflowError:
        return None
    low = min(map(min, cells))
    spread = max(map(max, cells)) - low
    if not 0 < spread < inf:
        return None
    result = _bland([[(a - low) / spread + 1 for a in row] for row in cells], 1.0, _EPS)
    if result is None:
        return None
    _, w, dual = result
    return [i for i, u in enumerate(dual) if u > _EPS], [j for j, u in enumerate(w) if u > _EPS]


def _certified_solution(
    payoff: Sequence[Sequence[Fraction]], rows: list[int], cols: list[int]
) -> MatrixSolution | None:
    """The equilibrium on supports ``rows`` x ``cols``, or None if unproven.

    Accepted only when the supports are square, both bordered systems are
    nonsingular, every support weight is positive, every row off the support
    earns strictly less than the value and every column off it strictly
    more.  Then both optimal strategies are unique: any optimal mixture lies
    on the same support and solves the same nonsingular system.  So the
    answer equals the one Bland's rule reaches.  The cheap column side is
    solved and checked before the row side.
    """
    if len(rows) != len(cols):
        return None
    col_side = _bordered_solve([[payoff[i][j] for j in cols] for i in rows])
    if col_side is None:
        return None
    y, value, den = col_side
    if min(y) <= 0:
        return None
    for i in range(len(payoff)):
        if i not in rows:
            ints, scale = _integer_row([payoff[i][j] for j in cols])
            if sum(a * b for a, b in zip(ints, y)) >= scale * value:
                return None
    # Both sides share the value: x.A.y is the value of either system.
    row_side = _bordered_solve([[payoff[i][j] for i in rows] for j in cols])
    if row_side is None:
        return None
    x, row_value, row_den = row_side
    if min(x) <= 0:
        return None
    for j in range(len(payoff[0])):
        if j not in cols:
            ints, scale = _integer_row([payoff[i][j] for i in rows])
            if sum(a * b for a, b in zip(ints, x)) <= scale * row_value:
                return None
    row_strategy = [_ZERO] * len(payoff)
    for i, u in zip(rows, x):
        row_strategy[i] = Fraction(u, row_den)
    col_strategy = [_ZERO] * len(payoff[0])
    for j, u in zip(cols, y):
        col_strategy[j] = Fraction(u, den)
    return MatrixSolution(Fraction(value, den), tuple(row_strategy), tuple(col_strategy))


def _integer_row(line: Sequence[Fraction]) -> tuple[list[int], int]:
    """``line`` times the lcm of its own denominators, and that lcm."""
    scale = lcm(*(a.denominator for a in line))
    return [a.numerator * (scale // a.denominator) for a in line], scale


def _bordered_solve(block: list[list[Fraction]]) -> tuple[list[int], int, int] | None:
    """Solve ``block.z = v*1, 1.z = 1`` exactly; None when singular.

    Returns ``(d*z, d*v, d)`` with ``d > 0``.  Each equation is scaled to
    integers by the lcm of its own denominators, then fraction-free
    Gauss-Jordan elimination (Bareiss) keeps every entry an integer minor, so
    the only divisions are exact.
    """
    size = len(block) + 1
    system = []
    for line in block:
        ints, scale = _integer_row(line)
        system.append(ints + [-scale, 0])
    system.append([1] * (size - 1) + [0, 1])
    previous = 1
    for p in range(size):
        swap = next((r for r in range(p, size) if system[r][p]), None)
        if swap is None:
            return None
        system[p], system[swap] = system[swap], system[p]
        top = system[p]
        pivot = top[p]
        for r in range(size):
            if r != p:
                row = system[r]
                factor = row[p]
                system[r] = [(pivot * a - factor * b) // previous for a, b in zip(row, top)]
        previous = pivot
    # Every diagonal entry is now ``previous``, the determinant up to sign.
    sign = 1 if previous > 0 else -1
    solution = [sign * row[-1] for row in system]
    return solution[:-1], solution[-1], sign * previous


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
