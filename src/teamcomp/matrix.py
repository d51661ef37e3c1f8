"""Exact solver for finite two-player zero-sum matrix games.

The row player maximizes, the column player minimizes.  A game is held as
integer cells over one positive denominator, so every comparison and every
pivot works on integers and only the returned value and weights are
fractions.  Games with a pure saddle point are settled by a direct scan of
the cells; everything else goes through one primal simplex with Bland's
anti-cycling rule, so output is deterministic and the minimax value is exact.

The LP uses the classic positivization transform.  Shift the payoff matrix by
a whole number until every entry is at least 1, then solve

    maximize  1.w   subject to  M'w <= 1,  w >= 0.

At the optimum the objective equals 1/v' where v' is the shifted game value;
the column strategy is w rescaled by v', and the row strategy is the dual
vector, read off the slack columns of the final objective row, rescaled the
same way.  Undoing the shift yields the original value.

The simplex runs on integers (Edmonds 1967; Bareiss 1968): each constraint
row, the shifted cells and the denominator, is divided by its own gcd, and
each pivot divides exactly by the previous pivot, so no pivot takes a gcd.
It takes exactly the pivots of Bland's rule on the rational tableau.  Scaling
a row by a positive number rescales its slack but changes no sign of a
reduced cost and no order of the ratios, and the common denominator of the
integer tableau, the previous pivot, is always positive.

A game whose ``den`` has at least ``_CUTOFF`` bits skips most of the pivots:
guess the answer cheaply, then prove it exactly (Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", 2007).  Bland's
simplex on the cells rounded to 60 bits guesses both supports; two
fraction-free square solves give the mixtures on them, and a strict exact
certificate proves them: each row and column off the supports is strictly
worse than the value for its player.  A strict certificate on a nonsingular
square support makes the equilibrium unique (Shapley & Snow 1950), so it is
the one Bland's rule would return and the answer is the same to the last
digit.  A game whose certificate fails falls back to the simplex.  Only the
square solves divide a pivot of at least ``_CUTOFF`` bits through a 2-adic
inverse of its odd part (Jebelean 1993), each quotient the low bits of one
product: CPython multiplies big integers in subquadratic time but divides
them in quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Callable, Iterable, Sequence

from .model import (
    RationalLike,
    ValidationError,
    _integer_form,
    _parse_rows,
    _whole,
    parse_rational,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)
# Bit length from which a game's den sends it to the certified support solve,
# and from which that solve's square eliminations divide by multiplying.
_CUTOFF = 4000


@dataclass(frozen=True)
class MatrixGame:
    """Payoff grid for the row player (the maximizer): ``cells[i][j] / den``.

    Built only with a whole ``den`` of at least 1 (PARSE or SIZE otherwise)
    and non-empty rows of one length (SIZE if empty, SHAPE if ragged); the
    check reads row lengths, never the cells.
    """

    cells: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self) -> None:
        _whole(self.den, "denominator", 1)
        widths = set(map(len, self.cells))
        if not widths or 0 in widths:
            raise ValidationError("payoff needs at least one row and one column", "SIZE")
        if len(widths) > 1:
            raise ValidationError("payoff rows must all have the same length", "SHAPE")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]]) -> "MatrixGame":
        return MatrixGame(*_integer_form(_parse_rows(rows, "payoff")))

    @property
    def payoff(self) -> tuple[tuple[Fraction, ...], ...]:
        """The cells as reduced fractions, row by row."""
        den = self.den
        return tuple(tuple(Fraction(c, den) for c in row) for row in self.cells)

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])


@dataclass(frozen=True)
class MatrixSolution:
    """Value plus one optimal mixed strategy per player.

    The value is the canonical output; when several optimal strategies exist
    the solver returns the one its fixed pivot rule lands on.  A solve asked
    for no mixtures (``solve_matrix(game, mixtures=False)``) returns the same
    value with both strategy tuples empty.
    """

    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


def _distribution(weights: Sequence[RationalLike], size: int) -> tuple[tuple[int, ...], int]:
    """A validated mixture over ``size`` lines as integer weights over their
    lcm (DIST unless it has ``size`` nonnegative weights summing to 1)."""
    if len(weights) != size:
        raise ValidationError(
            f"distribution has {len(weights)} weights, expected {size}", "DIST"
        )
    parsed = [parse_rational(w) for w in weights]
    if any(w < 0 for w in parsed):
        raise ValidationError("distribution weights must be nonnegative", "DIST")
    if sum(parsed) != 1:
        raise ValidationError("distribution weights must sum to exactly 1", "DIST")
    (ints,), scale = _integer_form([parsed])
    return ints, scale


def solve_matrix(game: MatrixGame, *, mixtures: bool = True) -> MatrixSolution:
    """Exact minimax value and optimal mixed strategies.

    Deterministic: a fixed scan order picks among pure saddle points and
    Bland's rule fixes every simplex pivot.  The certified support solve
    returns an answer only where it is the game's only equilibrium, so it is
    always the one Bland's rule lands on.

    With ``mixtures=False`` the answer carries the value alone and empty
    strategy tuples.  The same path runs to the same value, since a zero-sum
    game has exactly one: only the reading-off of the mixtures is skipped.
    The certified solve still runs both square solves and the certificate,
    which prove the value, and its guess still reads its supports.
    """
    cells, den = game.cells, game.den

    # Pure saddle point: maximin meets minimax without mixing.  Scaling by
    # den > 0 keeps every comparison, so the integer cells pick the same one.
    row_mins = [min(row) for row in cells]
    maximin = max(row_mins)
    col_maxs = [max(col) for col in zip(*cells)]
    minimax = min(col_maxs)
    if maximin == minimax:
        if not mixtures:
            return MatrixSolution(Fraction(maximin, den), (), ())
        i_star = row_mins.index(maximin)
        j_star = col_maxs.index(minimax)
        row = tuple(_ONE if i == i_star else _ZERO for i in range(len(row_mins)))
        col = tuple(_ONE if j == j_star else _ZERO for j in range(len(col_maxs)))
        return MatrixSolution(Fraction(maximin, den), row, col)

    if den.bit_length() >= _CUTOFF:
        certified = _certified(cells, den, *_guess(cells), mixtures)
        if certified is not None:
            return certified
    return _simplex(cells, den, mixtures)


def _shifted_rows(
    cells: Sequence[Sequence[int]], den: int
) -> tuple[list[list[int]], list[int], int]:
    """``(rows, scales, shift)``: row i of the game ``cells / den + shift`` is
    ``rows[i] / scales[i]`` in lowest terms.

    ``shift = 1 - min // den`` is the least whole number that lifts every
    entry to at least 1.  The lift ``shift * den`` is a multiple of ``den``,
    so the gcd of a lifted row and ``den`` is ``gcd(*line, den)`` over the
    raw cells.
    """
    shift = 1 - min(map(min, cells)) // den
    rows, scales = [], []
    for line in cells:
        g = gcd(*line, den)
        scale = den // g
        top = shift * scale
        rows.append([c // g + top for c in line])
        scales.append(scale)
    return rows, scales, shift


def _simplex(
    cells: Sequence[Sequence[int]], den: int, mixtures: bool = True
) -> MatrixSolution:
    """Bland's simplex on the shifted game ``rows[i] / scales[i]`` of
    ``_shifted_rows``, whose entries are at least 1.

    The condensed tableau keeps one row per constraint, then the objective
    row, and one column per nonbasic variable, then the right-hand side.
    Variables ``0..n-1`` are the column weights w, ``n..n+m-1`` the slacks.
    Every entry is an integer over the common denominator ``prev``, the
    previous pivot, which is always positive.  Row i starts as ``rows[i]``
    and ``scales[i]``, so its right-hand side is ``scales[i]`` and its slack
    coefficient 1.

    The pivots do not depend on the shift.  Adding d to every entry maps each
    feasible w to ``w / (1 + d * sum(w))``, which keeps every vertex, every
    sign of a reduced cost, every tie and the order of the ratios, since the
    objective and each step length only grow monotonically under it.

    Every entry being positive, the LP is bounded and some row always leaves;
    Bland's rule never revisits a basis, so the loop ends.  With ``mixtures``
    false the duals are not read off and the answer carries the value alone.
    """
    tableau, scales, shift = _shifted_rows(cells, den)
    n_rows, n_cols = len(tableau), len(tableau[0])
    for row, scale in zip(tableau, scales):
        row.append(scale)
    tableau.append([-1] * n_cols + [0])
    basis = list(range(n_cols, n_cols + n_rows))
    nonbasic = list(range(n_cols))
    prev = 1

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
                new = [(pivot * a - factor * b) // prev for a, b in zip(row, pivot_row)]
                new[enter] = -factor
                tableau[i] = new
        pivot_row[enter] = prev
        prev = pivot
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

    # The basic w, and the duals times their rows' rhs, sum to prev / v'.
    weights = {v: tableau[i][-1] for i, v in enumerate(basis) if v < n_cols}
    duals = None
    if mixtures:
        objective = tableau[-1]
        duals = (n_rows, {v - n_cols: scales[v - n_cols] * objective[j]
                          for j, v in enumerate(nonbasic) if v >= n_cols})
    return _solution(prev, shift, duals, (n_cols, weights))


def _solution(
    num: int,
    shift: int,
    rows: tuple[int, dict[int, int]] | None,
    cols: tuple[int, dict[int, int]],
) -> MatrixSolution:
    """The answer whose mixture over each of ``rows`` and ``cols``, a
    ``(size, weights)`` pair, puts each weight over the weights' sum on its
    line and 0 on the others; the value is ``num`` over the column weights'
    sum, less ``shift``.  With ``rows`` of ``None`` both mixtures are empty."""
    value = Fraction(num, sum(cols[1].values())) - shift
    if rows is None:
        return MatrixSolution(value, (), ())
    strategies = []
    for size, weights in (rows, cols):
        total = sum(weights.values())
        mixture = [_ZERO] * size
        for k, x in weights.items():
            mixture[k] = Fraction(x, total)
        strategies.append(tuple(mixture))
    return MatrixSolution(value, *strategies)


def _guess(cells: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Row and column supports of Bland's answer on ``cells`` rounded to their
    top 60 bits.  Scaling a game by a positive number changes none of its
    equilibria, so the rounded cells need no denominator."""
    drop = max(0, max(abs(c) for line in cells for c in line).bit_length() - 60)
    guess = _simplex([[c >> drop for c in line] for line in cells], 1)
    return (
        [i for i, x in enumerate(guess.row_strategy) if x],
        [j for j, y in enumerate(guess.col_strategy) if y],
    )


def _certified(
    cells: Sequence[Sequence[int]],
    den: int,
    support_rows: list[int],
    support_cols: list[int],
    mixtures: bool = True,
) -> MatrixSolution | None:
    """The equilibrium of ``cells / den`` on the given supports, if a strict
    certificate proves it the game's only one; ``None`` otherwise.

    On the shifted rows ``N_i / D_i`` of ``_shifted_rows`` and the square
    block ``N_RC``, the column mixture is W / sum(W) and the shifted value
    Δ / sum(W) for ``N_RC·W = Δ·D_R``; the row mixture is ``D_i·U_i`` over
    its sum for ``N_RCᵀ·U = Δ'·1``.  They are accepted only if both systems
    are nonsingular, every W and U is positive, every row off R pays strictly
    less than the value against W and every column off C strictly more
    against U.  Strict complementary slackness on a nonsingular block makes
    both mixtures unique (Shapley & Snow 1950), so they are the ones Bland's
    simplex returns.  With ``mixtures`` false the proof runs in full and only
    the value is read off.
    """
    if len(support_rows) != len(support_cols):
        return None
    rows, scales, shift = _shifted_rows(cells, den)
    block = [[rows[i][j] for j in support_cols] for i in support_rows]
    solved = _solve_square(block, [scales[i] for i in support_rows])
    if solved is None:
        return None
    w, delta = solved
    solved = _solve_square(zip(*block), [1] * len(block))
    if solved is None:
        return None
    u, delta_t = solved
    if min(w) <= 0 or min(u) <= 0:
        return None
    on_rows, on_cols = set(support_rows), set(support_cols)
    if any(
        sum(row[j] * x for j, x in zip(support_cols, w)) >= scales[i] * delta
        for i, row in enumerate(rows)
        if i not in on_rows
    ) or any(
        sum(rows[i][j] * x for i, x in zip(support_rows, u)) <= delta_t
        for j in range(len(rows[0]))
        if j not in on_cols
    ):
        return None

    duals = (len(rows), {i: scales[i] * x for i, x in zip(support_rows, u)}) if mixtures else None
    return _solution(delta, shift, duals, (len(rows[0]), dict(zip(support_cols, w))))


def _solve_square(
    matrix: Iterable[Sequence[int]], rhs: list[int]
) -> tuple[list[int], int] | None:
    """``(x, d)`` with ``matrix·x = d·rhs`` and ``d > 0``, or ``None`` if the
    matrix is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): each step divides
    exactly by the previous pivot.  A pivot row is negated when its pivot is
    negative, which changes no solution, so every divisor is positive and d,
    the last pivot, is ``|det|``.  Columns left of the pivot are never read
    again and are not updated.
    """
    aug = [[*row, b] for row, b in zip(matrix, rhs)]
    prev = 1
    for p in range(len(aug)):
        r = next((r for r in range(p, len(aug)) if aug[r][p]), None)
        if r is None:
            return None
        aug[p], aug[r] = aug[r], aug[p]
        if aug[p][p] < 0:
            aug[p] = [-a for a in aug[p]]
        pivot_row = aug[p]
        pivot = pivot_row[p]
        divide = _exact_divider(prev) if prev.bit_length() >= _CUTOFF else prev.__rfloordiv__
        for i, row in enumerate(aug):
            if i != p:
                factor = row[p]
                row[p + 1:] = [
                    divide(pivot * a - factor * b) for a, b in zip(row[p + 1:], pivot_row[p + 1:])
                ]
        prev = pivot
    return [row[-1] for row in aug], prev


def _exact_divider(den: int) -> Callable[[int], int]:
    """``v -> v // den`` for ``den > 0`` and numerators ``v`` that ``den``
    divides exactly (Jebelean 1993).

    With ``den = odd << shift``, ``v >> shift`` is ``q * odd``, so the low w
    bits of ``q`` are those of ``(v >> shift) * odd^-1`` modulo ``2^w``.  The
    bit lengths bound ``|q| < 2^(w-1)``, so those bits read as a signed
    w-bit number are ``q``.  The inverse starts correct modulo 8 (every odd
    square is 1 there) and each Newton step doubles its correct bits, taken
    only when a wider quotient arrives; quotients under 64 bits use ``//``.
    """
    shift = (den & -den).bit_length() - 1
    odd = den >> shift
    den_bits = den.bit_length()
    inv, bits = odd & 7, 3

    def divide(v: int) -> int:
        nonlocal inv, bits
        w = v.bit_length() - den_bits + 2
        if w < 64:
            return v // den
        while bits < w:
            bits *= 2
            mask = (1 << bits) - 1
            inv = inv * (2 - (odd & mask) * inv) & mask
        mask = (1 << w) - 1
        q = ((v >> shift) & mask) * (inv & mask) & mask
        return q - (1 << w) if q >> (w - 1) else q

    return divide


def row_dominates(game: MatrixGame, i: int, j: int) -> bool:
    """True iff row ``i`` is at least as good as row ``j`` in every column."""
    _whole(i, "row index", 0)
    _whole(j, "row index", 0)
    if max(i, j) >= game.rows:
        raise ValidationError(f"row index out of range: {i}, {j}", "INDEX")
    row_i, row_j = game.cells[i], game.cells[j]
    return all(a >= b for a, b in zip(row_i, row_j))


def col_dominates(game: MatrixGame, i: int, j: int) -> bool:
    """True iff column ``i`` is at least as good as column ``j`` for the
    minimizing player (entrywise <=)."""
    _whole(i, "column index", 0)
    _whole(j, "column index", 0)
    if max(i, j) >= game.cols:
        raise ValidationError(f"column index out of range: {i}, {j}", "INDEX")
    return all(row[i] <= row[j] for row in game.cells)


def best_row_response_value(game: MatrixGame, col_strategy: Sequence[RationalLike]) -> Fraction:
    """Best payoff the row player can extract against a fixed column mixture."""
    weights, scale = _distribution(col_strategy, game.cols)
    best = max(sum(map(mul, weights, row)) for row in game.cells)
    return Fraction(best, scale * game.den)


def best_col_response_value(game: MatrixGame, row_strategy: Sequence[RationalLike]) -> Fraction:
    """Lowest payoff the column player can force against a fixed row mixture;
    equivalently, the guarantee that row mixture locks in."""
    weights, scale = _distribution(row_strategy, game.rows)
    best = min(sum(map(mul, weights, col)) for col in zip(*game.cells))
    return Fraction(best, scale * game.den)
