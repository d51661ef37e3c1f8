"""Exact quotients for the pivots' divider and the certified support solve,
with the standard library only.

Each division case is one divisor and the quotients fed, in order, to one
``matrix._exact_divider`` built for it; every answer must equal ``//`` on the
exact product.  Each certified-path case is one game and one pair of
supports: ``matrix._certified`` must return ``_simplex``'s answer where the
case certifies, ``None`` where it must fall back, and hand ``_exact_divider``
positive divisors only.  ``tests/test_matrix.py`` runs the cases under
pytest, one parametrized id each.  Without pytest, on any interpreter the
package supports, run them all with

    PYTHONPATH=src python tests/test_exact_division.py
"""

import random
import sys

from teamcomp import matrix
from teamcomp.explorer import random_strength_rows
from teamcomp.matrix import _CUTOFF, _certified, _exact_divider, _guess, _simplex
from teamcomp.model import ROOT_CLASS, make_spec
from teamcomp.solver import solve, stage_matrix

_RNG = random.Random("exact-division")


def _odd(bits):
    """A deterministic odd number of exactly ``bits`` bits."""
    return _RNG.getrandbits(bits) | 1 | (1 << (bits - 1))


def _wide(bits):
    """A deterministic number of exactly ``bits`` bits."""
    return _RNG.getrandbits(bits) | (1 << (bits - 1))


_BIG = _odd(5000)
_WIDE = _wide(6000)

CASES = [
    ("negative-quotient", _BIG, [-_WIDE]),
    ("zero-quotient", _BIG, [0]),
    ("positive-quotient", _BIG, [_WIDE]),
    *((f"even-divisor-shift-{s}", _BIG << s, [_WIDE, -_WIDE]) for s in range(1, 65)),
    *(
        (f"quotient-{b}-bits", _BIG, [_wide(b), -_wide(b)])
        for b in (62, 63, 64, 65)
    ),
    ("divisor-below-cutoff", _odd(_CUTOFF - 1), [_WIDE, -_WIDE]),
    ("divisor-at-cutoff", _odd(_CUTOFF), [_WIDE, -_WIDE]),
    # One divider lifts its inverse for the wide quotient, then reuses it.
    ("narrow-wide-narrow", _BIG, [_wide(70), -_wide(40_000), _wide(80)]),
]


def mismatches(den, quotients):
    """The quotients whose product with ``den`` one divider for ``den``,
    fed them in order, divides otherwise than ``//``."""
    divide = _exact_divider(den)
    return [q for q in quotients if divide(q * den) != q * den // den]


def _dense_root():
    # The root stage game of a dense T=4 5x5 majority contest: its den has
    # 9,856 bits and its elimination pivots up to 8,751.
    spec = make_spec(4, random_strength_rows(random.Random(1), 5, 5, 6), "UM")
    game = stage_matrix(spec, solve(spec).value_table, ROOT_CLASS)
    return game.cells, game.den, *_guess(game.cells), True


# Each case builds (cells, den, support rows, support columns, certifies).
CERTIFIED_CASES = [
    ("dense-root-game", _dense_root),
    # The shift is 0, so the block is [[1, 3], [2, 1]]: its second pivot and
    # its determinant are -5.
    ("negative-determinant", lambda: (((1, 3), (2, 1)), 1, [0, 1], [0, 1], True)),
    # Column 2 repeats column 1, so mixing columns 0 and 2 is optimal too;
    # Bland's rule picks column 1, and no strict certificate holds for either.
    ("tied-column", lambda: (((2, -1, -1), (-1, 1, 1)), 1, [0, 1], [0, 2], False)),
]


def certified_problems(build):
    """How ``_certified`` goes wrong on the case ``build`` returns: an answer
    other than ``_simplex``'s, a certificate where the case must fall back or
    none where it must not, or a divisor for ``_exact_divider`` below 1."""
    cells, den, rows, cols, certifies = build()
    divisors = []

    def divider(d):
        divisors.append(d)
        return _exact_divider(d)

    matrix._exact_divider = divider
    try:
        answer = _certified(cells, den, rows, cols)
    finally:
        matrix._exact_divider = _exact_divider
    problems = [f"divisor {d} is not positive" for d in divisors if d < 1]
    if answer is None:
        if certifies:
            problems.append("fell back")
    elif not certifies:
        problems.append("certified supports that must fall back")
    elif answer != _simplex(cells, den):
        problems.append("differs from _simplex")
    return problems


def main():
    version = sys.version.split()[0]
    failed = [name for name, den, quotients in CASES if mismatches(den, quotients)]
    print(f"{len(CASES) - len(failed)} of {len(CASES)} exact-division cases pass "
          f"on Python {version}")
    for name in failed:
        print(f"FAILED {name}")
    wrong = [(name, certified_problems(build)) for name, build in CERTIFIED_CASES]
    wrong = [(name, problems) for name, problems in wrong if problems]
    print(f"{len(CERTIFIED_CASES) - len(wrong)} of {len(CERTIFIED_CASES)} certified-path "
          f"cases pass on Python {version}")
    for name, problems in wrong:
        print(f"FAILED {name}: {'; '.join(problems)}")
    return 1 if failed or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
