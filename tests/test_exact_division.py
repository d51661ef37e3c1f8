"""Exact quotients for the simplex pivot's divider, with the standard library
only.

Each case is one divisor and the quotients fed, in order, to one
``matrix._exact_divider`` built for it; every answer must equal ``//`` on the
exact product.  ``tests/test_matrix.py`` runs the cases under pytest, one
parametrized id each.  Without pytest, on any interpreter the package
supports, run them all with

    PYTHONPATH=src python tests/test_exact_division.py
"""

import random
import sys

from teamcomp.matrix import _CUTOFF, _exact_divider

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


def main():
    failed = [name for name, den, quotients in CASES if mismatches(den, quotients)]
    print(f"{len(CASES) - len(failed)} of {len(CASES)} exact-division cases pass "
          f"on Python {sys.version.split()[0]}")
    for name in failed:
        print(f"FAILED {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
