import ast
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from teamcomp import matrix, solver
from teamcomp.explorer import random_strength_rows
from teamcomp.matrix import (
    MatrixGame,
    MatrixSolution,
    best_col_response_value,
    best_row_response_value,
    col_dominates,
    row_dominates,
    solve_matrix,
)
from teamcomp.model import (
    ROOT_CLASS,
    ValidationError,
    document_from_spec,
    format_rational,
    loads_spec,
    make_spec,
    parse_rational,
)
from teamcomp.solver import solve, stage_matrix

from oracles import bland_reference, oracle_matrix_value
from test_exact_division import CASES, CERTIFIED_CASES, certified_problems, mismatches

F = Fraction


def game(rows):
    return MatrixGame.from_rows(rows)


def assert_certificates(g, sol):
    # Duality: the row mixture guarantees exactly the value, and so does the
    # column mixture from the other side.
    assert best_col_response_value(g, sol.row_strategy) == sol.value
    assert best_row_response_value(g, sol.col_strategy) == sol.value
    assert sum(sol.row_strategy) == 1 and all(w >= 0 for w in sol.row_strategy)
    assert sum(sol.col_strategy) == 1 and all(w >= 0 for w in sol.col_strategy)


small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def small_games(draw):
    n_rows = draw(st.integers(min_value=1, max_value=4))
    n_cols = draw(st.integers(min_value=1, max_value=4))
    rows = [
        [draw(small_fraction) for _ in range(n_cols)] for _ in range(n_rows)
    ]
    return game(rows)


class TestSolveMatrix:
    def test_mixed_2x3(self):
        sol = solve_matrix(game([[-1, -1, 1], [0, 0, -1]]))
        assert sol.value == F(-1, 3)
        assert sol.row_strategy == (F(1, 3), F(2, 3))

    def test_single_cell(self):
        sol = solve_matrix(game([[5]]))
        assert sol.value == 5
        assert sol.row_strategy == (F(1),)
        assert sol.col_strategy == (F(1),)

    def test_matching_pennies(self):
        sol = solve_matrix(game([[1, -1], [-1, 1]]))
        assert sol.value == 0
        assert sol.row_strategy == (F(1, 2), F(1, 2))
        assert sol.col_strategy == (F(1, 2), F(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            game([])
        with pytest.raises(ValidationError):
            game([[]])

    def test_deterministic(self):
        g = game([[0, 2, -1], [1, -1, 0], [-1, 1, 1]])
        first = solve_matrix(g)
        second = solve_matrix(g)
        assert first == second

    def test_exhaustive_2x2_against_oracle(self):
        for cells in itertools.product([-1, 0, 1], repeat=4):
            g = game([[cells[0], cells[1]], [cells[2], cells[3]]])
            sol = solve_matrix(g)
            assert sol.value == oracle_matrix_value(g.payoff)
            assert_certificates(g, sol)

    @settings(max_examples=60, deadline=None)
    @given(small_games())
    def test_duality_certificate(self, g):
        sol = solve_matrix(g)
        assert_certificates(g, sol)

    @settings(max_examples=60, deadline=None)
    @given(small_games())
    def test_value_bounds(self, g):
        sol = solve_matrix(g)
        cells = [c for row in g.payoff for c in row]
        assert min(cells) <= sol.value <= max(cells)

    @settings(max_examples=40, deadline=None)
    @given(
        small_games(),
        st.fractions(min_value="1/3", max_value=3, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )
    def test_scaling_covariance(self, g, scale, offset):
        scaled = game([[scale * c + offset for c in row] for row in g.payoff])
        base = solve_matrix(g)
        sol = solve_matrix(scaled)
        assert sol.value == scale * base.value + offset
        assert_certificates(scaled, sol)

    @settings(max_examples=40, deadline=None)
    @given(small_games(), st.integers(min_value=0, max_value=3))
    def test_dominated_row_removal_keeps_value(self, g, which):
        # Append a row weakly below an existing one; deleting it must not
        # change the value.
        row = g.payoff[which % g.rows]
        extra = tuple(c - F(1, 2) for c in row)
        bigger = game(list(g.payoff) + [extra])
        assert row_dominates(bigger, which % g.rows, bigger.rows - 1)
        assert solve_matrix(bigger).value == solve_matrix(g).value

    @settings(max_examples=30, deadline=None)
    @given(small_games())
    def test_matches_support_enumeration_oracle(self, g):
        assert solve_matrix(g).value == oracle_matrix_value(g.payoff)

    def test_random_seeded_against_oracle(self):
        rng = random.Random(1234)
        pool = [F(n, d) for d in (1, 2, 3) for n in range(-2 * d, 2 * d + 1)]
        for _ in range(150):
            n_rows = rng.randint(1, 4)
            n_cols = rng.randint(1, 4)
            g = game([[rng.choice(pool) for _ in range(n_cols)] for _ in range(n_rows)])
            sol = solve_matrix(g)
            assert sol.value == oracle_matrix_value(g.payoff)
            assert_certificates(g, sol)


@st.composite
def degenerate_games(draw):
    """Small games with repeated rows and columns, hence often several optimal
    mixtures, besides generic ones."""
    g = draw(small_games())
    rows = [list(row) for row in g.payoff]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        rows.append(list(rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        j = draw(st.integers(min_value=0, max_value=len(rows[0]) - 1))
        for row in rows:
            row.append(row[j])
    order = draw(st.permutations(range(len(rows))))
    return game([rows[i] for i in order])


def reference(g, *, mixtures=True):
    value, row, col = bland_reference(g.payoff)
    return MatrixSolution(value, row, col) if mixtures else MatrixSolution(value, (), ())


class TestBlandTieBreaking:
    """Where several mixtures are optimal, the solver must land on the ones
    Bland's rule picks on the full rational tableau."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(degenerate_games(), small_games()))
    def test_same_answer_as_simplex(self, g):
        assert solve_matrix(g) == reference(g)

    def test_dense_contest_same_tables_and_strategies(self, monkeypatch):
        # This contest's root game has a den past ``_CUTOFF`` bits and
        # elimination pivots past it too, so the certified path and the exact
        # divider are checked against the Fraction reference here; the spies
        # fail loudly if the cutoff ever rises above every game of tier-1 or
        # a big game falls back.
        built, divider = [], matrix._exact_divider
        monkeypatch.setattr(matrix, "_exact_divider", lambda den: built.append(den) or divider(den))
        answers, certify = [], matrix._certified
        monkeypatch.setattr(
            matrix, "_certified", lambda *args: answers.append(certify(*args)) or answers[-1]
        )
        spec = make_spec(4, random_strength_rows(random.Random(1), 5, 5, 6), "UM")
        solved = solve(spec)
        # Read every mixture before the reference is patched in: a read
        # solves its class's game through whatever ``solve_matrix`` is bound.
        strategies = dict(solved.strategy1.moves), dict(solved.strategy2.moves)
        assert built
        assert answers and None not in answers
        monkeypatch.setattr(solver, "solve_matrix", reference)
        expected = solve(spec)
        assert solved.value_table == expected.value_table
        assert strategies == (dict(expected.strategy1.moves), dict(expected.strategy2.moves))

    @pytest.mark.parametrize("factor", [F(10) ** 400, F(1, 10**400)])
    def test_utilities_beyond_float_range(self, ex3_um, factor):
        # Stage entries far past float range, or far below its resolution,
        # scale the values and leave the strategies alone: nothing is rounded.
        doc = document_from_spec(ex3_um)
        doc["U"] = [format_rational(u * factor) for u in ex3_um.utility.values]
        scaled = solve(loads_spec(json.dumps(doc)))
        base = solve(ex3_um)
        assert scaled.root_value == base.root_value * factor
        assert scaled.value_table == {k: v * factor for k, v in base.value_table.items()}
        assert scaled.strategy1 == base.strategy1
        assert scaled.strategy2 == base.strategy2

    def test_unique_equilibrium(self):
        sol = solve_matrix(game([[3, -1], [-2, 1]]))
        assert sol == MatrixSolution(F(1, 7), (F(3, 7), F(4, 7)), (F(2, 7), F(5, 7)))

    def test_several_optimal_mixtures(self):
        g = game([[1, -1], [1, -1], [-1, 1]])
        sol = solve_matrix(g)
        assert sol == reference(g)
        assert sol.value == 0
        assert_certificates(g, sol)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # Both rows tie in the first ratio test; the lower slack leaves.
            ([[0, -2, 2], [0, 2, -1]], (F(0), (F(1, 2), F(1, 2)), (F(1), F(0), F(0)))),
            # The two equal rows tie in the first ratio test.
            (
                [[-2, 1], [2, 0], [2, 0]],
                (F(2, 5), (F(2, 5), F(3, 5), F(0)), (F(1, 5), F(4, 5))),
            ),
        ],
    )
    def test_ratio_ties_go_to_lowest_basic_variable(self, rows, expected):
        g = game(rows)
        assert solve_matrix(g) == MatrixSolution(*expected)
        assert reference(g) == MatrixSolution(*expected)


class TestExactDivider:
    @pytest.mark.parametrize("den, quotients", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_matches_floor_division(self, den, quotients):
        assert mismatches(den, quotients) == []

    @settings(max_examples=60, deadline=None)
    @given(small_games(), st.integers(min_value=2**70, max_value=2**200))
    def test_every_pivot_divides_exactly(self, g, factor):
        # With no cutoff every game without a saddle point is guessed and
        # certified first, so every pivot of its square solves, den = 1
        # included, goes through the divider; the factor pushes its quotients
        # past 64 bits.
        scaled = game([[c * factor for c in row] for row in g.payoff])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix, "_CUTOFF", 0)
            assert solve_matrix(scaled) == reference(scaled)


class TestCertified:
    @pytest.mark.parametrize(
        "build", [c[1] for c in CERTIFIED_CASES], ids=[c[0] for c in CERTIFIED_CASES]
    )
    def test_fixed_cases(self, build):
        assert certified_problems(build) == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(degenerate_games(), small_games()),
        st.one_of(st.just(1), st.integers(min_value=2**70, max_value=2**200)),
    )
    def test_same_answer_as_bland(self, g, factor):
        # With no cutoff every game without a saddle point is guessed and
        # then certified or solved by Bland's rule; the factor makes the
        # guess round its cells.
        scaled = game([[c * factor for c in row] for row in g.payoff])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix, "_CUTOFF", 0)
            assert solve_matrix(scaled) == reference(scaled)

    def test_negative_determinant(self):
        sol = matrix._certified(((1, 3), (2, 1)), 1, [0, 1], [0, 1])
        assert sol == MatrixSolution(F(5, 3), (F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))

    @pytest.mark.parametrize(
        "rows, support_rows, support_cols",
        [
            ([[2, -1, -1], [-1, 1, 1]], [0, 1], [0, 2]),
            ([[1, -1], [1, -1], [-1, 1]], [0, 1], [0, 1]),
            ([[1, 2], [0, 3]], [0, 1], [0, 1]),
            ([[1, -1], [-1, 1]], [0, 1], [0]),
        ],
        ids=["tied-column", "singular", "negative-weight", "unequal-sizes"],
    )
    def test_refused(self, rows, support_rows, support_cols):
        g = game(rows)
        assert matrix._certified(g.cells, g.den, support_rows, support_cols) is None

    def test_tied_support_falls_back_to_bland(self, monkeypatch):
        # Mixing columns 0 and 2 is as good as Bland's columns 0 and 1, since
        # column 2 repeats column 1; only a strict certificate refuses it.
        g = game([[2, -1, -1], [-1, 1, 1]])
        monkeypatch.setattr(matrix, "_CUTOFF", 0)
        monkeypatch.setattr(matrix, "_guess", lambda cells: ([0, 1], [0, 2]))
        assert solve_matrix(g) == reference(g)
        assert solve_matrix(g).col_strategy == (F(2, 5), F(3, 5), F(0))

    def test_big_game_without_strict_certificate_falls_back(self, monkeypatch):
        # Nearly [[2, -1, -1], [-1, 1, 1]] over a 4,100-bit den, with 4,000-bit
        # offsets: column 2 repeats column 1, so no strict certificate exists.
        rng = random.Random("big-tied-column")
        k = rng.getrandbits(4100) | 1 << 4099 | 1
        a, b, c, d = (rng.getrandbits(4000) for _ in range(4))
        g = MatrixGame(((2 * k + a, -k + b, -k + b), (-k + c, k + d, k + d)), k)
        answers, certify = [], matrix._certified
        monkeypatch.setattr(
            matrix, "_certified", lambda *args: answers.append(certify(*args)) or answers[-1]
        )
        dens, simplex = [], matrix._simplex
        monkeypatch.setattr(
            matrix,
            "_simplex",
            lambda cells, den, *args: dens.append(den) or simplex(cells, den, *args),
        )
        assert solve_matrix(g) == reference(g)
        assert answers == [None]
        # The guess runs at den 1, then the fallback at the game's den.
        assert [den.bit_length() for den in dens] == [1, 4100]


class TestValuesOnly:
    """``solve_matrix(g, mixtures=False)`` returns the full solve's value and
    empty strategy tuples, on each of the three paths."""

    @pytest.mark.parametrize(
        "rows, cutoff, path",
        [
            ([[3, 1], [2, 0]], None, "saddle"),
            ([[-1, -1, 1], [0, 0, -1]], None, "simplex"),
            ([[3, -1], ["-1/2", 2]], 0, "certified"),
        ],
        ids=["saddle", "simplex", "certified"],
    )
    def test_same_value_on_each_path(self, monkeypatch, rows, cutoff, path):
        g = game(rows)
        if cutoff is not None:
            monkeypatch.setattr(matrix, "_CUTOFF", cutoff)
        seen = []
        certify, simplex = matrix._certified, matrix._simplex
        monkeypatch.setattr(
            matrix, "_certified", lambda *args: seen.append("certified") or certify(*args)
        )
        monkeypatch.setattr(
            matrix, "_simplex", lambda *args, **kw: seen.append("simplex") or simplex(*args, **kw)
        )
        full = solve_matrix(g)
        steps = seen[:]
        lean = solve_matrix(g, mixtures=False)
        assert lean == MatrixSolution(full.value, (), ())
        # Both solves take the same path.  The certified one guesses through
        # the simplex first; a failed certificate would add a second simplex.
        assert seen == steps * 2
        paths = {"saddle": [], "simplex": ["simplex"], "certified": ["simplex", "certified"]}
        assert steps == paths[path]

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(degenerate_games(), small_games()), st.sampled_from([0, None]))
    def test_same_value_as_full_solve(self, g, cutoff):
        with pytest.MonkeyPatch.context() as patch:
            if cutoff is not None:
                patch.setattr(matrix, "_CUTOFF", cutoff)
            assert solve_matrix(g, mixtures=False) == MatrixSolution(solve_matrix(g).value, (), ())

    def test_mixtures_is_keyword_only(self):
        with pytest.raises(TypeError):
            solve_matrix(game([[1]]), False)


def test_division_sites():
    # The 2-adic divider has one caller, ``_solve_square``, so the simplex
    # divides with ``//`` alone; only ``solve_matrix`` and that caller read
    # the cutoff.
    callers, readers = set(), set()
    for top in ast.parse(Path(matrix.__file__).read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_exact_divider":
                callers.add(top.name)
            if isinstance(node, ast.Name) and node.id == "_CUTOFF":
                if isinstance(node.ctx, ast.Load):
                    readers.add(getattr(top, "name", None))
    assert callers == {"_solve_square"}
    assert readers == {"solve_matrix", "_solve_square"}


class TestIntegerForm:
    def test_from_rows_round_trip(self):
        rows = [
            ["-3/4", 10**400, "1/7", F(-5, 6)],
            [F(1, 10**400), "-2/3", 0, "0.25"],
            [-(10**400), "5", F(-1, 3), "-1/10"],
        ]
        g = game(rows)
        assert g.payoff == tuple(tuple(parse_rational(c) for c in row) for row in rows)
        assert g.den > 0
        assert all(type(c) is int for row in g.cells for c in row)

    @given(st.lists(st.lists(small_fraction, min_size=3, max_size=3), min_size=1, max_size=4))
    def test_payoff_is_cells_over_den(self, rows):
        g = game(rows)
        assert g.payoff == tuple(map(tuple, rows))
        assert g.payoff == tuple(tuple(F(c, g.den) for c in row) for row in g.cells)

    @pytest.mark.parametrize(
        "cells, den, code",
        [
            (((1, 2), (0, 3)), -1, "SIZE"),  # would solve to -1; the game is worth -2
            (((1, 2), (0, 3)), 0, "SIZE"),
            (((1, 2), (0, 3)), True, "PARSE"),
            (((1, 2), (0, 3)), 1.0, "PARSE"),
            (((1, 2), (3,)), 1, "SHAPE"),
            ((), 1, "SIZE"),
            (((), ()), 1, "SIZE"),
        ],
        ids=["negative-den", "zero-den", "bool-den", "float-den", "ragged", "no-rows", "no-cols"],
    )
    def test_built_directly_is_checked(self, cells, den, code):
        with pytest.raises(ValidationError) as err:
            MatrixGame(cells, den)
        assert err.value.code == code

    def test_built_directly_solves_like_from_rows(self):
        g = MatrixGame(((-1, -2), (0, -3)), 1)
        assert solve_matrix(g) == solve_matrix(game([[-1, -2], [0, -3]]))
        assert solve_matrix(g).value == -2


class TestDominance:
    def test_componentwise_true(self):
        assert row_dominates(game([[1, 1], [0, 0]]), 0, 1)

    def test_incomparable(self):
        g = game([[1, 0], [0, 1]])
        assert not row_dominates(g, 0, 1)
        assert not row_dominates(g, 1, 0)

    def test_reflexive(self):
        assert row_dominates(game([[1, 0]]), 0, 0)

    def test_index_error(self):
        for dominates in (row_dominates, col_dominates):
            with pytest.raises(ValidationError) as err:
                dominates(game([[1]]), 0, 1)
            assert err.value.code == "INDEX"

    @pytest.mark.parametrize("index", [True, "1", 1.0])
    def test_index_type(self, index):
        # A bool is not row 1, and a str or float index is a PARSE error, not
        # an untyped TypeError from the comparison or the tuple lookup.
        g = game([[1, 0], [0, 1]])
        for call in (
            lambda: row_dominates(g, index, 0),
            lambda: row_dominates(g, 0, index),
            lambda: col_dominates(g, index, 0),
            lambda: col_dominates(g, 0, index),
        ):
            with pytest.raises(ValidationError) as err:
                call()
            assert err.value.code == "PARSE"

    def test_col_dominates_is_minimizer_order(self):
        g = game([[0, 1], [0, 2]])
        assert col_dominates(g, 0, 1)
        assert not col_dominates(g, 1, 0)

    def test_ex3_ue_root_spare_row_is_not_dominated(self, ex3_ue):
        # Derived fixture: in the opening stage game of the identity-pattern
        # contest with an all-losing spare, the spare's row is incomparable
        # with every specialist row (the specialists pay -1 off-diagonal, the
        # spare a flat -1/2).  That non-dominance is exactly why the spare can
        # matter in non-transitive rosters; here dropping it is value-neutral
        # only because of the expected-wins utility.
        result = solve(ex3_ue)
        opening = stage_matrix(ex3_ue, result.value_table, ROOT_CLASS)
        assert opening.payoff[3] == (F(-1, 2), F(-1, 2), F(-1, 2))
        for specialist in range(3):
            assert not row_dominates(opening, specialist, 3)
            assert not row_dominates(opening, 3, specialist)


class TestResponseValues:
    def test_symmetric_game_uniform(self):
        assert best_row_response_value(game([[1, -1], [-1, 1]]), [F(1, 2), F(1, 2)]) == 0

    def test_uniform_against_mixed_2x3(self):
        # Hand arithmetic: both rows average to -1/3 under the uniform column
        # mixture, so the best response value is -1/3.
        g = game([[-1, -1, 1], [0, 0, -1]])
        y = [F(1, 3), F(1, 3), F(1, 3)]
        assert best_row_response_value(g, y) == F(-1, 3)

    def test_single_cell(self):
        assert best_row_response_value(game([[5]]), [1]) == 5

    def test_dist_negative(self):
        with pytest.raises(ValidationError) as err:
            best_row_response_value(game([[1, 0]]), [F(3, 2), F(-1, 2)])
        assert err.value.code == "DIST"

    def test_dist_sum(self):
        with pytest.raises(ValidationError) as err:
            best_row_response_value(game([[1, 0]]), [F(1, 2), F(1, 4)])
        assert err.value.code == "DIST"

    def test_dist_length(self):
        with pytest.raises(ValidationError) as err:
            best_row_response_value(game([[1, 0]]), [1])
        assert err.value.code == "DIST"
