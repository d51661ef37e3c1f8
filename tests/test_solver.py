import ast
import itertools
import random
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from teamcomp import matrix, montecarlo, solver
from teamcomp.analysis import (
    abandon,
    add_dominated,
    check_theorem2,
    top_block_uniform_strategy,
)
from teamcomp.instances import named_instance
from teamcomp.matrix import solve_matrix
from teamcomp.model import (
    BehavioralStrategy,
    BudgetExceeded,
    CoverageError,
    HistoryClassKey,
    PureAdaptiveStrategy,
    RedundantPlayersError,
    ROOT_CLASS,
    TerminalClassError,
    ValidationError,
    make_spec,
    unplayed,
)
from teamcomp.solver import (
    class_count,
    enumerate_pure_strategies,
    evaluate_fixed,
    matching_distribution,
    max_meeting_probability,
    meeting_probabilities,
    pure_meeting_grids,
    solve,
    stage_matrix,
    uniform_strategy,
)
from teamcomp.montecarlo import simulate_competitions
from teamcomp.explorer import random_square_spec, random_strength_rows, random_weak_tail_spec

from oracles import (
    oracle_game_value,
    oracle_history_class_value,
    oracle_matching_distribution,
    oracle_meeting_grid,
    oracle_simulate,
    oracle_uniform,
)

F = Fraction


def random_spec(rng, rounds, m, n, bound=4, utility="UE"):
    return make_spec(rounds, random_strength_rows(rng, m, n, bound), utility)


def strategy_pairs(spec):
    """Uniform play and one equilibrium, each as (Team 1, Team 2)."""
    result = solve(spec)
    return [
        (uniform_strategy(spec, 1), uniform_strategy(spec, 2)),
        (result.strategy1, result.strategy2),
    ]


def assert_each_class_solves_its_own_game(spec):
    """Every decision class holds exactly what solving its own stage game
    returns, value and both mixtures, whether ``solve`` solved that game,
    copied a translate or shared the value of a class with the same types."""
    m, n = spec.team1_size, spec.team2_size
    result = solve(spec)
    for key, value in result.value_table.items():
        if key.round_index < spec.rounds:
            solution = solve_matrix(stage_matrix(spec, result.value_table, key))
            assert value == solution.value
            rows = dict(zip(unplayed(key.played1, m), solution.row_strategy))
            cols = dict(zip(unplayed(key.played2, n), solution.col_strategy))
            assert result.strategy1.moves[key] == rows
            assert result.strategy2.moves[key] == cols


class TestStageMatrix:
    def test_ex1_opening(self, ex1_spec):
        result = solve(ex1_spec)
        opening = stage_matrix(ex1_spec, result.value_table, ROOT_CLASS)
        assert opening.payoff == (
            (F(-1), F(-1), F(1)),
            (F(0), F(0), F(-1)),
        )

    def test_single_round_expectation(self):
        p = F(1, 3)
        spec = make_spec(1, [[p]], "UE")
        result = solve(spec)
        opening = stage_matrix(spec, result.value_table, ROOT_CLASS)
        assert opening.payoff == ((p - F(1, 2),),)

    def test_ex3_um_opening_assembled_from_tree_oracle(self, ex3_um):
        # Derived via the raw-history oracle: evaluate each one-round opening
        # independently, blend by the match probability, compare cellwise.
        result = solve(ex3_um)
        opening = stage_matrix(ex3_um, result.value_table, ROOT_CLASS)
        assert opening.rows == 4 and opening.cols == 3
        strength = ex3_um.strength.entries
        for i in range(4):
            for j in range(3):
                p = strength[i][j]
                expected = F(0)
                if p > 0:
                    expected += p * oracle_history_class_value(ex3_um, (i,), (j,), 1)
                if p < 1:
                    expected += (1 - p) * oracle_history_class_value(ex3_um, (i,), (j,), 0)
                assert opening.payoff[i][j] == expected

    @pytest.mark.parametrize("utility", ["UE", "UM"])
    def test_every_class_against_fraction_blend(self, utility):
        # Strengths over several denominators, with sure wins and sure losses
        # among them: every cell is p * v(wins+1) + (1-p) * v(wins), blended
        # here in fractions straight from the value table.
        strength = [
            ["0", "1", "1/3", "2/7"],
            ["5/6", "1/3", "0", "1"],
            ["2/7", "5/6", "1", "1/3"],
            ["1", "0", "5/6", "2/7"],
        ]
        spec = make_spec(3, strength, utility)
        assert spec.strength.integer_form[1] == 42
        values = solve(spec).value_table
        entries = spec.strength.entries
        decisions = [key for key in values if key.round_index < spec.rounds]
        assert len(decisions) == class_count(4, 4, 2)
        for key in decisions:
            xm, ym, wins = key
            rows, cols = unplayed(xm, 4), unplayed(ym, 4)
            game = stage_matrix(spec, values, key)
            assert game.den > 0
            assert (game.rows, game.cols) == (len(rows), len(cols))
            assert all(type(c) is int for line in game.cells for c in line)
            expected = []
            for i in rows:
                line = []
                for j in cols:
                    p = entries[i][j]
                    after = (xm | 1 << i, ym | 1 << j)
                    line.append(p * values[(*after, wins + 1)] + (1 - p) * values[(*after, wins)])
                expected.append(tuple(line))
            assert game.payoff == tuple(expected)

    def test_terminal_error(self, ex1_spec):
        result = solve(ex1_spec)
        terminal = next(k for k in result.value_table if k.round_index == 2)
        with pytest.raises(TerminalClassError):
            stage_matrix(ex1_spec, result.value_table, terminal)

    def test_plain_tuple_key(self, card_spec):
        # The round is read from the masks, so a plain triple names a class,
        # as it does in every table lookup.
        values = solve(card_spec).value_table
        for key in ((0, 0, 0), (0b10, 0b100, 1)):
            plain = stage_matrix(card_spec, values, key)
            assert plain == stage_matrix(card_spec, values, HistoryClassKey(*key))

    @pytest.mark.parametrize(
        "key",
        [
            HistoryClassKey(0, 0, 5),  # more wins than rounds played
            (0b1, 0b1, -1),
            (0b1000, 0b1, 0),  # a Team-1 mask past the 3-player roster
            (0b1, 0b1000, 0),
            (-1, 0b1, 0),
            (0b11, 0b1, 0),  # masks of different sizes
        ],
        ids=["wins-above-round", "wins-below-zero", "mask1-past", "mask2-past",
             "mask1-negative", "sizes-differ"],
    )
    def test_key_naming_no_class(self, card_spec, key):
        values = solve(card_spec).value_table
        with pytest.raises(ValidationError) as err:
            stage_matrix(card_spec, values, key)
        assert err.value.code == "INDEX"

    @pytest.mark.parametrize(
        "key", [(0, 0, 0.0), (0, 0, True), ("0", 0, 0), (0, 0), "000"],
        ids=["float", "bool", "str", "pair", "not-a-tuple"],
    )
    def test_key_field_not_an_int(self, card_spec, key):
        values = solve(card_spec).value_table
        with pytest.raises(ValidationError) as err:
            stage_matrix(card_spec, values, key)
        assert err.value.code == "PARSE"


class TestSolve:
    def test_card_game(self, card_spec):
        assert solve(card_spec).root_value == F(-1, 3)

    def test_ex1(self, ex1_spec):
        result = solve(ex1_spec)
        assert result.root_value == F(-1, 3)
        assert result.strategy1.moves[ROOT_CLASS] == {0: F(1, 3), 1: F(2, 3)}

    def test_ex3_quadruple(self, ex3_um, ex3_ue):
        from teamcomp.analysis import abandon

        assert solve(ex3_um).root_value == F(0)
        assert solve(abandon(ex3_um, 1, [3])).root_value == F(-2, 3)
        assert solve(ex3_ue).root_value == F(-1, 2)
        assert solve(abandon(ex3_ue, 1, [3])).root_value == F(-1, 2)

    def test_terminal_values_equal_utility(self, ex1_spec):
        result = solve(ex1_spec)
        for key, value in result.value_table.items():
            if key.round_index == ex1_spec.rounds:
                assert value == ex1_spec.utility.values[key.wins]

    def test_class_count_matches_table(self, ex3_um):
        result = solve(ex3_um)
        assert len(result.value_table) == class_count(4, 3, 3)

    @pytest.mark.parametrize(
        "sizes, code",
        [((-1, 2, 3), "SIZE"), (("3", 3, 1), "PARSE"), ((3, 3, 1.0), "PARSE")],
        ids=["negative", "str", "float"],
    )
    def test_class_count_arguments(self, sizes, code):
        with pytest.raises(ValidationError) as err:
            class_count(*sizes)
        assert err.value.code == code

    def test_bellman_consistency(self):
        contests = [
            add_dominated(named_instance("ex4:4"), 2),
            add_dominated(named_instance("ex5:5"), 2),
            random_spec(random.Random("bellman-ue"), 3, 5, 5, bound=6, utility="UE"),
            random_spec(random.Random("bellman-um"), 3, 5, 5, bound=6, utility="UM"),
            # Every win count is a translate by a fractional constant.
            random_spec(
                random.Random("bellman-sevenths"), 3, 5, 5, bound=6,
                utility=["0", "1/7", "2/7", "3/7"],
            ),
        ]
        for spec in contests:
            assert_each_class_solves_its_own_game(spec)

    @pytest.mark.parametrize("utility", ["UE", "UM"])
    def test_translates_share_one_stage_game(self, monkeypatch, utility):
        # Under UE every win count at a round is a translate of the first, so
        # one stage game is solved per pair of played sets; under UM only the
        # decided win counts are, so fewer games than decision classes.
        spec = named_instance("ex3", utility)
        m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
        calls = []
        monkeypatch.setattr(
            solver,
            "solve_matrix",
            lambda game, **kwargs: calls.append(game) or solve_matrix(game, **kwargs),
        )
        solve(spec)
        pairs = sum(comb(m, k) * comb(n, k) for k in range(rounds))
        decisions = class_count(m, n, rounds) - comb(m, rounds) * comb(n, rounds) * (rounds + 1)
        if utility == "UE":
            assert len(calls) == pairs
        else:
            assert pairs < len(calls) < decisions

    def test_matches_raw_history_oracle(self):
        rng = random.Random("oracle-match")
        for trial in range(6):
            rounds = rng.choice([1, 2])
            m = rng.randint(rounds, rounds + 1)
            n = rng.randint(rounds, rounds + 1)
            utility = rng.choice(["UE", "UM"])
            spec = random_spec(rng, rounds, m, n, utility=utility)
            assert solve(spec).root_value == oracle_game_value(spec)

    def test_budget(self, card_spec):
        with pytest.raises(BudgetExceeded):
            solve(card_spec, class_budget=10)

    @pytest.mark.parametrize("budget", ["x", True, 10.0])
    def test_budget_type(self, card_spec, budget):
        with pytest.raises(ValidationError) as err:
            solve(card_spec, class_budget=budget)
        assert err.value.code == "PARSE"

    def test_deterministic(self, ex3_um):
        first = solve(ex3_um)
        second = solve(ex3_um)
        assert first.value_table == second.value_table
        assert first.strategy1.moves == second.strategy1.moves
        assert first.strategy2.moves == second.strategy2.moves

    def test_mirror_negates_value(self):
        # Swap team roles: transpose and complement the strength grid.  With
        # an antisymmetric utility the mirrored contest is worth the exact
        # negation.
        rng = random.Random("mirror")
        for _ in range(4):
            rounds = rng.choice([1, 2])
            m = rng.randint(rounds, rounds + 1)
            n = rng.randint(rounds, rounds + 1)
            spec = random_spec(rng, rounds, m, n, utility="UE")
            mirrored_rows = [
                [1 - spec.strength.win_prob(i, j) for i in range(m)] for j in range(n)
            ]
            mirrored = make_spec(rounds, mirrored_rows, "UE")
            assert solve(mirrored).root_value == -solve(spec).root_value


# Repeated player types that are not a trailing suffix of the roster, so a
# key that lost the index order or one team's types would share wrong games.
TYPED_CONTESTS = {
    "interleaved rows": lambda u: make_spec(
        3,
        [
            ["1/2", 1, 0, "1/3"],
            [0, "1/4", 1, "2/3"],
            ["1/2", 1, 0, "1/3"],
            [1, 0, "1/2", 0],
            [0, "1/4", 1, "2/3"],
        ],
        u,
    ),
    "interleaved columns": lambda u: make_spec(
        3,
        [
            ["1/2", 0, "1/2", 1, 0],
            [1, "1/4", 1, 0, "1/4"],
            [0, 1, 0, "1/2", 1],
            ["1/3", "2/3", "1/3", 0, "2/3"],
        ],
        u,
    ),
    "one type": lambda u: make_spec(3, [["1/3"] * 4] * 4, u),
}

strength_cell = st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)])


@st.composite
def repeated_type_rows(draw):
    """A strength grid over fewer row and column types than players, so at
    least one row and one column repeat once the roster has two players."""
    rounds = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=rounds, max_value=rounds + 2))
    n = draw(st.integers(min_value=rounds, max_value=rounds + 2))
    row_kinds = draw(st.integers(min_value=1, max_value=max(1, m - 1)))
    col_kinds = draw(st.integers(min_value=1, max_value=max(1, n - 1)))
    base = [[draw(strength_cell) for _ in range(col_kinds)] for _ in range(row_kinds)]
    row_of = [draw(st.integers(min_value=0, max_value=row_kinds - 1)) for _ in range(m)]
    col_of = [draw(st.integers(min_value=0, max_value=col_kinds - 1)) for _ in range(n)]
    return rounds, [[base[r][c] for c in col_of] for r in row_of]


class TestTypeSharing:
    @pytest.mark.parametrize("utility", ["UE", "UM"])
    @pytest.mark.parametrize("name", TYPED_CONTESTS)
    def test_repeated_types_against_own_games(self, name, utility):
        assert_each_class_solves_its_own_game(TYPED_CONTESTS[name](utility))

    @pytest.mark.parametrize("name", ["ex4:4", "ex5:4"])
    def test_ladder_spare_columns(self, name):
        assert_each_class_solves_its_own_game(named_instance(name))

    @pytest.mark.parametrize("name", ["ex4:4", "ex5:4"])
    def test_shuffled_ladder(self, name):
        ladder = add_dominated(named_instance(name), 2)
        rows = list(ladder.strength.entries)
        random.Random(f"shuffled {name}").shuffle(rows)
        assert tuple(rows) != ladder.strength.entries
        assert_each_class_solves_its_own_game(make_spec(ladder.rounds, rows, ladder.utility))

    @pytest.mark.parametrize("utility", ["UE", "UM"])
    @settings(max_examples=60, deadline=None)
    @given(repeated_type_rows())
    def test_repeated_types_property(self, utility, contest):
        rounds, rows = contest
        assert_each_class_solves_its_own_game(make_spec(rounds, rows, utility))

    def test_one_solve_per_type_sequence(self, monkeypatch):
        # Counted here from the strength rows and columns themselves: per
        # round, one game per distinct (rows left, columns left, first
        # translate) in index order.  ex4 is UE, so every win count at a
        # round is a translate of zero wins, the one first translate.
        spec = add_dominated(named_instance("ex4:5"), 3)
        calls = []
        monkeypatch.setattr(
            solver,
            "solve_matrix",
            lambda game, **kwargs: calls.append(game) or solve_matrix(game, **kwargs),
        )
        solve(spec)
        m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
        rows = spec.strength.entries
        cols = [tuple(row[j] for row in rows) for j in range(n)]
        games = 0
        for k in range(rounds):
            left1 = [
                tuple(rows[i] for i in range(m) if i not in played)
                for played in itertools.combinations(range(m), k)
            ]
            left2 = [
                tuple(cols[j] for j in range(n) if j not in played)
                for played in itertools.combinations(range(n), k)
            ]
            games += len({(a, b) for a in left1 for b in left2})
        assert len(calls) == games == 1_899
        assert games < sum(comb(m, k) * comb(n, k) for k in range(rounds))

    # ex4 is UE, so at every round each win count is a translate of zero wins.
    LADDER = add_dominated(named_instance("ex4:5"), 3)

    def test_translates_share_their_twins_moves(self):
        # Each class's mixtures are its own stage game's; a translate's game
        # differs from its twin's by a constant, which Bland's pivots ignore.
        result = solve(self.LADDER)
        for key in result.strategy1.moves:
            twin = (key.played1, key.played2, 0)
            assert result.strategy1.moves[key] == result.strategy1.moves[twin]
            assert result.strategy2.moves[key] == result.strategy2.moves[twin]

    def test_one_team1_mixture_per_played_set_and_team2_types(self):
        # Classes at one round with the same Team-1 played set, the same
        # Team-2 types left and the same first translate solve one integer
        # matrix, up to a translate's constant, so Team 1 mixes alike there.
        spec = self.LADDER
        n = spec.team2_size
        cols = [spec.strength.col(j) for j in range(n)]
        col_type = [cols.index(col) for col in cols]
        moves1 = solve(spec).strategy1.moves
        groups = {}
        for key, moves in moves1.items():
            types = tuple(col_type[j] for j in unplayed(key.played2, n))
            groups.setdefault((key.played1, types), set()).add(tuple(moves.items()))
        assert len(groups) < len(moves1)
        assert all(len(mixtures) == 1 for mixtures in groups.values())

    def test_one_value_object_per_type_sequences_and_win_count(self):
        # The value pass fills one list of values by win count per pair of
        # type sequences and shares its objects with every later pair, so a
        # round holds no more value objects than (rows left, columns left,
        # wins) triples; a per-class copy would make one object per class.
        spec = self.LADDER
        m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
        rows = spec.strength.entries
        cols = [spec.strength.col(j) for j in range(n)]
        row_type = [rows.index(row) for row in rows]
        col_type = [cols.index(col) for col in cols]
        table = solve(spec).value_table
        for k in range(1, rounds):
            triples, objects, classes = set(), set(), 0
            for key, value in table.items():
                if key.round_index == k:
                    left1 = tuple(row_type[i] for i in unplayed(key.played1, m))
                    left2 = tuple(col_type[j] for j in unplayed(key.played2, n))
                    triples.add((left1, left2, key.wins))
                    objects.add(id(value))
                    classes += 1
            assert len(objects) <= len(triples) < classes


class TestValuesOnly:
    """Below the root ``solve`` keeps each class's value alone and reads
    every mixture off the value table; each class must still hold its own
    stage game's answer."""

    @pytest.mark.parametrize("utility", ["UE", "UM"])
    def test_random_contests_with_spares(self, utility):
        rng = random.Random(f"values-only {utility}")
        for rounds in (1, 2, 2, 3, 3):
            m, n = rng.randint(rounds, rounds + 2), rng.randint(rounds + 1, rounds + 2)
            assert_each_class_solves_its_own_game(random_spec(rng, rounds, m, n, utility=utility))

    @pytest.mark.parametrize("name, recruits", [("ex4:4", 2), ("ex5:4", 3), ("ex5:5", 2)])
    def test_recruit_ladders(self, name, recruits):
        # Recruits repeat one row type, so most classes copy another's value.
        assert_each_class_solves_its_own_game(add_dominated(named_instance(name), recruits))

    @pytest.mark.parametrize("name", [*TYPED_CONTESTS, "ex3"])
    def test_translates_and_types(self, name):
        # Under UE every win count at a round is a translate of zero wins.
        build = TYPED_CONTESTS.get(name, lambda u: named_instance(name, u))
        assert_each_class_solves_its_own_game(build("UE"))

    def test_certified_contest(self, monkeypatch):
        # A dense majority contest whose big stage games take the certified
        # path, both in the value pass and in the reads: a skipped
        # certificate or a fallback fails here.
        answers, certify = [], matrix._certified
        monkeypatch.setattr(
            matrix, "_certified", lambda *args: answers.append(certify(*args)) or answers[-1]
        )
        spec = make_spec(4, random_strength_rows(random.Random(0), 6, 6, 6), "UM")
        assert_each_class_solves_its_own_game(spec)
        assert answers and None not in answers

    def test_walks_read_below_the_root(self, ex3_um):
        # Best responses and the Monte Carlo walk read mixtures past the root.
        result = solve(ex3_um)
        for fixed in (result.strategy1, result.strategy2):
            assert evaluate_fixed(ex3_um, fixed) == result.root_value
        estimate = simulate_competitions(
            ex3_um, result.strategy1, result.strategy2, result.root_value, 200, 0
        )
        assert estimate.samples == 200

    def test_no_move_off_the_decision_classes(self, ex3_um):
        # As with a dict, a key that names no decision class is missing, so
        # the reader's walk ends in CoverageError there.
        m, n, rounds = ex3_um.team1_size, ex3_um.team2_size, ex3_um.rounds
        result = solve(ex3_um)
        terminal = next(key for key in result.value_table if key.round_index == rounds)
        terminals = comb(m, rounds) * comb(n, rounds) * (rounds + 1)
        for moves in (result.strategy1.moves, result.strategy2.moves):
            assert len(moves) == len(set(moves)) == class_count(m, n, rounds) - terminals
            for key in (terminal, (0, 0, 1), (1, 1, 2)):
                assert key not in moves
                with pytest.raises(KeyError):
                    moves[key]
        with pytest.raises(CoverageError):
            solver._reader(ex3_um, result.strategy1, 1)(terminal)

    def test_one_round_contest_is_all_root(self):
        spec = random_spec(random.Random("one round"), 1, 2, 3)
        result = solve(spec)
        assert list(result.strategy1.moves) == list(result.strategy2.moves) == [ROOT_CLASS]
        assert_each_class_solves_its_own_game(spec)


class TestEvaluateFixed:
    def test_ex1_uniform(self, ex1_spec):
        assert evaluate_fixed(ex1_spec, uniform_strategy(ex1_spec, 1)) == F(-1, 2)

    def test_ex1_root_override(self, ex1_spec):
        # Freeze the mixed opening (1/3, 2/3); later picks are forced anyway.
        base = uniform_strategy(ex1_spec, 1)
        moves = dict(base.moves)
        moves[ROOT_CLASS] = {0: F(1, 3), 1: F(2, 3)}
        assert evaluate_fixed(ex1_spec, BehavioralStrategy(1, moves)) == F(-1, 3)

    def test_equilibrium_strategies_hit_root_value(self, card_spec, ex3_um):
        for spec in (card_spec, ex3_um):
            result = solve(spec)
            assert evaluate_fixed(spec, result.strategy1) == result.root_value
            assert evaluate_fixed(spec, result.strategy2) == result.root_value

    def test_fixed_team1_never_above_value(self):
        rng = random.Random("br")
        spec = random_spec(rng, 2, 3, 2)
        result = solve(spec)
        assert evaluate_fixed(spec, uniform_strategy(spec, 1)) <= result.root_value
        assert evaluate_fixed(spec, uniform_strategy(spec, 2)) >= result.root_value

    def test_uniform_guarantees_value_without_spares(self):
        # Theorem 1: with no spare players, either team's uniform play
        # guarantees the equilibrium value against any response.
        rng = random.Random("uniform-fixed")
        for _ in range(12):
            spec = random_square_spec(rng, rng.randint(1, 3), 4, rng.choice(["UE", "UM"]))
            root = solve(spec).root_value
            assert evaluate_fixed(spec, uniform_strategy(spec, 1)) == root
            assert evaluate_fixed(spec, uniform_strategy(spec, 2)) == root

    def test_pure_strategies_bounded_by_value(self):
        # Pure strategies are defined only along their own play path.
        rng = random.Random("pure-fixed")
        for rounds, m, n in ((1, 2, 3), (2, 3, 2), (2, 3, 3), (3, 3, 3)):
            spec = random_spec(rng, rounds, m, n, utility=rng.choice(["UE", "UM"]))
            root = solve(spec).root_value
            for pure in enumerate_pure_strategies(spec, 1):
                assert evaluate_fixed(spec, pure) <= root
            for pure in enumerate_pure_strategies(spec, 2):
                assert evaluate_fixed(spec, pure) >= root

    def test_coverage_missing_class(self, ex1_spec):
        with pytest.raises(CoverageError):
            evaluate_fixed(ex1_spec, BehavioralStrategy(1, {ROOT_CLASS: {0: F(1)}}))

    def test_coverage_played_player(self, ex1_spec):
        bad = {
            key: {0: F(1)} for key in uniform_strategy(ex1_spec, 1).moves
        }
        with pytest.raises(CoverageError):
            evaluate_fixed(ex1_spec, BehavioralStrategy(1, bad))

    @pytest.mark.parametrize("root", [{0: 2, 1: -1}, {0: F(1, 2)}], ids=["negative", "half"])
    def test_coverage_bad_weights(self, root):
        spec = make_spec(1, [["1", "0"], ["1/2", "1"]], "UE")
        with pytest.raises(CoverageError) as err:
            evaluate_fixed(spec, BehavioralStrategy(1, {ROOT_CLASS: root}))
        assert err.value.code == "COVERAGE"


def opening_readers(entry):
    """Every reader of a strategy, each given Team 1's uniform strategy with
    its root move replaced by ``entry``."""
    one = make_spec(1, [["1", "0"], ["1/2", "1"]], "UE")
    two = make_spec(2, [["1", "0"], ["1/2", "1"]], "UE")

    def opening(spec):
        moves = dict(uniform_strategy(spec, 1).moves)
        moves[ROOT_CLASS] = entry
        return BehavioralStrategy(1, moves)

    return [
        lambda: evaluate_fixed(one, opening(one)),
        lambda: meeting_probabilities(one, opening(one), uniform_strategy(one, 2)),
        lambda: matching_distribution(two, opening(two), uniform_strategy(two, 2)),
        lambda: simulate_competitions(one, opening(one), uniform_strategy(one, 2), F(0), 5, 0),
    ]


class TestStrategyReads:
    """One read rule for both move forms: a player number or a mapping of
    player numbers to exact weights, and a typed error for anything else."""

    @pytest.mark.parametrize(
        "entry, code",
        [
            ({0: 0.5, 1: 0.5}, "PARSE"),  # float weights once leaked float values
            (1.7, "PARSE"),
            ("1", "PARSE"),
            (True, "PARSE"),
            (1.0, "PARSE"),
            ({True: F(1)}, "PARSE"),
            ({"0": F(1)}, "PARSE"),
            ({0: "1"}, "PARSE"),
            ([0], "PARSE"),
            (-1, "SIZE"),
            ({-1: F(1)}, "SIZE"),
        ],
        ids=[
            "float-weights",
            "float-pick",
            "str-pick",
            "bool-pick",
            "integral-float-pick",
            "bool-key",
            "str-key",
            "str-weight",
            "list-entry",
            "negative-pick",
            "negative-key",
        ],
    )
    def test_refused_entries(self, entry, code):
        for read in opening_readers(entry):
            with pytest.raises(ValidationError) as err:
                read()
            assert err.value.code == code

    def test_pure_strategy_reads_a_mixture_entry(self):
        assert PureAdaptiveStrategy is BehavioralStrategy
        spec = make_spec(1, [["1", "0"], ["1/2", "1"]], "UE")
        mixed = PureAdaptiveStrategy(1, {ROOT_CLASS: {0: F(1)}})
        pure = PureAdaptiveStrategy(1, {ROOT_CLASS: 0})
        assert evaluate_fixed(spec, mixed) == evaluate_fixed(spec, pure) == F(-1, 2)

    def test_exact_weights_give_exact_values(self):
        spec = make_spec(1, [["1", "0"], ["1/2", "1"]], "UE")
        half = BehavioralStrategy(1, {ROOT_CLASS: {0: F(1, 2), 1: F(1, 2)}})
        value = evaluate_fixed(spec, half)
        grid = meeting_probabilities(spec, half, uniform_strategy(spec, 2))
        assert type(value) is F and value == 0
        assert all(type(q) is F for row in grid for q in row)
        pure1 = PureAdaptiveStrategy(1, {ROOT_CLASS: 0})
        pure2 = PureAdaptiveStrategy(2, {ROOT_CLASS: 1})
        grid = meeting_probabilities(spec, pure1, pure2)
        assert grid == ((0, 1), (0, 0)) and all(type(q) is F for row in grid for q in row)
        assert type(evaluate_fixed(spec, pure2)) is F


class TestUniformStrategy:
    def test_root_weights(self, card_spec):
        dist = uniform_strategy(card_spec, 1).moves[ROOT_CLASS]
        assert dist == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}

    def test_after_one_play(self, card_spec):
        key = HistoryClassKey(0b010, 0b001, 1)
        dist = uniform_strategy(card_spec, 1).moves[key]
        assert dist == {0: F(1, 2), 2: F(1, 2)}

    def test_forced_single_player(self):
        spec = make_spec(1, [["1/2"]], "UE")
        assert uniform_strategy(spec, 2).moves[ROOT_CLASS] == {0: F(1)}


class TestMatchingDistribution:
    def test_t2_uniform_uniform(self):
        spec = make_spec(2, [["1/3", "2/3"], ["1/5", "1/2"]], "UE")
        dist = matching_distribution(
            spec, uniform_strategy(spec, 1), uniform_strategy(spec, 2)
        )
        assert dist == {(0, 1): F(1, 2), (1, 0): F(1, 2)}

    def test_t3_uniform_vs_every_pure(self):
        rng = random.Random("lemma2-unit")
        spec = random_square_spec(rng, 3, 6, "UE")
        uniform1 = uniform_strategy(spec, 1)
        share = F(1, factorial(3))
        for pure in enumerate_pure_strategies(spec, 2):
            dist = matching_distribution(spec, uniform1, pure)
            assert len(dist) == 6
            assert all(p == share for p in dist.values())

    def test_deterministic_pure_play(self):
        spec = make_spec(2, [[1, 1], [0, 1]], "UE")
        lowest_first1 = {
            key: min(p for p in dist)
            for key, dist in uniform_strategy(spec, 1).moves.items()
        }
        lowest_first2 = {
            key: min(p for p in dist)
            for key, dist in uniform_strategy(spec, 2).moves.items()
        }
        dist = matching_distribution(
            spec,
            PureAdaptiveStrategy(1, lowest_first1),
            PureAdaptiveStrategy(2, lowest_first2),
        )
        assert dist == {(0, 1): F(1)}

    def test_probabilities_sum_to_one(self):
        rng = random.Random("match-sum")
        spec = random_square_spec(rng, 3, 5, "UM")
        dist = matching_distribution(
            spec, uniform_strategy(spec, 1), uniform_strategy(spec, 2)
        )
        assert sum(dist.values()) == 1

    def test_redundant_error(self, ex1_spec):
        with pytest.raises(RedundantPlayersError):
            matching_distribution(
                ex1_spec, uniform_strategy(ex1_spec, 1), uniform_strategy(ex1_spec, 2)
            )

    def test_redundant_error_before_order_check(self, ex1_spec):
        with pytest.raises(RedundantPlayersError):
            matching_distribution(
                ex1_spec, uniform_strategy(ex1_spec, 2), uniform_strategy(ex1_spec, 1)
            )

    def test_swapped_strategy_order_rejected(self):
        spec = make_spec(2, [["1/3", "2/3"], ["1/5", "1/2"]], "UE")
        team1, team2 = uniform_strategy(spec, 1), uniform_strategy(spec, 2)
        for passes in (matching_distribution, meeting_probabilities):
            with pytest.raises(ValidationError) as err:
                passes(spec, team2, team1)
            assert err.value.code == "PARSE"


class TestMeetingProbabilities:
    def test_square_uniform_grid(self):
        rng = random.Random("meet-uniform")
        spec = random_square_spec(rng, 3, 6, "UE")
        grid = meeting_probabilities(
            spec, uniform_strategy(spec, 1), uniform_strategy(spec, 2)
        )
        assert all(q == F(1, 3) for row in grid for q in row)

    def test_pure_first_two_players(self):
        spec = make_spec(2, [["1/2", "1/3"], ["1/4", "1/5"], ["1/6", "1/7"]], "UE")
        # Team 1 plays A1 then A2 regardless of context.
        moves = {}
        for key in uniform_strategy(spec, 1).moves:
            moves[key] = 0 if not key.played1 else 1
        grid = meeting_probabilities(
            spec, PureAdaptiveStrategy(1, moves), uniform_strategy(spec, 2)
        )
        assert grid[0] == (F(1, 2), F(1, 2))
        assert grid[1] == (F(1, 2), F(1, 2))
        assert grid[2] == (F(0), F(0))

    def test_column_sums_when_opponent_always_plays(self):
        rng = random.Random("meet-sums")
        spec = random_spec(rng, 2, 4, 2)
        grid = meeting_probabilities(
            spec, uniform_strategy(spec, 1), uniform_strategy(spec, 2)
        )
        for j in range(2):
            assert sum(grid[i][j] for i in range(4)) == 1
        for i in range(4):
            assert sum(grid[i]) <= 1

    def test_grid_is_matching_marginal(self):
        rng = random.Random("meet-vs-match")
        for _ in range(8):
            rounds = rng.randint(1, 3)
            spec = random_spec(rng, rounds, rounds, rounds, utility=rng.choice(["UE", "UM"]))
            for strategy1, strategy2 in strategy_pairs(spec):
                grid = meeting_probabilities(spec, strategy1, strategy2)
                dist = matching_distribution(spec, strategy1, strategy2)
                for i in range(rounds):
                    for j in range(rounds):
                        met = sum((q for match, q in dist.items() if match[i] == j), F(0))
                        assert grid[i][j] == met

    def test_spares_on_both_sides(self):
        rng = random.Random("meet-spares")
        for _ in range(6):
            rounds = rng.randint(1, 3)
            m, n = rounds + rng.randint(1, 2), rounds + rng.randint(1, 2)
            spec = random_spec(rng, rounds, m, n)
            for strategy1, strategy2 in strategy_pairs(spec):
                grid = meeting_probabilities(spec, strategy1, strategy2)
                assert sum(sum(row) for row in grid) == rounds
                assert all(sum(row) <= 1 for row in grid)
                assert all(sum(grid[i][j] for i in range(m)) <= 1 for j in range(n))


class TestEnumeratePureStrategies:
    def test_no_spares_two_rounds(self):
        spec = make_spec(2, [["1/2", "1/3"], ["1/4", "1/5"]], "UE")
        strategies = list(enumerate_pure_strategies(spec, 1))
        # Opening choice is free; the second pick is forced in every branch.
        assert len(strategies) == 2

    def test_single_round_single_player(self):
        spec = make_spec(1, [["1/2"]], "UE")
        assert len(list(enumerate_pure_strategies(spec, 1))) == 1

    def test_spare_row_count(self):
        # Team 1 has three players for two rounds against two opponents with
        # all-interior probabilities: 3 openings, then 4 reachable classes
        # (2 opponents x 2 outcomes) with 2 choices each: 3 * 2^4 = 48.
        spec = make_spec(
            2,
            [["1/2", "1/3"], ["1/4", "1/5"], ["1/6", "1/7"]],
            "UE",
        )
        assert len(list(enumerate_pure_strategies(spec, 1))) == 48

    def test_yields_valid_choices(self):
        spec = make_spec(2, [["1/2", "1/3"], ["1/4", "1/5"], ["1/6", "1/7"]], "UE")
        for pure in enumerate_pure_strategies(spec, 1):
            for key, choice in pure.moves.items():
                assert not (key.played1 >> choice) & 1

    def test_budget_error(self):
        spec = make_spec(
            2,
            [["1/2", "1/3"], ["1/4", "1/5"], ["1/6", "1/7"]],
            "UE",
        )
        with pytest.raises(BudgetExceeded):
            list(enumerate_pure_strategies(spec, 1, budget=10))

    def test_budget_settled_before_first_strategy(self):
        spec = make_spec(2, [["1/2", "1/3"], ["1/4", "1/5"], ["1/6", "1/7"]], "UE")
        with pytest.raises(BudgetExceeded):
            next(enumerate_pure_strategies(spec, 1, budget=10))

    def test_budget_type(self, card_spec):
        with pytest.raises(ValidationError) as err:
            next(enumerate_pure_strategies(card_spec, 1, budget="x"))
        assert err.value.code == "PARSE"

    def test_budget_equal_to_count(self):
        spec = make_spec(2, [["1/2", "1/3"], ["1/4", "1/5"], ["1/6", "1/7"]], "UE")
        strategies = list(enumerate_pure_strategies(spec, 1, budget=48))
        assert strategies == list(enumerate_pure_strategies(spec, 1))
        assert len(strategies) == 48

    def test_budget_refused_at_a_wide_frontier(self, few_reach_steps):
        # Some frontier of a T=5 square contest has more picks than the
        # default budget; it refuses the walk at once, long before the count
        # would pass the budget over the last round's prefixes.
        spec = random_square_spec(random.Random("wide-frontier"), 5, 6, "UE")
        with pytest.raises(BudgetExceeded):
            next(enumerate_pure_strategies(spec, 1))


class TestPureMeetingGrids:
    @pytest.mark.parametrize(
        "spec",
        [
            named_instance("ex3", "UM"),
            random_weak_tail_spec(random.Random("grids-a"), 2, 3, 6),
            random_weak_tail_spec(random.Random("grids-b"), 2, 4, 6),
            # Certain wins and losses prune a match to one successor.
            make_spec(2, [[1, 0], [0, "1/2"], [0, 0]], "UM"),
        ],
        ids=["ex3-UM", "weak-tail-3", "weak-tail-4", "zero-one"],
    )
    def test_kth_grid_is_kth_strategy_grid(self, spec):
        uniform2 = uniform_strategy(spec, 2)
        count = 0
        for count, (grid, pure) in enumerate(
            zip(pure_meeting_grids(spec), enumerate_pure_strategies(spec, 1), strict=True),
            start=1,
        ):
            assert grid == meeting_probabilities(spec, pure, uniform2)
        assert count > 1

    def test_budget_settled_before_first_grid(self):
        spec = make_spec(2, [["1/2", "1/3"], ["1/4", "1/5"], ["1/6", "1/7"]], "UE")
        with pytest.raises(BudgetExceeded):
            next(pure_meeting_grids(spec, budget=47))
        assert len(list(pure_meeting_grids(spec, budget=48))) == 48

    def test_budget_settled_before_uniform_table(self, monkeypatch):
        # Uniform Team 2's table covers every decision class; a refused
        # enumeration must not build it.
        def refuse(spec, team):
            pytest.fail("the uniform table was built before the budget check")

        monkeypatch.setattr(solver, "uniform_strategy", refuse)
        spec = random_weak_tail_spec(random.Random(1), 6, 7, 6)
        with pytest.raises(BudgetExceeded):
            next(pure_meeting_grids(spec))

    def test_budget_type(self, card_spec):
        with pytest.raises(ValidationError) as err:
            next(pure_meeting_grids(card_spec, budget=True))
        assert err.value.code == "PARSE"


def oracle_moves(strategy):
    """A solver strategy as a forward-oracle move function: the ordered
    history is looked up at its class, and zero weights are dropped."""

    def move(seq1, seq2, wins):
        key = HistoryClassKey(sum(1 << i for i in seq1), sum(1 << j for j in seq2), wins)
        entry = strategy.moves[key]
        if isinstance(entry, int):
            return {entry: F(1)}
        return {p: w for p, w in entry.items() if w}

    return move


ORACLE_FIXTURES = pytest.mark.parametrize(
    "spec",
    [
        named_instance("ex3", "UM"),
        random_weak_tail_spec(random.Random("grids-b"), 2, 4, 6),
        random_square_spec(random.Random("oracle-square"), 3, 6, "UM"),
        make_spec(2, [[1, 0], [0, "1/2"], [0, 0]], "UM"),
    ],
    ids=["ex3-UM", "weak-tail-4", "square-3", "zero-one"],
)


class TestForwardOracle:
    """The forward passes against ``oracles.oracle_outcomes``, which plays
    raw ordered histories with no class keys and no successor rule."""

    @ORACLE_FIXTURES
    def test_meeting_probabilities(self, spec):
        m, n = spec.team1_size, spec.team2_size
        uniform = (oracle_uniform(1, m), oracle_uniform(2, n))
        assert meeting_probabilities(
            spec, uniform_strategy(spec, 1), uniform_strategy(spec, 2)
        ) == oracle_meeting_grid(spec, *uniform)
        result = solve(spec)
        s1, s2 = result.strategy1, result.strategy2
        assert meeting_probabilities(spec, s1, s2) == oracle_meeting_grid(
            spec, oracle_moves(s1), oracle_moves(s2)
        )

    @ORACLE_FIXTURES
    def test_kth_grid(self, spec):
        uniform2 = oracle_uniform(2, spec.team2_size)
        for grid, pure in zip(
            pure_meeting_grids(spec), enumerate_pure_strategies(spec, 1), strict=True
        ):
            assert grid == oracle_meeting_grid(spec, oracle_moves(pure), uniform2)

    def test_matching_distribution(self):
        spec = random_square_spec(random.Random("oracle-square"), 3, 6, "UM")
        uniform1, uniform2 = oracle_uniform(1, 3), oracle_uniform(2, 3)
        assert matching_distribution(
            spec, uniform_strategy(spec, 1), uniform_strategy(spec, 2)
        ) == oracle_matching_distribution(spec, uniform1, uniform2)
        result = solve(spec)
        s1, s2 = result.strategy1, result.strategy2
        assert matching_distribution(spec, s1, s2) == oracle_matching_distribution(
            spec, oracle_moves(s1), oracle_moves(s2)
        )
        solver_uniform2 = uniform_strategy(spec, 2)
        for pure in enumerate_pure_strategies(spec, 1):
            assert matching_distribution(
                spec, pure, solver_uniform2
            ) == oracle_matching_distribution(spec, oracle_moves(pure), uniform2)

    def test_mixed_move_forms(self):
        # One strategy per team whose entries mix both forms: Team 1 plays
        # its equilibrium mixtures except for a player number at every
        # round-1 class, Team 2 a player number at the root, then uniform.
        spec = random_square_spec(random.Random("oracle-square"), 3, 6, "UM")
        moves1 = dict(solve(spec).strategy1.moves)
        for key in moves1:
            if key.round_index == 1:
                moves1[key] = max(moves1[key])
        moves2 = dict(uniform_strategy(spec, 2).moves)
        moves2[ROOT_CLASS] = 2
        s1, s2 = BehavioralStrategy(1, moves1), BehavioralStrategy(2, moves2)
        assert {type(entry) for entry in moves1.values()} == {int, dict}
        assert meeting_probabilities(spec, s1, s2) == oracle_meeting_grid(
            spec, oracle_moves(s1), oracle_moves(s2)
        )
        assert matching_distribution(spec, s1, s2) == oracle_matching_distribution(
            spec, oracle_moves(s1), oracle_moves(s2)
        )


def test_only_three_walks_play_the_match_rule():
    # One forward pass: ``_successors`` is called from ``_reach`` (the prefix
    # walk's step), ``evaluate_fixed`` and ``_histories`` alone, so every
    # other forward play, the meeting grids' included, goes through them.
    callers = set()
    for path in sorted(Path(solver.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_successors":
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {
        ("solver.py", "_reach"),
        ("solver.py", "evaluate_fixed"),
        ("solver.py", "_histories"),
    }


def test_only_the_reader_reads_a_strategy():
    # One read rule: every walk reads a strategy's moves through a
    # ``_reader``, so no other code names ``_distribution_at``, imports
    # included.
    namers = set()
    for path in sorted(Path(solver.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                named = getattr(node, "id", None) or getattr(node, "name", None)
                if named == "_distribution_at" and not isinstance(node, ast.FunctionDef):
                    namers.add((path.name, getattr(top, "name", None)))
    assert namers == {("solver.py", "_reader")}


def test_only_the_solver_solves_stage_games():
    # One module decides which mixtures get read: no other module under the
    # package calls ``solve_matrix``, by name or through ``matrix``.
    callers = set()
    for path in sorted(Path(solver.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "solve_matrix":
                    callers.add(path.name)
    assert callers == {"solver.py"}


class TestMaxMeetingProbability:
    def test_bounded_by_inverse_rounds_without_spares(self):
        rng = random.Random("mmp")
        spec = random_square_spec(rng, 3, 6, "UE")
        for i in range(3):
            for j in range(3):
                assert max_meeting_probability(spec, i, j) <= F(1, 3)

    def test_matches_enumeration_peak(self):
        # The backward-induction bound must equal the best over all pure
        # adaptive strategies on instances small enough to enumerate.  The
        # 3x3 one has spares on both sides, so Team 2 may never field the
        # column player.
        for rows in (
            [["1/2", "1/3"], ["1/4", "1/5"], ["1/6", "1/7"]],
            [["1/2", "1/3", "1/4"], ["1/5", "1/6", "1/7"], ["1/8", "1/9", "1/10"]],
        ):
            spec = make_spec(2, rows, "UE")
            m, n = spec.team1_size, spec.team2_size
            uniform2 = uniform_strategy(spec, 2)
            peaks = [[F(0)] * n for _ in range(m)]
            for pure in enumerate_pure_strategies(spec, 1):
                grid = meeting_probabilities(spec, pure, uniform2)
                for i in range(m):
                    for j in range(n):
                        peaks[i][j] = max(peaks[i][j], grid[i][j])
            for i in range(m):
                for j in range(n):
                    assert max_meeting_probability(spec, i, j) == peaks[i][j]

    @pytest.mark.parametrize("index", [True, "1", 1.0])
    def test_player_index_type(self, card_spec, index):
        for call in (
            lambda: max_meeting_probability(card_spec, index, 0),
            lambda: max_meeting_probability(card_spec, 0, index),
        ):
            with pytest.raises(ValidationError) as err:
                call()
            assert err.value.code == "PARSE"

    def test_player_index_range(self, card_spec):
        for row, col in ((3, 0), (0, 3)):
            with pytest.raises(ValidationError) as err:
                max_meeting_probability(card_spec, row, col)
            assert err.value.code == "INDEX"


class TestTeamNumbers:
    @pytest.mark.parametrize("team", [True, 2.0, "1"])
    def test_team_argument_refused(self, card_spec, team):
        calls = (
            lambda: uniform_strategy(card_spec, team),
            lambda: next(enumerate_pure_strategies(card_spec, team)),
            lambda: abandon(card_spec, team, []),
            lambda: check_theorem2(card_spec, team),
            lambda: top_block_uniform_strategy(card_spec, team),
        )
        for call in calls:
            with pytest.raises(ValidationError) as err:
                call()
            assert err.value.code == "PARSE"
            assert str(err.value) == f"team must be 1 or 2, got {team!r}"

    def test_strategy_team_refused(self, card_spec):
        result = solve(card_spec)
        one = BehavioralStrategy(True, result.strategy1.moves)
        two = BehavioralStrategy(2.0, result.strategy2.moves)
        value = result.root_value
        calls = (
            lambda: evaluate_fixed(card_spec, one),
            lambda: evaluate_fixed(card_spec, two),
            lambda: meeting_probabilities(card_spec, one, result.strategy2),
            lambda: meeting_probabilities(card_spec, result.strategy1, two),
            lambda: simulate_competitions(card_spec, one, result.strategy2, value, 10, 0),
            lambda: simulate_competitions(card_spec, result.strategy1, two, value, 10, 0),
        )
        for call in calls:
            with pytest.raises(ValidationError) as err:
                call()
            assert err.value.code == "PARSE"


class TestSimulation:
    def test_card_game_within_four_stderr(self, card_spec):
        result = solve(card_spec)
        estimate = simulate_competitions(
            card_spec, result.strategy1, result.strategy2, result.root_value, 20_000, 11
        )
        assert estimate.within_four_stderr

    def test_deterministic_instance_zero_variance(self):
        spec = make_spec(1, [[1]], "UE")
        result = solve(spec)
        estimate = simulate_competitions(
            spec, result.strategy1, result.strategy2, result.root_value, 500, 3
        )
        assert estimate.stderr == 0.0
        assert estimate.mean == float(result.root_value) == 0.5

    def test_zero_variance_off_the_value_is_not_within(self):
        estimate = montecarlo.SimulationEstimate(10, 0, 0.5, 0.0, F(0))
        assert estimate.within_four_stderr is False

    def test_seeded_repeatability(self, ex1_spec):
        result = solve(ex1_spec)
        runs = [
            simulate_competitions(
                ex1_spec, result.strategy1, result.strategy2, result.root_value, 2_000, 9
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_swapped_strategies_refused(self, name):
        spec = named_instance(name)
        result = solve(spec)
        with pytest.raises(ValidationError) as err:
            simulate_competitions(
                spec, result.strategy2, result.strategy1, result.root_value, 10, 0
            )
        assert err.value.code == "PARSE"

    def test_sample_count_type(self, card_spec):
        result = solve(card_spec)
        with pytest.raises(ValidationError) as err:
            simulate_competitions(
                card_spec, result.strategy1, result.strategy2, result.root_value, 10.0, 0
            )
        assert err.value.code == "PARSE"

    @pytest.mark.parametrize(
        "seed, code",
        [(None, "PARSE"), ([1], "PARSE"), (True, "PARSE"), (1.0, "PARSE"), (-3, "SIZE")],
        ids=["none", "list", "bool", "float", "negative"],
    )
    def test_seed_refused(self, card_spec, seed, code):
        # random.Random would sample None from OS entropy and replay -3 as 3.
        result = solve(card_spec)
        with pytest.raises(ValidationError) as err:
            simulate_competitions(
                card_spec, result.strategy1, result.strategy2, result.root_value, 10, seed
            )
        assert err.value.code == code

    @pytest.mark.parametrize(
        "exact", ["1/3", 0.5, None, True], ids=["str", "float", "none", "bool"]
    )
    def test_exact_value_refused(self, card_spec, exact):
        result = solve(card_spec)
        with pytest.raises(ValidationError) as err:
            simulate_competitions(card_spec, result.strategy1, result.strategy2, exact, 10, 0)
        assert err.value.code == "PARSE"

    def test_int_exact_value_is_a_fraction(self):
        spec = make_spec(1, [[1]], "UE")
        result = solve(spec)
        estimate = simulate_competitions(spec, result.strategy1, result.strategy2, 1, 10, 0)
        assert estimate.exact_value == 1 and isinstance(estimate.exact_value, Fraction)


def mixed_forms(spec, team):
    """Team's uniform strategy rewritten so that, in class order, moves
    alternate between a player number and a mixture whose first entry is a
    zero weight on an available player."""
    moves = {}
    for n, (key, dist) in enumerate(sorted(uniform_strategy(spec, team).moves.items())):
        players = sorted(dist)
        if n % 2 == 0 or len(players) == 1:
            moves[key] = players[-1]
        else:
            rest = players[1:]
            moves[key] = {players[0]: F(0), **{p: F(1, len(rest)) for p in rest}}
    return BehavioralStrategy(team, moves)


SIMULATION_CONTESTS = pytest.mark.parametrize(
    "name, utility", [("card", None), ("ex1", None), ("ex3", "UM")], ids=["card", "ex1", "ex3-UM"]
)


class TestSimulationOracle:
    """``simulate_competitions`` against ``oracles.oracle_simulate``, which
    reads the moves afresh every round: the same draws give the same floats."""

    @SIMULATION_CONTESTS
    @pytest.mark.parametrize("seed", [0, 17, 2024])
    def test_draw_for_draw(self, name, utility, seed):
        spec = named_instance(name, utility)
        result = solve(spec)
        pairs = {
            "equilibrium": (result.strategy1, result.strategy2),
            "uniform": (uniform_strategy(spec, 1), uniform_strategy(spec, 2)),
            "mixed forms": (mixed_forms(spec, 1), mixed_forms(spec, 2)),
        }
        for label, (s1, s2) in pairs.items():
            estimate = simulate_competitions(spec, s1, s2, result.root_value, 1_500, seed)
            assert (estimate.mean, estimate.stderr) == oracle_simulate(
                spec, s1, s2, 1_500, seed
            ), label

    @SIMULATION_CONTESTS
    def test_each_class_read_once_per_team(self, name, utility, monkeypatch):
        spec = named_instance(name, utility)
        s1, s2 = uniform_strategy(spec, 1), uniform_strategy(spec, 2)
        reads = []
        real = solver._distribution_at

        def counted(spec, strategy, key):
            reads.append((strategy.team, key))
            return real(spec, strategy, key)

        monkeypatch.setattr(solver, "_distribution_at", counted)
        for _call in range(2):
            reads.clear()
            simulate_competitions(spec, s1, s2, F(0), 2_000, 5)
            assert reads and len(reads) == len(set(reads))
            assert {key for team, key in reads if team == 1} == {
                key for team, key in reads if team == 2
            }
