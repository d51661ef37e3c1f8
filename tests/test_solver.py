import random
from fractions import Fraction
from math import comb, factorial

import pytest

from teamcomp import solver
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

from oracles import oracle_game_value, oracle_history_class_value

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

    def test_terminal_error(self, ex1_spec):
        result = solve(ex1_spec)
        terminal = next(k for k in result.value_table if k.round_index == 2)
        with pytest.raises(TerminalClassError):
            stage_matrix(ex1_spec, result.value_table, terminal)


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

    def test_bellman_consistency(self):
        # Classes copied from a translate included: each holds exactly what
        # solving its own stage game returns, value and both mixtures.
        contests = [
            add_dominated(named_instance("ex4:4"), 2),
            add_dominated(named_instance("ex5:5"), 2),
            random_spec(random.Random("bellman-ue"), 3, 5, 5, bound=6, utility="UE"),
            random_spec(random.Random("bellman-um"), 3, 5, 5, bound=6, utility="UM"),
        ]
        for spec in contests:
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

    @pytest.mark.parametrize("utility", ["UE", "UM"])
    def test_translates_share_one_stage_game(self, monkeypatch, utility):
        # Under UE every win count at a round is a translate of the first, so
        # one stage game is solved per pair of played sets; under UM only the
        # decided win counts are, so fewer games than decision classes.
        spec = named_instance("ex3", utility)
        m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
        calls = []
        monkeypatch.setattr(
            solver, "solve_matrix", lambda game: calls.append(game) or solve_matrix(game)
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

    def test_budget_type(self, card_spec):
        with pytest.raises(ValidationError) as err:
            next(pure_meeting_grids(card_spec, budget=True))
        assert err.value.code == "PARSE"


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
