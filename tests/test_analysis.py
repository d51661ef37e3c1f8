import random
from fractions import Fraction
from math import ceil, comb, floor

import pytest

from teamcomp import analysis
from teamcomp.analysis import (
    GammaParams,
    abandon,
    abandonment_delta,
    add_dominated,
    check_corollary1,
    check_lemma2,
    check_lemma5,
    check_lemma6,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    classify,
    gamma_game,
    top_block_uniform_strategy,
    weaker_team1,
)
from teamcomp.explorer import (
    random_square_spec,
    random_strength_rows,
    random_transitive_spec,
    random_weak_tail_spec,
)
from teamcomp.model import (
    PreconditionError,
    RedundantPlayersError,
    StrengthMatrix,
    ValidationError,
    make_spec,
)
from teamcomp.solver import class_count, solve
from teamcomp.instances import named_instance

F = Fraction


class TestClassify:
    def test_ex2_flags(self, ex2_spec):
        team1, _ = classify(ex2_spec)
        assert team1.dominated == (False, False, True)
        assert team1.weakest == (False, False, True)
        assert not team1.transitive
        assert team1.order is None

    def test_identical_rows(self):
        spec = make_spec(2, [[0, 0], [0, 0]], "UE")
        team1, _ = classify(spec)
        assert team1.transitive
        assert team1.weakest == (True, True)
        assert team1.dominated == (True, True)

    def test_chain(self):
        spec = make_spec(2, [[1, 1], [1, 0], [0, 0]], "UE")
        team1, _ = classify(spec)
        assert team1.transitive
        assert team1.order == (2, 1, 0)  # weakest first
        assert team1.weakest == (False, False, True)
        assert team1.dominated == (False, False, True)

    def test_team2_dominated_is_all_ones_column(self):
        spec = make_spec(2, [[1, 0, 1], [1, 1, 0]], "UE")
        _, team2 = classify(spec)
        assert team2.dominated == (True, False, False)

    def test_team2_chain(self):
        # Columns weakest-first: B1 loses every match, then B3, then B2.
        spec = make_spec(2, [[1, 0, F(1, 2)], [1, F(1, 2), F(1, 2)], [1, 0, 0]], "UE")
        _, team2 = classify(spec)
        assert team2.weakest == (True, False, False)
        assert team2.dominated == (True, False, False)
        assert team2.transitive
        assert team2.order == (0, 2, 1)

    def test_team2_tied_columns(self):
        # B2 and B3 are identical always-losing columns; the tie keeps index
        # order and both are weakest.
        spec = make_spec(2, [[0, 1, 1], [F(1, 2), 1, 1]], "UE")
        _, team2 = classify(spec)
        assert team2.weakest == (False, True, True)
        assert team2.dominated == (False, True, True)
        assert team2.transitive
        assert team2.order == (1, 2, 0)

    def test_team2_incomparable_columns(self):
        spec = make_spec(2, [[1, 0], [0, 1]], "UE")
        _, team2 = classify(spec)
        assert team2.weakest == (False, False)
        assert team2.dominated == (False, False)
        assert not team2.transitive
        assert team2.order is None

    def test_mutually_weaker_rows_are_identical(self):
        rng = random.Random("weaker")
        for _ in range(20):
            rows = random_strength_rows(rng, 3, 3, 4)
            strength = StrengthMatrix(tuple(tuple(r) for r in rows))
            for i in range(3):
                for j in range(3):
                    if weaker_team1(strength, i, j) and weaker_team1(strength, j, i):
                        assert strength.row(i) == strength.row(j)

    def test_row_permutation_permutes_flags(self, ex2_spec):
        permuted = make_spec(
            2,
            [list(ex2_spec.strength.row(i)) for i in (2, 0, 1)],
            ex2_spec.utility,
        )
        team1, _ = classify(permuted)
        assert team1.dominated == (True, False, False)
        assert not team1.transitive


class TestRosterSurgery:
    def test_abandon_last_row(self, ex3_um):
        trimmed = abandon(ex3_um, 1, [3])
        assert trimmed.strength.entries == (
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        )

    def test_abandon_nothing(self, ex3_um):
        assert abandon(ex3_um, 1, []) == ex3_um

    def test_abandon_too_many(self):
        spec = make_spec(2, [[1, 0], [0, 1], [1, 1]], "UE")
        with pytest.raises(ValidationError) as err:
            abandon(spec, 1, [0, 1])
        assert err.value.code == "SIZE"

    def test_abandon_team2_column(self, ex1_spec):
        trimmed = abandon(ex1_spec, 2, [2])
        assert trimmed.team2_size == 2
        assert trimmed.strength.entries == ((F(0), F(0)), (F(1), F(1)))

    def test_delta_ex3(self, ex3_um, ex3_ue):
        assert abandonment_delta(ex3_um, 1, [3]) == F(2, 3)
        assert abandonment_delta(ex3_ue, 1, [3]) == F(0)

    def test_delta_ex2_positive(self, ex2_spec):
        # Value with the all-losing spare is -3/4 (pinned via the raw-history
        # oracle in the acceptance suite) against -1 without it.
        assert abandonment_delta(ex2_spec, 1, [2]) == F(1, 4)

    def test_delta_team2_sign(self, ex1_spec):
        # Team 2 gives up its strong spare defender B3.  Its own utility falls
        # from 1/3 to 0 (without B3 each side wins exactly one round), so the
        # delta, measured in Team-2 utility, is 1/3.
        assert abandonment_delta(ex1_spec, 2, [2]) == F(1, 3)

    def test_add_dominated_shapes(self):
        base = named_instance("ex4:3")
        grown = add_dominated(base, 2)
        assert grown.team1_size == 5
        assert grown.strength.entries[3] == (F(0),) * 5
        assert add_dominated(base, 0) == base

    def test_add_dominated_size_error(self):
        base = named_instance("ex4:3")
        with pytest.raises(ValidationError):
            add_dominated(base, 100)

    @pytest.mark.parametrize("count", [1.5, True], ids=["float", "bool"])
    def test_add_dominated_count_type(self, card_spec, count):
        with pytest.raises(ValidationError) as err:
            add_dominated(card_spec, count)
        assert err.value.code == "PARSE"

    def test_ladder_over_player_limit(self):
        with pytest.raises(ValidationError) as err:
            named_instance("ex4:21")
        assert err.value.code == "SIZE"

    def test_recruiting_never_lowers_value(self):
        rng = random.Random("monotone-recruits")
        for _ in range(4):
            spec = make_spec(2, random_strength_rows(rng, 2, 3, 4), "UM")
            values = [solve(add_dominated(spec, k)).root_value for k in range(3)]
            assert values == sorted(values)


class TestGammaGames:
    def test_example5_equivalence(self):
        game = gamma_game(GammaParams(3, 0, 0))
        assert game.rounds == 3 and game.team1_size == 4 and game.team2_size == 4
        recruited = add_dominated(named_instance("ex5:3"), 1)
        assert game == recruited

    def test_threshold_met_is_constant_win(self):
        game = gamma_game(GammaParams(3, 2, 0))
        assert solve(game).root_value == F(1)

    def test_small_parameters(self):
        game = gamma_game(GammaParams(2, 0, 1))
        assert game.rounds == 1 and game.team1_size == 2
        assert game.utility.values == (F(-1), F(1))

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            gamma_game(GammaParams(2, 3, 0))
        with pytest.raises(ValidationError):
            gamma_game(GammaParams(0, 0, 0))

    @pytest.mark.parametrize(
        "params, code",
        [((2.0, 0, 0), "PARSE"), ((True, 0, 0), "PARSE"), ((3, "0", 0), "PARSE"),
         ((0, 0, 0), "SIZE"), ((3, -1, 0), "SIZE"), ((3, 0, -1), "SIZE")],
    )
    def test_parameter_types(self, params, code):
        with pytest.raises(ValidationError) as err:
            gamma_game(GammaParams(*params))
        assert err.value.code == code

    def test_roundless_corner_rejected(self):
        with pytest.raises(ValidationError):
            gamma_game(GammaParams(3, 2, 1))

    def test_even_scale_not_antisymmetric(self):
        assert not gamma_game(GammaParams(4, 0, 0)).utility.antisymmetric


class TestTheorem1:
    def test_card_game_passes(self, card_spec):
        report = check_theorem1(card_spec)
        assert report.passed
        assert report.values["root_value"] == F(-1, 3)

    def test_random_squares_pass(self):
        rng = random.Random("t1-unit")
        for _ in range(5):
            rounds = rng.choice([2, 3])
            spec = random_square_spec(rng, rounds, 6, rng.choice(["UE", "UM"]))
            assert check_theorem1(spec).passed

    def test_redundant_error(self, ex1_spec):
        with pytest.raises(RedundantPlayersError):
            check_theorem1(ex1_spec)

    def test_one_stage_game_per_decision_class(self, monkeypatch):
        rounds = 3
        spec = random_square_spec(random.Random("t1-classes"), rounds, 4, "UM")
        built = []
        stage_matrix = analysis.stage_matrix

        def counting(game_spec, values, key):
            built.append(key)
            return stage_matrix(game_spec, values, key)

        monkeypatch.setattr(analysis, "stage_matrix", counting)
        check_theorem1(spec)
        terminal = comb(rounds, rounds) ** 2 * (rounds + 1)
        assert len(built) == class_count(rounds, rounds, rounds) - terminal
        assert len(set(built)) == len(built)


class TestTheorem2:
    def test_random_transitive_pass(self):
        rng = random.Random("t2-unit")
        for _ in range(3):
            rounds = rng.choice([2, 3])
            spec = random_transitive_spec(
                rng, rounds, rounds + rng.randint(0, 2), rounds + rng.randint(0, 2), 6,
                rng.choice(["UE", "UM"]),
            )
            assert check_theorem2(spec, 1).passed
            assert check_theorem2(spec, 2).passed

    def test_corollary_composite(self):
        rng = random.Random("cor1-unit")
        spec = random_transitive_spec(rng, 2, 4, 3, 6, "UE")
        assert check_corollary1(spec).passed

    def test_top_block_strategy_support(self):
        rng = random.Random("top-block")
        spec = random_transitive_spec(rng, 2, 4, 2, 6, "UE")
        strongest_two = set(classify(spec)[0].order[::-1][:2])
        strategy = top_block_uniform_strategy(spec, 1)
        for dist in strategy.moves.values():
            assert set(dist) <= strongest_two
            assert sum(dist.values()) == 1

    def test_nontransitive_precondition(self, ex2_spec):
        with pytest.raises(PreconditionError):
            check_theorem2(ex2_spec, 1)

    @pytest.mark.parametrize("team", [0, 3])
    def test_missing_team_rejected_before_solving(self, team, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(analysis, "solve", refuse)
        spec = random_transitive_spec(random.Random(1), 2, 2, 2, 6, "UE")
        for call in (check_theorem2, top_block_uniform_strategy):
            with pytest.raises(ValidationError) as err:
                call(spec, team)
            assert err.value.code == "PARSE"

    def test_nonmonotone_precondition(self):
        spec = make_spec(2, [[1, 1], [1, 0], [0, 0]], ["1", "0", "1"])
        with pytest.raises(PreconditionError):
            check_theorem2(spec, 1)


class TestTheorem3:
    def test_ex3_ue_passes(self, ex3_ue):
        report = check_theorem3(ex3_ue)
        assert report.passed
        assert report.values["with_tail"] == F(-1, 2)
        assert report.values["without_tail"] == F(-1, 2)

    def test_ex3_um_reports_inequality(self, ex3_um):
        report = check_theorem3(ex3_um)
        assert not report.passed
        assert report.values["with_tail"] == F(0)
        assert report.values["without_tail"] == F(-2, 3)
        assert not report.params["utility_is_UE"]

    def test_random_weak_tails_pass(self):
        rng = random.Random("t3-unit")
        for _ in range(3):
            rounds = rng.choice([2, 3])
            spec = random_weak_tail_spec(rng, rounds, rounds + rng.randint(1, 2), 6)
            assert check_theorem3(spec).passed

    def test_structural_preconditions(self, card_spec, ex1_spec):
        with pytest.raises(PreconditionError):
            check_theorem3(card_spec)  # no spares on Team 1
        with pytest.raises(PreconditionError):
            check_theorem3(
                make_spec(2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]], "UE")
            )  # Team 2 has a spare
        with pytest.raises(PreconditionError):
            check_theorem3(
                make_spec(2, [["1/2", "1/2"], ["1/2", "1/2"], [1, 0]], "UE")
            )  # tail not weaker


class TestTheorem4:
    def test_t2_ue(self):
        report = check_theorem4(2, "UE")
        assert report.passed
        assert report.values["recruits_0"] == F(-1)
        assert report.values["recruits_1"] > F(-1)
        assert report.values["recruits_2"] == report.values["recruits_1"]

    def test_t3_ue(self):
        report = check_theorem4(3, "UE")
        assert report.passed
        assert report.values["recruits_1"] == F(-3, 2)
        assert report.values["recruits_2"] > F(-3, 2)

    def test_t3_um(self):
        report = check_theorem4(3, "UM")
        assert report.passed
        assert report.values["recruits_0"] == F(-1)
        assert report.values["recruits_1"] > F(-1)
        assert report.values["recruits_2"] == report.values["recruits_1"]

    def test_t5_ue_sharp_count_lifts_floor(self):
        # T-1 = 4 recruits lift ex4:5 off its floor of -5/2; 3 recruits do not.
        spec = add_dominated(named_instance("ex4:5"), 4)
        assert class_count(spec.team1_size, spec.team2_size, spec.rounds) == 206_911
        assert solve(spec).root_value == F(-123, 50)

    def test_bad_variant(self):
        with pytest.raises(ValidationError):
            check_theorem4(3, "XX")

    def test_too_few_rounds(self):
        with pytest.raises(PreconditionError):
            check_theorem4(1, "UE")


class TestLemmas:
    def test_lemma2_small(self):
        rng = random.Random("l2-unit")
        spec = random_square_spec(rng, 2, 6, "UE")
        report = check_lemma2(spec)
        assert report.passed
        assert report.values["matching_probability"] == F(1, 2)

    def test_lemma2_redundant_error(self, ex1_spec):
        with pytest.raises(RedundantPlayersError):
            check_lemma2(ex1_spec)

    def test_lemma5_enumerated(self):
        rng = random.Random("l5-unit")
        spec = random_weak_tail_spec(rng, 2, 3, 6)
        report = check_lemma5(spec)
        assert report.passed
        assert report.params["enumeration_complete"]
        assert report.values["max_meeting_probability"] <= F(1, 2)

    def test_lemma5_dp_only_when_budget_blown(self):
        rng = random.Random("l5-dp")
        spec = random_weak_tail_spec(rng, 2, 4, 6)
        report = check_lemma5(spec, enum_budget=5)
        assert report.passed
        assert not report.params["enumeration_complete"]
        assert report.params["strategies_checked"] == 0

    def test_lemma5_precondition(self):
        spec = make_spec(2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]], "UE")
        with pytest.raises(PreconditionError):
            check_lemma5(spec)

    def test_lemma6_small_grid(self):
        report = check_lemma6(3)
        assert report.passed
        # Condition grid for C <= 3: sum over C of (ceil+1)*(floor+1) entries.
        expected = sum(
            (ceil(c / 2) + 1) * (floor(c / 2) + 1) for c in range(1, 4)
        )
        assert len(report.values) == expected
        assert all(v > F(-1) for v in report.values.values())

    def test_lemma6_threshold_met_cases(self):
        report = check_lemma6(4)
        for c in range(1, 5):
            a = ceil(c / 2)
            for b in range(floor(c / 2) + 1):
                assert report.values[f"C{c}_a{a}_b{b}"] == F(1)

    def test_lemma6_grid_size_type(self):
        with pytest.raises(ValidationError) as err:
            check_lemma6(2.0)
        assert err.value.code == "PARSE"


class TestReports:
    def test_document_shape(self, card_spec):
        doc = check_theorem1(card_spec).to_document()
        assert set(doc) == {"check", "params", "pass", "witnesses", "values"}
        assert doc["pass"] is True
        assert doc["values"]["root_value"] == "-1/3"
