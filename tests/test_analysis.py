import dataclasses
import random
from fractions import Fraction
from math import ceil, comb, floor
from types import SimpleNamespace

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
    BudgetExceeded,
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

    @pytest.mark.parametrize("player", ["1", True, 1.0])
    def test_abandon_player_type(self, card_spec, player):
        with pytest.raises(ValidationError) as err:
            abandon(card_spec, 1, [player])
        assert err.value.code == "PARSE"

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
        report = check_theorem4(5, "UE")
        assert report.passed
        assert report.values == {
            "recruits_3": F(-5, 2),
            "recruits_4": F(-123, 50),
            "recruits_5": F(-123, 50),
        }

    def test_t5_um(self):
        report = check_theorem4(5, "UM")
        assert report.passed
        assert report.values == {
            "recruits_1": F(-1),
            "recruits_2": F(-299, 300),
            "recruits_3": F(-299, 300),
        }

    def test_bad_variant(self):
        with pytest.raises(ValidationError):
            check_theorem4(3, "XX")

    def test_too_few_rounds(self):
        with pytest.raises(PreconditionError):
            check_theorem4(1, "UE")

    @pytest.mark.parametrize(
        "rounds, code", [("3", "PARSE"), (2.0, "PARSE"), (True, "PARSE"), (0, "SIZE"), (-3, "SIZE")]
    )
    def test_round_count_type(self, rounds, code):
        with pytest.raises(ValidationError) as err:
            check_theorem4(rounds, "UE")
        assert err.value.code == code


class TestLemmas:
    def test_lemma2_small(self):
        rng = random.Random("l2-unit")
        spec = random_square_spec(rng, 2, 6, "UE")
        report = check_lemma2(spec)
        assert report.passed
        assert report.values["matching_probability"] == F(1, 2)

    def test_lemma2_budget_before_uniform_table(self, monkeypatch):
        # A T=4 square contest has more Team-2 pure strategies than the default
        # budget.  The enumeration refuses it before Team 1's uniform strategy,
        # a table over every decision class, is built.
        def refuse(*args):
            raise AssertionError("check_lemma2 built the uniform table before the budget check")

        monkeypatch.setattr(analysis, "uniform_strategy", refuse)
        spec = random_square_spec(random.Random("l2-budget"), 4, 6, "UE")
        with pytest.raises(BudgetExceeded, match="pure strategy enumeration"):
            check_lemma2(spec)

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

    def test_lemma5_grids_from_one_walk(self, monkeypatch):
        # The per-strategy grids come from the shared prefix-tree walk, not
        # from one forward pass per strategy.
        def refuse(*args):
            raise AssertionError("check_lemma5 ran a per-strategy forward pass")

        monkeypatch.setattr(analysis, "meeting_probabilities", refuse)
        spec = random_weak_tail_spec(random.Random("l5-walk"), 2, 4, 6)
        report = check_lemma5(spec)
        assert report.passed
        assert report.params["enumeration_complete"]
        assert report.params["strategies_checked"] > 1

    def test_lemma5_ex3_report(self, ex3_um):
        report = check_lemma5(ex3_um)
        assert report.to_document() == {
            "check": "lemma5",
            "params": {"T": 3, "m": 4, "strategies_checked": 6336, "enumeration_complete": True},
            "pass": True,
            "witnesses": [],
            "values": {"bound": "1/3", "max_meeting_probability": "1/3"},
        }

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


def _shift_root(monkeypatch, pick, shift):
    """Make ``analysis.solve`` add ``shift`` to the root value of every
    contest ``pick`` selects."""
    real = analysis.solve

    def shifted(spec, *args, **kwargs):
        result = real(spec, *args, **kwargs)
        if not pick(spec):
            return result
        return dataclasses.replace(result, root_value=result.root_value + shift)

    monkeypatch.setattr(analysis, "solve", shifted)


class TestCheckersCanFail:
    """Each checker reports a witness when one name it reads lies."""

    def test_theorem1_class_label(self, card_spec, monkeypatch):
        real = analysis.best_col_response_value
        monkeypatch.setattr(
            analysis, "best_col_response_value", lambda game, mix: real(game, mix) - 1
        )
        report = check_theorem1(card_spec)
        assert report.passed is False
        assert "k=0 X=- Y=- w=0" in report.witnesses
        assert "k=1 X=A1 Y=B2 w=0" in report.witnesses

    def test_theorem2_value_after_abandoning(self, monkeypatch):
        spec = random_transitive_spec(random.Random("cor1-unit"), 2, 4, 3, 6, "UE")
        _shift_root(monkeypatch, lambda s: s.team1_size == 2, F(1))
        report = check_theorem2(spec, 1)
        value = report.values["value"]
        assert report.passed is False
        assert report.witnesses == [
            f"value changed after abandoning 2 weak players: {value} vs {value + 1}"
        ]

    @pytest.mark.parametrize(
        "team, name, root_witnesses",
        [
            (1, "row_dominates", ["A2 fails to dominate A3", "A2 fails to dominate A4"]),
            (2, "col_dominates", ["B2 fails to dominate B1"]),
        ],
    )
    def test_theorem2_fails_to_dominate(self, monkeypatch, team, name, root_witnesses):
        spec = random_transitive_spec(random.Random("cor1-unit"), 2, 4, 3, 6, "UE")
        monkeypatch.setattr(analysis, name, lambda game, a, b: False)
        report = check_theorem2(spec, team)
        assert report.passed is False
        assert all(" fails to dominate " in w for w in report.witnesses)
        at_root = [w for w in report.witnesses if w.startswith("k=0 X=- Y=- w=0: ")]
        assert at_root == [f"k=0 X=- Y=- w=0: {w}" for w in root_witnesses]

    def test_corollary1_nonmonotone_precondition(self):
        spec = make_spec(2, [[1, 1], [1, 0], [0, 0]], ["1", "0", "1"])
        with pytest.raises(PreconditionError) as err:
            check_corollary1(spec)
        assert err.value.code == "PRECOND"

    def test_corollary1_top_block_guarantee(self, monkeypatch):
        spec = random_transitive_spec(random.Random("cor1-unit"), 2, 4, 3, 6, "UE")
        real = analysis.evaluate_fixed
        monkeypatch.setattr(analysis, "evaluate_fixed", lambda s, fixed: real(s, fixed) + 1)
        report = check_corollary1(spec)
        value = report.values["root_value"]
        assert report.passed is False
        assert report.witnesses == [
            f"team {team} top-block uniform guarantees {value + 1}, equilibrium value is {value}"
            for team in (1, 2)
        ]

    def test_lemma2_skewed_matchings(self, monkeypatch):
        real = analysis.matching_distribution

        def skewed(spec, strategy1, strategy2):
            dist = real(spec, strategy1, strategy2)
            first, second = list(dist)[:2]
            return {**dist, first: dist[first] + dist[second], second: F(0)}

        monkeypatch.setattr(analysis, "matching_distribution", skewed)
        spec = random_square_spec(random.Random("l2-unit"), 2, 6, "UE")
        report = check_lemma2(spec)
        assert report.passed is False
        assert report.witnesses == [
            "strategy #1 skews the matching distribution",
            "strategy #2 skews the matching distribution",
        ]

    def _lemma5_peak(self, monkeypatch):
        monkeypatch.setattr(
            analysis,
            "max_meeting_probability",
            lambda spec, i, j: F(1, spec.rounds) + F(1, 100),
        )
        return random_weak_tail_spec(random.Random("l5-unit"), 2, 3, 6)

    def test_lemma5_peak_above_bound(self, monkeypatch):
        report = check_lemma5(self._lemma5_peak(monkeypatch))
        assert report.passed is False
        assert len(report.witnesses) == 6
        assert report.witnesses[0] == "A1 can meet B1 with probability 51/100 > 1/2"
        assert report.values["max_meeting_probability"] == F(51, 100)

    def test_lemma5_grid_above_bound(self, monkeypatch):
        def one_grid(spec, budget):
            yield [[F(0), F(0)], [F(0), F(3, 4)], [F(0), F(0)]]

        monkeypatch.setattr(analysis, "pure_meeting_grids", one_grid)
        report = check_lemma5(random_weak_tail_spec(random.Random("l5-unit"), 2, 3, 6))
        assert report.passed is False
        assert report.witnesses == ["pure strategy #1 meets (A2, B2) with probability 3/4 > 1/2"]
        assert report.params["strategies_checked"] == 1

    def test_theorem3_carries_lemma5_witnesses(self, monkeypatch):
        spec = self._lemma5_peak(monkeypatch)
        report = check_theorem3(spec)
        assert report.passed is False
        assert report.witnesses == check_lemma5(spec).witnesses
        assert report.values["with_tail"] == report.values["without_tail"]

    @pytest.mark.parametrize(
        "sizes, shift, witness",
        [
            ({2}, F(1), "value with 0 recruits is 0, expected -1"),
            ({3, 4}, F(-1, 4), "value with 1 recruits is -1, expected > -1"),
            ({4}, F(1), "extra recruit changed the value: -3/4 vs 1/4"),
        ],
    )
    def test_theorem4_witnesses(self, monkeypatch, sizes, shift, witness):
        # ex4:2 fields two players, so r recruits make a Team 1 of 2 + r.  The
        # second case moves the last two roots together, so only one claim breaks.
        _shift_root(monkeypatch, lambda s: s.team1_size in sizes, shift)
        report = check_theorem4(2, "UE")
        assert report.passed is False
        assert report.witnesses == [witness]

    def test_lemma6_root_at_minus_one(self, monkeypatch):
        _shift_root(monkeypatch, lambda s: True, F(-2))
        report = check_lemma6(1)
        assert report.passed is False
        assert report.witnesses == ["c=1 a=0 b=0: value -1 is not above -1"]

    def test_lemma6_met_threshold_not_won(self, monkeypatch):
        met = gamma_game(GammaParams(2, 1, 0))
        _shift_root(monkeypatch, lambda s: s == met, F(-1, 2))
        report = check_lemma6(2)
        assert report.passed is False
        assert "c=2 a=1 b=0: threshold already met but value is 1/2" in report.witnesses

    def test_lemma6_looser_threshold_lowers_value(self, monkeypatch):
        tight = gamma_game(GammaParams(2, 0, 0))
        _shift_root(monkeypatch, lambda s: s == tight, F(5, 2))
        report = check_lemma6(2)
        assert report.passed is False
        assert report.witnesses == ["c=2 a=0 b=0: loosening the threshold lowered the value"]

    def test_lemma6_diagonal_cell(self, monkeypatch):
        real = analysis.stage_matrix

        def raised(spec, values, key):
            payoff = [list(row) for row in real(spec, values, key).payoff]
            payoff[0][0] += 1
            return SimpleNamespace(payoff=payoff)

        monkeypatch.setattr(analysis, "stage_matrix", raised)
        report = check_lemma6(2)
        assert report.passed is False
        assert report.witnesses == ["c=2 a=0 b=0: diagonal cell 0 is 2, reduced contest is worth 1"]
