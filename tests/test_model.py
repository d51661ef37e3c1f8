import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from teamcomp import model
from teamcomp.matrix import MatrixGame
from teamcomp.model import (
    MAX_PLAYERS,
    GameSpec,
    StrengthMatrix,
    UtilityTable,
    ValidationError,
    document_from_spec,
    dumps_spec,
    loads_spec,
    make_spec,
    parse_rational,
    spec_from_document,
    utility_name,
    utility_ue,
    utility_um,
    validate_spec,
)
from teamcomp.instances import card_game, named_instance


class TestParseRational:
    def test_fraction_string(self):
        assert parse_rational("2/3") == Fraction(2, 3)

    def test_decimal_string_is_exact(self):
        assert parse_rational("0.5") == Fraction(1, 2)
        assert parse_rational("0.1") == Fraction(1, 10)  # not the binary float

    def test_integer(self):
        assert parse_rational(2) == Fraction(2)

    def test_normalized(self):
        q = parse_rational("4/8")
        assert q.numerator == 1 and q.denominator == 2

    def test_float_rejected(self):
        with pytest.raises(ValidationError):
            parse_rational(0.5)

    def test_bool_rejected(self):
        with pytest.raises(ValidationError):
            parse_rational(True)

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_rational("one half")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError):
            parse_rational("1/0")

    def test_exponent_limit(self):
        assert parse_rational("1e100000") == 10**100000
        assert parse_rational("1E-1_00_000") == Fraction(1, 10**100000)
        for text in ("1e100001", "1e-100001", "2.5e+0100001", "1e" + "9" * 5000):
            with pytest.raises(ValidationError) as err:
                parse_rational(text)
            assert err.value.code == "PARSE"

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=30))
    def test_round_trip_through_string(self, q):
        assert parse_rational(str(q)) == q


class TestUtilityTables:
    def test_ue_t2(self):
        assert utility_ue(2).values == (Fraction(-1), Fraction(0), Fraction(1))

    def test_ue_t3(self):
        assert utility_ue(3).values == (
            Fraction(-3, 2),
            Fraction(-1, 2),
            Fraction(1, 2),
            Fraction(3, 2),
        )

    def test_um_t3(self):
        assert utility_um(3).values == (
            Fraction(-1),
            Fraction(-1),
            Fraction(1),
            Fraction(1),
        )

    def test_um_t2_has_tie(self):
        assert utility_um(2).values == (Fraction(-1), Fraction(0), Fraction(1))

    def test_ue_equals_um_at_t2(self):
        assert utility_ue(2) == utility_um(2)

    @pytest.mark.parametrize("rounds", [1, 2, 3, 5, 8])
    def test_both_antisymmetric(self, rounds):
        assert utility_ue(rounds).antisymmetric
        assert utility_um(rounds).antisymmetric

    def test_size_error(self):
        with pytest.raises(ValidationError):
            utility_ue(0)
        with pytest.raises(ValidationError):
            utility_um(0)

    def test_round_type_error(self):
        for build in (utility_ue, utility_um):
            with pytest.raises(ValidationError) as err:
                build(2.0)
            assert err.value.code == "PARSE"

    @pytest.mark.parametrize("name", ["UE", "ue", " Um ", "\tUM\n"])
    def test_utility_name_canonical(self, name):
        assert utility_name(name) == name.strip().upper()

    @pytest.mark.parametrize("name", ["", "U E", "UX", "expected", 5, None, b"UE"])
    def test_utility_name_rejects(self, name):
        with pytest.raises(ValidationError) as err:
            utility_name(name)
        assert err.value.code == "PARSE"

    def test_empty_table(self):
        with pytest.raises(ValidationError) as err:
            UtilityTable.from_values([])
        assert err.value.code == "SHAPE"

    def test_threshold_table_not_antisymmetric(self):
        table = UtilityTable.from_values([-1, -1, 1, 1, 1])
        assert not table.antisymmetric

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=2, max_size=7))
    def test_antisymmetric_flag_matches_definition(self, values):
        table = UtilityTable.from_values(values)
        t_max = len(values) - 1
        expected = all(values[t] + values[t_max - t] == 0 for t in range(t_max + 1))
        assert table.antisymmetric == expected

    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=7))
    def test_monotone_flag_matches_definition(self, values):
        table = UtilityTable.from_values(values)
        expected = all(values[t + 1] >= values[t] for t in range(len(values) - 1))
        assert table.monotone == expected


class TestValidateSpec:
    def test_card_game_valid_and_antisymmetric(self, card_spec):
        spec = validate_spec(card_spec)
        assert spec is card_spec
        assert spec.rounds == 3 and spec.team1_size == 3 and spec.team2_size == 3
        assert spec.utility.antisymmetric

    def test_minimal_instance(self):
        spec = make_spec(1, [["1/2"]], "UE")
        assert validate_spec(spec) is spec
        assert spec.utility.antisymmetric

    def test_range_error(self):
        with pytest.raises(ValidationError) as err:
            make_spec(2, [[1, 0], [0, 2]], "UE")
        assert err.value.code == "RANGE"

    def test_size_error_too_few_players(self):
        with pytest.raises(ValidationError) as err:
            make_spec(3, [[1, 0], [0, 1]], utility_ue(3))
        assert err.value.code == "SIZE"

    def test_size_error_round_count(self):
        with pytest.raises(ValidationError) as err:
            GameSpec(0, StrengthMatrix.from_rows([[1]]), utility_ue(1))
        assert err.value.code == "SIZE"

    def test_size_error_max_players(self):
        rows = [[0] * (MAX_PLAYERS + 1) for _ in range(2)]
        with pytest.raises(ValidationError) as err:
            GameSpec(2, StrengthMatrix.from_rows(rows), utility_ue(2))
        assert err.value.code == "SIZE"

    def test_shape_error_utility_length(self):
        with pytest.raises(ValidationError) as err:
            GameSpec(2, StrengthMatrix.from_rows([[1, 0], [0, 1]]), utility_ue(3))
        assert err.value.code == "SHAPE"

    def test_replace_revalidates(self):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(card_game(), rounds=0)
        assert err.value.code == "SIZE"

    def test_direct_construction_checks_range(self):
        with pytest.raises(ValidationError) as err:
            GameSpec(1, StrengthMatrix(((Fraction(2),),)), utility_ue(1))
        assert err.value.code == "RANGE"

    @pytest.mark.parametrize(
        "entries, code",
        [
            (((0.5,),), "PARSE"),  # a float would make the solve inexact
            (((True,),), "PARSE"),
            ((), "SIZE"),
            (((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3),)), "SHAPE"),
            (((Fraction(1, 2),), (Fraction(1, 3), 1)), "SHAPE"),
            # Lists could change after the check, under the cached integer form.
            ([[Fraction(1, 2)], [Fraction(0)]], "SHAPE"),
            (((Fraction(1, 2),), [Fraction(0)]), "SHAPE"),
        ],
        ids=["float", "bool", "empty", "short-row", "long-row", "list-rows", "list-row"],
    )
    def test_direct_construction_checks_grid(self, entries, code):
        with pytest.raises(ValidationError) as err:
            GameSpec(1, StrengthMatrix(entries), utility_ue(1))
        assert err.value.code == code

    def test_direct_construction_checks_utility_type(self):
        # A list table could change after the check, as list rows could.
        for values, code in (((-0.5, 0.5), "PARSE"), ([Fraction(-1, 2), Fraction(1, 2)], "SHAPE")):
            with pytest.raises(ValidationError) as err:
                GameSpec(1, StrengthMatrix(((Fraction(1, 2),),)), UtilityTable(values))
            assert err.value.code == code

    @pytest.mark.parametrize(
        "build",
        [
            lambda: StrengthMatrix.from_rows(5),
            lambda: MatrixGame.from_rows(3),
            lambda: UtilityTable.from_values(5),
            lambda: UtilityTable.from_values("01"),
            lambda: UtilityTable.from_values({0: -1, 1: 1}),
            lambda: make_spec(1, 5, "UE"),
            lambda: make_spec(1, [[1]], 7),
            lambda: make_spec(1, [[1]], b"01"),
        ],
        ids=["grid-int", "payoff-int", "table-int", "table-str", "table-mapping",
             "spec-grid-int", "spec-table-int", "spec-table-bytes"],
    )
    def test_grid_and_table_must_be_arrays(self, build):
        # A str or bytes would be read character by character, a mapping by
        # its keys, and a number would end in an untyped TypeError.
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.code == "SHAPE"

    @pytest.mark.parametrize("rounds", [2.0, True], ids=["float", "bool"])
    def test_direct_construction_checks_round_type(self, rounds):
        # A bool would solve as T=1 and a float would fail deep in the solver.
        strength = StrengthMatrix(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
        with pytest.raises(ValidationError) as err:
            GameSpec(rounds, strength, utility_ue(2))
        assert err.value.code == "PARSE"

    @pytest.mark.parametrize("rounds", [2.0, "2", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("utility", ["UE", "UM"])
    def test_named_table_checks_round_type(self, rounds, utility):
        # T is checked before the named table is built from it.
        with pytest.raises(ValidationError) as err:
            make_spec(rounds, [[1, 0], [0, 1]], utility)
        assert err.value.code == "PARSE"

    def test_direct_construction_accepts_ints(self):
        spec = GameSpec(1, StrengthMatrix(((1,), (0,))), UtilityTable((0, 1)))
        assert spec.team1_size == 2

    def test_idempotent(self, ex3_um):
        assert validate_spec(validate_spec(ex3_um)) is ex3_um

    def test_only_model_calls_validate_spec(self):
        # A spec is checked where it is built; no function re-checks its input.
        callers = []
        for path in sorted(Path(model.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name == "validate_spec":
                        callers.append(path.name)
        assert "model.py" in callers  # the walk saw GameSpec.__post_init__
        assert [name for name in callers if name != "model.py"] == []

    def test_only_model_spells_the_contest_rules(self):
        # The whole-number rule (no bools) and the UE/UM name rule live in
        # model, and so does the team lookup: no conditional expression
        # elsewhere picks a team's roster size or played set.
        callers = []
        for path in sorted(Path(model.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.IfExp):
                    picks = {getattr(node.body, "attr", None), getattr(node.orelse, "attr", None)}
                    if picks in ({"team1_size", "team2_size"}, {"played1", "played2"}):
                        callers.append((path.name, "team"))
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) and node.func.attr == "upper":
                    callers.append((path.name, "upper"))
                if getattr(node.func, "id", "") == "isinstance" and any(
                    isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[-1])
                ):
                    callers.append((path.name, "bool"))
        assert {("model.py", "upper"), ("model.py", "bool")} <= set(callers)
        assert [call for call in callers if call[0] != "model.py"] == []

    def test_only_montecarlo_makes_floats(self):
        # Floats appear only in the Monte Carlo cross-check.
        callers = []
        for path in sorted(Path(model.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "float":
                    callers.append(path.name)
        assert "montecarlo.py" in callers
        assert [name for name in callers if name != "montecarlo.py"] == []

    def test_only_three_functions_build_random_streams(self):
        # Every random draw comes from a seeded ``random.Random`` built in one
        # of three places; nothing uses the module's shared generator
        # (``random.random``, ``random.choice``, ``random.seed``, ...).
        builders, shared = set(), []
        for path in sorted(Path(model.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.ImportFrom) and node.module == "random":
                        shared.append((path.name, node.lineno))
                    elif isinstance(node, ast.Call) and ast.unparse(node.func) == "random.Random":
                        builders.add((path.name, getattr(top, "name", None)))
                    elif (
                        isinstance(node, ast.Attribute)
                        and getattr(node.value, "id", "") == "random"
                        and node.attr != "Random"
                    ):
                        shared.append((path.name, node.lineno))
        assert shared == []
        assert builders == {
            ("cli.py", "_seeded"),
            ("explorer.py", "generate_instance"),
            ("montecarlo.py", "simulate_competitions"),
        }

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValidationError) as err:
            StrengthMatrix.from_rows([[1, 0], [0]])
        assert err.value.code == "SHAPE"


class TestSpecDocuments:
    def test_round_trip(self, ex3_um):
        doc = document_from_spec(ex3_um)
        assert spec_from_document(doc) == ex3_um

    def test_dumps_loads(self, card_spec):
        assert loads_spec(dumps_spec(card_spec)) == card_spec

    def test_named_utilities(self):
        spec = spec_from_document({"T": 2, "P": [["1", "0"], ["0", "1"]], "U": "UM"})
        assert spec.utility == utility_um(2)

    def test_json_decimal_literal_is_exact(self):
        spec = loads_spec('{"T": 1, "P": [[0.1]], "U": "UE"}')
        assert spec.strength.win_prob(0, 0) == Fraction(1, 10)

    def test_missing_field(self):
        with pytest.raises(ValidationError):
            spec_from_document({"T": 2, "P": [[1, 0], [0, 1]]})

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"T": "2", "P": [["1", "0"], ["0", "1"]], "U": "UE"}',
            '{"T": 1, "P": 5, "U": "UE"}',
            '{"T": 1, "P": [["1"]], "U": 5}',
            # The array rule runs before the empty-grid check (SIZE).
            '{"T": 1, "P": null, "U": "UE"}',
        ],
        ids=["array", "str-T", "number-P", "number-U", "null-P"],
    )
    def test_refused_documents(self, text):
        with pytest.raises(ValidationError) as err:
            loads_spec(text)
        assert err.value.code == "SHAPE"

    def test_wrong_utility_length(self):
        with pytest.raises(ValidationError):
            spec_from_document({"T": 2, "P": [[1, 0], [0, 1]], "U": ["1", "0"]})

    def test_mixed_entry_spellings(self):
        spec = spec_from_document(
            {"T": 1, "P": [["1/3", "0.25", 1]], "U": ["-1/2", "1/2"]}
        )
        assert spec.strength.row(0) == (Fraction(1, 3), Fraction(1, 4), Fraction(1))

    def test_round_count_past_roster_rejected_before_named_table(self, monkeypatch):
        # A T+1-entry table for a T the roster cannot play is never built;
        # the error is the one validate_spec gives.
        def refuse(rounds):
            raise AssertionError(f"built a {rounds + 1}-entry utility table")

        monkeypatch.setattr(model, "utility_ue", refuse)
        with pytest.raises(ValidationError) as err:
            loads_spec('{"T": 1000000, "P": [["1"]], "U": "UE"}')
        assert err.value.code == "SIZE"
        assert str(err.value) == "T=1000000 needs at least T players per team (have 1 and 1)"

    def test_derived_specs_round_trip(self, ex3_um):
        # Specs produced by roster surgery and by the threshold-contest
        # builder re-parse to identical objects.
        from teamcomp.analysis import GammaParams, abandon, add_dominated, gamma_game

        for spec in (
            abandon(ex3_um, 1, [3]),
            add_dominated(ex3_um, 2),
            gamma_game(GammaParams(4, 1, 0)),
        ):
            assert loads_spec(dumps_spec(spec)) == spec


class TestNamedInstances:
    def test_all_names_build_and_validate(self):
        for name in ["card", "ex1", "ex2", "ex3", "ex4:3", "ex5:4"]:
            validate_spec(named_instance(name))

    def test_ex4_shape(self):
        spec = named_instance("ex4:3")
        assert (spec.rounds, spec.team1_size, spec.team2_size) == (3, 3, 5)

    def test_ex5_shape(self):
        spec = named_instance("ex5:4")
        assert (spec.rounds, spec.team1_size, spec.team2_size) == (4, 4, 6)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            named_instance("nope")

    @pytest.mark.parametrize(
        "name",
        [5, None, b"card", ["card"], "ex4:x", "ex5:", "ex4:2.5"]
        # int() reads each of these (2, an Arabic-Indic 3, 3, 10).
        + ["ex4:+2", "ex4:\u0663", "ex4: 3", "ex4:1_0"],
    )
    def test_refused_names(self, name):
        with pytest.raises(ValidationError) as err:
            named_instance(name)
        assert err.value.code == "PARSE"

    def test_round_count_past_int_to_string_limit(self):
        # int() raises a bare ValueError on 5,000 digits.
        with pytest.raises(ValidationError) as err:
            named_instance("ex4:" + "1" * 5000)
        assert err.value.code == "PARSE"
