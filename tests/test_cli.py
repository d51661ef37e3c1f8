import argparse
import json

import pytest

from teamcomp import analysis, cli, explorer
from teamcomp.cli import main
from teamcomp.model import document_from_spec, loads_spec
from teamcomp.instances import named_instance
from teamcomp.solver import DEFAULT_CLASS_BUDGET, class_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_card_example(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--example", "card")
        assert code == 0
        doc = json.loads(out)
        assert doc["root_value"] == "-1/3"
        assert doc["antisymmetric_utility"] is True

    def test_ex3_um(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--example", "ex3", "--utility", "UM")
        assert code == 0
        assert json.loads(out)["root_value"] == "0"

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document_from_spec(named_instance("ex1"))))
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert json.loads(out)["root_value"] == "-1/3"

    def test_no_spec_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "solve")
        assert code == 2
        assert out == ""
        assert err == "error[PARSE]: provide a spec file or --example NAME\n"

    def test_full_table(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--example", "ex1", "--full")
        assert code == 0
        doc = json.loads(out)
        assert any(
            entry["X"] == [] and entry["Y"] == [] and entry["value"] == "-1/3"
            for entry in doc["value_table"]
        )

    def test_malformed_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"T": 2, "P": [["1", "0"], ["0"]], "U": "UE"}')
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "P row" in err
        path.write_text('{"T": 1, "P": [1, 2], "U": "UE"}')
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "error[SHAPE]" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "error[PARSE]" in err

    def test_huge_out_of_range_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"T": 1, "P": [["1e5000"]], "U": "UE"}')
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "error[RANGE]: P[1][1]" in err

    def test_overlong_integer_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"T": 1, "P": [[1]], "U": [0, ' + "1" * 5000 + "]}")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert "error[PARSE]" in err

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert "error[PARSE]" in err

    @pytest.mark.parametrize("cell", ['"1e100001"', "1e100001"], ids=["string", "literal"])
    def test_huge_exponent_exits_2(self, capsys, tmp_path, cell):
        path = tmp_path / "bad.json"
        path.write_text('{"T": 1, "P": [["1"]], "U": [0, ' + cell + "]}")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert "error[PARSE]" in err

    def test_utility_with_spec_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document_from_spec(named_instance("ex1"))))
        code, out, err = run_cli(capsys, "solve", str(path), "--utility", "UM")
        assert code == 2
        assert out == ""
        assert "error[PARSE]" in err

    def test_spec_file_with_example_exits_2(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document_from_spec(named_instance("ex1"))))
        code, out, err = run_cli(capsys, "solve", str(path), "--example", "card")
        assert code == 2
        assert out == ""
        assert "error[PARSE]" in err

    def test_utility_with_other_example_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--example", "card", "--utility", "UE")
        assert code == 2
        assert out == ""
        assert "error[PARSE]" in err

    def test_out_of_range_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"T": 2, "P": [["1", "0"], ["0", "2"]], "U": "UE"}')
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "RANGE" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "/nonexistent/spec.json")
        assert code == 2

    def test_negative_budget_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--example", "card", "--budget", "-1")
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err

    def test_budget_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--example", "card", "--budget", "3")
        assert code == 3
        assert "BUDGET" in err


class TestOtherCommands:
    def test_best_response_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys, "best-response", "--example", "ex1", "--team", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "-1/2"
        assert doc["equilibrium_value"] == "-1/3"

    def test_best_response_equilibrium(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "best-response", "--example", "card", "--team", "2",
            "--strategy", "equilibrium",
        )
        doc = json.loads(out)
        assert doc["value"] == doc["equilibrium_value"] == "-1/3"

    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--example", "ex2")
        assert code == 0
        doc = json.loads(out)
        assert doc["team1"]["dominated"] == ["A3"]
        assert doc["team1"]["transitive"] is False

    def test_abandon_delta(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "abandon-delta", "--example", "ex3", "--utility", "UM",
            "--team", "1", "--players", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == "2/3"
        assert doc["abandoned"] == ["A4"]

    def test_abandon_delta_repeated_player_listed_once(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "abandon-delta", "--example", "ex3", "--utility", "UM",
            "--team", "1", "--players", "4,4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["abandoned"] == ["A4"]
        assert doc["delta"] == "2/3"

    def test_abandon_delta_names_missing_player(self, capsys):
        for team, label in (("1", "A9"), ("2", "B9")):
            code, out, err = run_cli(
                capsys,
                "abandon-delta", "--example", "ex3", "--utility", "UM",
                "--team", team, "--players", "9",
            )
            assert code == 2
            assert out == ""
            assert err == f"error[INDEX]: no player {label} on team {team}\n"

    def test_abandon_delta_player_below_one(self, capsys):
        for number in ("0", "-2"):
            code, out, err = run_cli(
                capsys,
                "abandon-delta", "--example", "ex3", "--utility", "UM",
                "--players", number,
            )
            assert code == 2
            assert out == ""
            assert err == f"error[PARSE]: bad player number {number!r} (use 1-based integers)\n"

    def test_abandon_delta_skips_empty_chunks(self, capsys):
        outs = [
            run_cli(
                capsys,
                "abandon-delta", "--example", "ex3", "--utility", "UM", "--players", players,
            )
            for players in ("4", "4,,")
        ]
        assert outs[0][0] == 0
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("players", ["", ",,", " , "])
    def test_abandon_delta_without_players(self, capsys, players):
        # Empty chunks are skipped, but a list left with no player is refused.
        code, out, err = run_cli(
            capsys,
            "abandon-delta", "--example", "ex3", "--utility", "UM", "--players", players,
        )
        assert code == 2
        assert out == ""
        assert err == f"error[PARSE]: --players names no player: {players!r}\n"

    def test_abandon_delta_player_not_a_number(self, capsys):
        code, out, err = run_cli(
            capsys,
            "abandon-delta", "--example", "ex3", "--utility", "UM", "--players", "x",
        )
        assert code == 2
        assert out == ""
        assert err == "error[PARSE]: bad player number 'x' (use 1-based integers)\n"

    @pytest.mark.parametrize("number", ["+2", "\u0662", "1_0"])
    def test_abandon_delta_player_not_ascii_digits(self, capsys, number):
        # int() reads each of these (2, an Arabic-Indic 2, 10); the option
        # takes plain ASCII digits only.
        code, out, err = run_cli(
            capsys,
            "abandon-delta", "--example", "ex3", "--utility", "UM", "--players", number,
        )
        assert code == 2
        assert out == ""
        assert err == f"error[PARSE]: bad player number {number!r} (use 1-based integers)\n"

    def test_abandon_delta_budget_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys,
            "abandon-delta", "--example", "ex3", "--utility", "UM",
            "--players", "4", "--budget", "3",
        )
        assert code == 3
        assert out == ""
        assert "error[BUDGET]" in err

    def test_gamma_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gamma", "--C", "3", "--a", "0", "--b", "0")
        assert code == 0
        spec = loads_spec(out)
        assert document_from_spec(spec) == json.loads(out)
        path = tmp_path / "gamma.json"
        path.write_text(out)
        code, out2, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert json.loads(out2)["root_value"] == "-8/9"

    def test_gamma_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--C", "2", "--a", "5")
        assert code == 2
        assert "PARAMS" in err

    def test_gamma_below_range_exits_2_with_size(self, capsys):
        for argv in (("--C", "0"), ("--C", "3", "--a", "-1")):
            code, out, err = run_cli(capsys, "gamma", *argv)
            assert code == 2
            assert out == ""
            assert "error[SIZE]" in err

    def test_gamma_over_player_limit_exits_2(self, capsys):
        # 10**400 is past float range: halving C must stay in integers.
        for scale in ("14", str(10**400)):
            code, out, err = run_cli(capsys, "gamma", "--C", scale)
            assert code == 2
            assert out == ""
            assert "error[SIZE]" in err

    def test_simulate_deterministic(self, capsys):
        runs = [
            run_cli(
                capsys,
                "simulate", "--example", "card", "--samples", "3000", "--seed", "17",
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        doc = json.loads(runs[0][1])
        assert doc["exact_value"] == "-1/3"
        assert doc["within_four_stderr"] is True

    def test_simulate_zero_samples_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--example", "card", "--samples", "0")
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err

    def test_simulate_negative_seed_exits_2(self, capsys):
        # random.Random(-3) would replay seed 3 while reporting "seed": -3.
        code, out, err = run_cli(capsys, "simulate", "--example", "card", "--seed", "-3")
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err

    @pytest.mark.parametrize("utility", ["1e400", "1e200"])
    def test_simulate_utility_too_large_for_floats_exits_2(self, capsys, tmp_path, utility):
        # 1e400 overflows float(); 1e200 squares to inf in the variance sum.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"T": 1, "P": [["1/2"]], "U": [f"-{utility}", utility]}))
        code, out, err = run_cli(capsys, "simulate", str(path), "--samples", "10")
        assert code == 2
        assert out == ""
        assert "error[RANGE]" in err


class TestVerifyCommand:
    def test_lemma2_budget_refused_at_a_wide_frontier(self, capsys, few_reach_steps):
        code, _, err = run_cli(capsys, "verify", "lemma2", "--T", "5", "--instances", "1")
        assert code == 3
        assert "pure strategy enumeration exceeds the budget" in err

    def test_theorem4_refuses_a_rung_before_solving_one(self, capsys, monkeypatch):
        # At T=7 under UE the rungs have 30.1M, 57.0M and 102.7M classes; the
        # smallest fits the default budget but would take gigabytes to solve.
        real = analysis.solve

        def solve_only_past_budget(spec, **kwargs):
            size = class_count(spec.team1_size, spec.team2_size, spec.rounds)
            assert size > DEFAULT_CLASS_BUDGET, f"asked to solve {size} classes"
            return real(spec, **kwargs)

        monkeypatch.setattr(analysis, "solve", solve_only_past_budget)
        code, out, err = run_cli(capsys, "verify", "theorem4", "--T", "7", "--utility", "UE")
        assert (code, out) == (3, "")
        assert "BUDGET" in err

    @pytest.mark.parametrize(
        "cmax, code, error",
        [
            # C=9 fields 13 players a side over 77,029,525 classes; C=14 fields 21.
            ("9", 3, "error[BUDGET]: 77029525 history classes exceed the budget"),
            ("14", 2, "error[SIZE]: team sizes 21x21 exceed the 20-player limit"),
        ],
    )
    def test_lemma6_refuses_the_largest_contest_before_solving(
        self, capsys, monkeypatch, cmax, code, error
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("check_lemma6 solved a contest before refusing the largest")

        monkeypatch.setattr(analysis, "solve", refuse)
        got, out, err = run_cli(capsys, "verify", "lemma6", "--Cmax", cmax)
        assert (got, out) == (code, "")
        assert err.startswith(error)

    def test_lemma6(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemma6", "--Cmax", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True

    def test_theorem1_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "theorem1", "--T", "2", "--instances", "5", "--seed", "7",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_all_suites_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--instances", "2", "--seed", "1", "--Cmax", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        names = {entry["name"].split("[")[0] for entry in doc["checks"]}
        assert names == {
            "theorem1", "theorem2", "corollary1", "theorem3",
            "theorem4", "lemma2", "lemma5", "lemma6",
        }

    def test_theorem3_includes_contrast(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "theorem3", "--instances", "2", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        contrast = [c for c in doc["checks"] if c["name"] == "theorem3[contrast:UM]"]
        assert len(contrast) == 1
        assert contrast[0]["expected_pass"] is False
        assert contrast[0]["ok"] is True
        assert contrast[0]["report"]["values"]["with_tail"] == "0"
        assert contrast[0]["report"]["values"]["without_tail"] == "-2/3"


    def test_zero_instances_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "lemma2", "--instances", "0")
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err

    def test_zero_rounds_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "theorem1", "--T", "0", "--instances", "1")
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err

    def test_theorem2_rounds_past_generator_limit_exits_2(self, capsys):
        # Past six rounds the roster draw is square, so T=21 meets the player
        # limit as a typed error instead of an empty randint range.
        code, out, err = run_cli(capsys, "verify", "theorem2", "--T", "21", "--instances", "1")
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "lemma5", "--T", "8000", "--instances", "1"],
            ["sweep", "--T", "3000", "--instances", "1"],
        ],
        ids=" ".join,
    )
    def test_rounds_past_player_limit_exit_2_before_drawing(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("drew a roster")

        monkeypatch.setattr(explorer, "random_strength_rows", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "lemma6", "--T", "3"],
            ["verify", "lemma6", "--seed", "5"],
            ["verify", "lemma2", "--instances", "1", "--utility", "UM"],
            ["verify", "theorem4", "--T", "2", "--instances", "3"],
            ["classify", "--example", "ex2", "--budget", "5"],
        ],
        ids=" ".join,
    )
    def test_option_the_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def _actions(parser):
    """Every action of ``parser`` and of its subcommands, depth first."""
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _actions(sub)


class TestIntegerOptions:
    # int() reads each of these (2, an Arabic-Indic 3, 3, 10).
    SPELLINGS = ["+2", "\u0663", " 3", "1_0"]

    def test_past_int_to_string_limit_exits_2(self, capsys):
        # int() raises a bare ValueError on 5,000 digits.
        code, out, err = run_cli(capsys, "gamma", "--C", "1" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("error[PARSE]: expected an integer in ASCII digits")
        code, out, err = run_cli(
            capsys, "abandon-delta", "--example", "ex3", "--utility", "UM", "--players", "1" * 5000
        )
        assert (code, out) == (2, "")
        assert err.startswith("error[PARSE]: bad player number")

    @pytest.mark.parametrize("value", SPELLINGS)
    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--C"],
            ["gamma", "--C", "3", "--a"],
            ["gamma", "--C", "3", "--b"],
            ["sweep", "--seed"],
            ["sweep", "--instances"],
            ["sweep", "--T"],
            ["sweep", "--max-recruits"],
            ["verify", "all", "--T"],
            ["verify", "all", "--instances"],
            ["verify", "all", "--seed"],
            ["verify", "all", "--Cmax"],
            ["solve", "--example", "card", "--budget"],
            ["best-response", "--example", "card", "--team"],
            ["simulate", "--example", "card", "--samples"],
            ["simulate", "--example", "card", "--seed"],
        ],
        ids=" ".join,
    )
    def test_not_ascii_digits_exits_2(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv, value)
        assert (code, out) == (2, "")
        assert err == f"error[PARSE]: expected an integer in ASCII digits, got {value!r}\n"

    def test_every_integer_option_reads_ascii_digits(self):
        types = [action.type for action in _actions(cli.build_parser())]
        assert int not in types
        assert cli._int_option in types

    @pytest.mark.parametrize("value", SPELLINGS)
    def test_example_round_count_not_ascii_digits_exits_2(self, capsys, value):
        code, out, err = run_cli(capsys, "solve", "--example", f"ex4:{value}")
        assert (code, out) == (2, "")
        assert err == f"error[PARSE]: bad round count in example name 'ex4:{value}'\n"


class TestExitCodes:
    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from teamcomp import cli
        from teamcomp.analysis import CheckReport

        def stub_suite(args):
            report = CheckReport("stub", {}, witnesses=["forced"])
            return [cli._entry("stub[0]", report)]

        monkeypatch.setitem(cli._SUITES, "lemma6", stub_suite)
        code, out, _ = run_cli(capsys, "verify", "lemma6")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_cross_process_determinism(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import teamcomp

        # The children import the same teamcomp this process imported.
        env = {**os.environ, "PYTHONPATH": str(Path(teamcomp.__file__).parent.parent)}
        args = [sys.executable, "-m", "teamcomp", "solve", "--example", "card", "--full"]
        first = subprocess.run(args, capture_output=True, check=True, env=env)
        second = subprocess.run(args, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout


class TestSweepCommand:
    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "records.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--seed", "4", "--instances", "10", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert "max_gain" in doc and "status" in doc
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("index,T,m,n,utility")
        assert len(lines) == 11

    def test_sweep_deterministic(self, capsys, tmp_path):
        outputs = []
        for run in range(2):
            path = tmp_path / f"r{run}.csv"
            code, out, _ = run_cli(
                capsys,
                "sweep", "--seed", "5", "--instances", "8", "--out", str(path),
            )
            assert code == 0
            outputs.append((out, path.read_text()))
        assert outputs[0] == outputs[1]

    def test_sweep_zero_rounds_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--instances", "1", "--T", "0")
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err

    @pytest.mark.parametrize("rounds", ["1", "0"])
    def test_sweep_rounds_below_two_name_the_flag(self, capsys, rounds):
        code, out, err = run_cli(capsys, "sweep", "--instances", "1", "--T", rounds)
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err
        assert f"--T must be >= 2, got {rounds}" in err

    def test_sweep_help_gives_least_rounds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "(at least 2)" in " ".join(capsys.readouterr().out.split())

    def test_sweep_unwritable_out_fails_before_sweeping(self, capsys, tmp_path, monkeypatch):
        def refuse(config):
            raise AssertionError("the sweep ran before --out was opened")

        monkeypatch.setattr(explorer, "sweep", refuse)
        out_path = tmp_path / "missing" / "records.csv"
        code, out, err = run_cli(capsys, "sweep", "--instances", "100", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert "error[IO]" in err

    def test_sweep_negative_recruits_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--instances", "1", "--max-recruits", "-1")
        assert code == 2
        assert out == ""
        assert "error[SIZE]" in err
