"""Command-line front end.

Subcommands: solve, best-response, classify, abandon-delta, gamma, verify,
sweep, simulate.  Results are JSON documents on stdout with rationals as
exact "a/b" strings; floats appear only in ``simulate`` fields prefixed
``approx_``.  Exit codes: 0 success, 1 failed verification check, 2 bad
input, 3 exceeded budget.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import analysis, explorer
from .analysis import (
    CheckReport,
    GammaParams,
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
)
from .instances import EXAMPLE_NAMES, named_instance
from .model import (
    BudgetExceeded,
    GameModelError,
    GameSpec,
    HistoryClassKey,
    MAX_PLAYERS,
    ROOT_CLASS,
    ValidationError,
    document_from_spec,
    format_rational,
    load_spec,
    player_label,
)
from .montecarlo import simulate_competitions
from .solver import (
    DEFAULT_CLASS_BUDGET,
    SolveResult,
    evaluate_fixed,
    solve,
    uniform_strategy,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _load_spec_arg(args) -> GameSpec:
    if args.spec and args.example:
        raise ValidationError("give a spec file or --example NAME, not both", "PARSE")
    if args.example:
        return named_instance(args.example, args.utility)
    if not args.spec:
        raise GameModelError("provide a spec file or --example NAME", "PARSE")
    if args.utility is not None:
        raise ValidationError("--utility applies only to --example ex3", "PARSE")
    return load_spec(args.spec)


def _class_document(key: HistoryClassKey, value: Fraction, m: int, n: int) -> dict:
    return {
        "X": [player_label(1, i) for i in range(m) if (key.played1 >> i) & 1],
        "Y": [player_label(2, j) for j in range(n) if (key.played2 >> j) & 1],
        "w": key.wins,
        "value": format_rational(value),
    }


def _root_strategy_document(result: SolveResult, team: int) -> dict:
    strategy = result.strategy1 if team == 1 else result.strategy2
    dist = strategy.moves[ROOT_CLASS]
    return {player_label(team, p): format_rational(w) for p, w in sorted(dist.items())}


def _cmd_solve(args) -> int:
    spec = _load_spec_arg(args)
    result = solve(spec, class_budget=args.budget)
    doc = {
        "root_value": format_rational(result.root_value),
        "antisymmetric_utility": spec.utility.antisymmetric,
        "strategy1": _root_strategy_document(result, 1),
        "strategy2": _root_strategy_document(result, 2),
    }
    if args.full:
        m, n = spec.team1_size, spec.team2_size
        table = sorted(
            result.value_table.items(),
            key=lambda item: (item[0].round_index, item[0].played1, item[0].played2, item[0].wins),
        )
        doc["value_table"] = [_class_document(k, v, m, n) for k, v in table]
    _emit(doc)
    return EXIT_OK


def _cmd_best_response(args) -> int:
    spec = _load_spec_arg(args)
    result = solve(spec, class_budget=args.budget)
    if args.strategy == "uniform":
        fixed = uniform_strategy(spec, args.team)
    else:
        fixed = result.strategy1 if args.team == 1 else result.strategy2
    doc = {
        "team": args.team,
        "strategy": args.strategy,
        "value": format_rational(evaluate_fixed(spec, fixed)),
        "equilibrium_value": format_rational(result.root_value),
    }
    _emit(doc)
    return EXIT_OK


def _cmd_classify(args) -> int:
    doc = {}
    for team, cls in enumerate(classify(_load_spec_arg(args)), start=1):
        doc[f"team{team}"] = {
            "weakest": [player_label(team, p) for p, f in enumerate(cls.weakest) if f],
            "dominated": [player_label(team, p) for p, f in enumerate(cls.dominated) if f],
            "transitive": cls.transitive,
            "weakest_first": [player_label(team, p) for p in cls.order] if cls.order else None,
        }
    _emit(doc)
    return EXIT_OK


def _cmd_abandon_delta(args) -> int:
    spec = _load_spec_arg(args)
    players = []
    for chunk in args.players.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            number = int(chunk)
        except ValueError:
            number = 0
        if number < 1:
            raise GameModelError(f"bad player number {chunk!r} (use 1-based integers)", "PARSE")
        players.append(number - 1)
    before = solve(spec, class_budget=args.budget).root_value
    after = solve(analysis.abandon(spec, args.team, players), class_budget=args.budget).root_value
    delta = before - after if args.team == 1 else after - before
    _emit(
        {
            "team": args.team,
            "abandoned": [player_label(args.team, p) for p in sorted(set(players))],
            "delta": format_rational(delta),
            "value": format_rational(before),
            "value_after": format_rational(after),
        }
    )
    return EXIT_OK


def _cmd_gamma(args) -> int:
    _emit(document_from_spec(gamma_game(GammaParams(args.C, args.a, args.b))))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = _load_spec_arg(args)
    result = solve(spec, class_budget=args.budget)
    estimate = simulate_competitions(
        spec, result.strategy1, result.strategy2, result.root_value, args.samples, args.seed
    )
    _emit(
        {
            "samples": estimate.samples,
            "seed": estimate.seed,
            "approx_mean": estimate.mean,
            "approx_stderr": estimate.stderr,
            "exact_value": format_rational(estimate.exact_value),
            "approx_abs_error": estimate.abs_error,
            "within_four_stderr": estimate.within_four_stderr,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _rounds_pool(args, default: list[int]) -> list[int]:
    """Round counts a suite draws from: ``--T`` alone when given."""
    if args.T is not None and args.T < 1:
        raise ValidationError(f"--T must be >= 1, got {args.T}", "SIZE")
    if args.T is not None and args.T > MAX_PLAYERS:
        raise ValidationError(f"--T={args.T} exceeds the {MAX_PLAYERS}-player limit", "SIZE")
    return default if args.T is None else [args.T]


def _generated(args, suite: str, default_rounds: list[int], build):
    """Yield ``(index, spec)`` for ``--instances`` contests, each drawn from its own
    ``Random(f"{seed}:{suite}:{index}")``: the round count, then ``build``'s draws."""
    if args.instances < 1:
        raise ValidationError(f"--instances must be >= 1, got {args.instances}", "SIZE")
    pool = _rounds_pool(args, default_rounds)
    for index in range(args.instances):
        rng = random.Random(f"{args.seed}:{suite}:{index}")
        yield index, build(rng, rng.choice(pool))


def _weak_tail(rng: random.Random, rounds: int) -> GameSpec:
    return explorer.random_weak_tail_spec(rng, rounds, rounds + rng.randint(1, 2), 6)


def _entry(name: str, report: CheckReport, expected_pass: bool = True) -> dict:
    return {
        "name": name,
        "expected_pass": expected_pass,
        "ok": report.passed == expected_pass,
        "report": report.to_document(),
    }


def _suite_theorem1(args) -> list[dict]:
    def build(rng: random.Random, rounds: int) -> GameSpec:
        return explorer.random_square_spec(rng, rounds, 6, rng.choice(["UE", "UM"]))

    return [
        _entry(f"theorem1[{index}]", check_theorem1(spec))
        for index, spec in _generated(args, "theorem1", [2, 3, 4], build)
    ]


def _suite_theorem2(args) -> list[dict]:
    def build(rng: random.Random, rounds: int) -> GameSpec:
        most = max(rounds, min(6, rounds + 2))
        m = rng.randint(rounds, most)
        n = rng.randint(rounds, most)
        return explorer.random_transitive_spec(rng, rounds, m, n, 6, rng.choice(["UE", "UM"]))

    entries = []
    for index, spec in _generated(args, "theorem2", [2, 3, 4], build):
        entries.append(_entry(f"theorem2[{index}]team1", check_theorem2(spec, 1)))
        entries.append(_entry(f"theorem2[{index}]team2", check_theorem2(spec, 2)))
        entries.append(_entry(f"corollary1[{index}]", check_corollary1(spec)))
    return entries


def _suite_theorem3(args) -> list[dict]:
    entries = [
        _entry(f"theorem3[{index}]", check_theorem3(spec))
        for index, spec in _generated(args, "theorem3", [2, 3], _weak_tail)
    ]
    # Majority-scoring contrast: the same structure must NOT preserve value.
    contrast = check_theorem3(named_instance("ex3", "UM"))
    return entries + [_entry("theorem3[contrast:UM]", contrast, expected_pass=False)]


def _suite_theorem4(args) -> list[dict]:
    variants = [args.utility] if args.utility else ["UE", "UM"]
    return [
        _entry(f"theorem4[T={rounds},{variant}]", check_theorem4(rounds, variant))
        for rounds in _rounds_pool(args, [2, 3, 4])
        for variant in variants
    ]


def _suite_lemma2(args) -> list[dict]:
    def build(rng: random.Random, rounds: int) -> GameSpec:
        return explorer.random_square_spec(rng, rounds, 6, "UE")

    return [
        _entry(f"lemma2[{index}]", check_lemma2(spec))
        for index, spec in _generated(args, "lemma2", [2, 3], build)
    ]


def _suite_lemma5(args) -> list[dict]:
    return [
        _entry(f"lemma5[{index}]", check_lemma5(spec))
        for index, spec in _generated(args, "lemma5", [2, 3], _weak_tail)
    ]


def _suite_lemma6(args) -> list[dict]:
    return [_entry(f"lemma6[Cmax={args.Cmax}]", check_lemma6(args.Cmax))]


_SUITES = {
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "theorem3": _suite_theorem3,
    "theorem4": _suite_theorem4,
    "lemma2": _suite_lemma2,
    "lemma5": _suite_lemma5,
    "lemma6": _suite_lemma6,
}

# Each verify option and the suites that read it; ``verify all`` reads every one.
_SEEDED = {"theorem1", "theorem2", "theorem3", "lemma2", "lemma5"}
_VERIFY_OPTIONS = {
    "T": ({"type": int, "help": "restrict to one round count"}, _SEEDED | {"theorem4"}),
    "instances": ({"type": int, "default": 10}, _SEEDED),
    "seed": ({"type": int, "default": 0}, _SEEDED),
    "Cmax": ({"type": int, "default": 4}, {"lemma6"}),
    "utility": ({"choices": ["UE", "UM"]}, {"theorem4"}),
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    entries = [entry for name in names for entry in _SUITES[name](args)]
    ok = all(entry["ok"] for entry in entries)
    _emit({"suite": args.suite, "pass": ok, "checks": entries})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_sweep(args) -> int:
    config = explorer.SearchConfig(
        seed=args.seed,
        instances=args.instances,
        t_range=(2, args.T) if args.T is not None else (2, 3),
        utility=args.utility or "UM",
        max_recruits=args.max_recruits,
    )
    # --out is opened first, so a path that cannot be written fails before the sweep runs.
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as handle:
        summary = explorer.sweep(config)
        if args.out:
            handle.write(explorer.records_to_csv(summary.records))
    _emit(summary.to_document())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamcomp",
        description="Exact solver and verification lab for two-team selection contests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p, budget: bool = True):
        p.add_argument("spec", nargs="?", help="path to a JSON spec file")
        p.add_argument(
            "--example",
            help=f"use a built-in instance instead ({', '.join(EXAMPLE_NAMES)})",
        )
        p.add_argument("--utility", choices=["UE", "UM"], help="utility override for ex3")
        if budget:
            p.add_argument(
                "--budget",
                type=int,
                default=DEFAULT_CLASS_BUDGET,
                help="history-class budget for the solver",
            )

    p = sub.add_parser("solve", help="equilibrium value and strategies")
    add_spec_args(p)
    p.add_argument("--full", action="store_true", help="emit the full value table")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("best-response", help="value against one frozen team")
    add_spec_args(p)
    p.add_argument("--team", type=int, choices=[1, 2], default=1)
    p.add_argument("--strategy", choices=["uniform", "equilibrium"], default="uniform")
    p.set_defaults(func=_cmd_best_response)

    p = sub.add_parser("classify", help="weakest/dominated/transitive analysis")
    add_spec_args(p, budget=False)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("abandon-delta", help="value change when players are dropped")
    add_spec_args(p)
    p.add_argument("--team", type=int, choices=[1, 2], default=1)
    p.add_argument("--players", required=True, help="comma-separated 1-based numbers")
    p.set_defaults(func=_cmd_abandon_delta)

    p = sub.add_parser("gamma", help="emit a threshold-contest spec document")
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(func=_cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True, help="which suite to run")
    for suite in sorted(_SUITES) + ["all"]:
        q = suites.add_parser(suite)
        for option, (kwargs, readers) in _VERIFY_OPTIONS.items():
            if suite == "all" or suite in readers:
                q.add_argument(f"--{option}", **kwargs)

    p = sub.add_parser("sweep", help="search recruiting gains over random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--T", type=int, help="largest round count to sample")
    p.add_argument("--utility", choices=["UE", "UM"])
    p.add_argument("--max-recruits", type=int, dest="max_recruits")
    p.add_argument("--out", help="write the per-record CSV here")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check of the exact value")
    add_spec_args(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error[BUDGET]: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GameModelError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
