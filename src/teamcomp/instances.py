"""Built-in benchmark contests, addressable by the CLI's ``--example`` names.

These are the regression fixtures the acceptance and verification suites
script against: a three-card suit-matching game, two small roster-mismatch
games where spare or even always-losing players change the value, and two
scalable identity-ladder families used for the recruiting analysis.
"""

from __future__ import annotations

from .model import (
    GameSpec,
    ValidationError,
    _ascii_int,
    _check_roster,
    _whole,
    make_spec,
    utility_name,
)


def card_game() -> GameSpec:
    """Three-round suit-matching card duel.

    Each side holds one heart and two spades; the row side wins a round when
    suits match.  Majority scoring.
    """
    return make_spec(3, [[1, 0, 0], [0, 1, 1], [0, 1, 1]], "UM")


def _ex1() -> GameSpec:
    # Two rounds, three defenders against two attackers; the extra defender
    # makes plain uniform play strictly suboptimal for the two-player side.
    # (At T=2 the expected-wins and majority tables coincide.)
    return make_spec(2, [[0, 0, 1], [1, 1, 0]], "UE")


def _ex2() -> GameSpec:
    # Two rounds, equal rosters of three, one all-losing row player; dropping
    # that player hands the opponent a forced sweep.
    return make_spec(2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]], "UE")


def _ex3(utility: str) -> GameSpec:
    # Three rounds, identity-pattern specialists plus one all-losing spare.
    # The spare is worthless under expected-wins scoring yet worth 2/3 of a
    # point under majority scoring.
    return make_spec(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], utility)


def default_recruit_cap(rounds: int, utility: str) -> int:
    """The sharp recruit count: T-1 under UE, floor(T/2) under UM."""
    is_ue = utility_name(utility) == "UE"
    rounds = _whole(rounds, "T", 1)
    return rounds - 1 if is_ue else rounds // 2


def _identity_ladder(rounds: int, utility: str) -> GameSpec:
    # Identity ladder with as many unbeatable opposing spares as the sharp
    # recruit count: T-1 (ex4, expected-wins scoring) or floor(T/2) (ex5,
    # majority scoring).  The stock roster is pinned at the floor until it
    # recruits that many always-losing decoys.
    cols = rounds + default_recruit_cap(rounds, utility)
    _check_roster(rounds, rounds, cols)
    rows = [[1 if i == j else 0 for j in range(cols)] for i in range(rounds)]
    return make_spec(rounds, rows, utility)


EXAMPLE_NAMES = ("card", "ex1", "ex2", "ex3", "ex4:T", "ex5:T")
_FIXED = {"card": card_game, "ex1": _ex1, "ex2": _ex2}


def named_instance(name: str, utility: str | None = None) -> GameSpec:
    """Resolve an ``--example`` name.

    ``ex4:T``/``ex5:T`` take the round count after the colon; ``ex3`` accepts
    an optional utility override ("UE" or "UM", default "UM"), and every
    other name rejects one.
    """
    if not isinstance(name, str):
        raise ValidationError(f"an example name must be a string, got {name!r}", "PARSE")
    text = name.strip().lower()
    if utility is not None and text != "ex3":
        raise ValidationError(f"a utility override applies only to ex3, not {name!r}", "PARSE")
    if text in _FIXED:
        return _FIXED[text]()
    if text == "ex3":
        return _ex3(utility or "UM")
    if text.startswith("ex4:") or text.startswith("ex5:"):
        head, _, tail = text.partition(":")
        rounds = _ascii_int(tail)
        if rounds is None:
            raise ValidationError(f"bad round count in example name {name!r}", "PARSE")
        return _identity_ladder(rounds, "UE" if head == "ex4" else "UM")
    raise ValidationError(
        f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}", "PARSE"
    )
