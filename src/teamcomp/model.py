"""Domain types for two-team sequential selection contests.

A contest runs for a fixed number of rounds.  Every round each team commits
one of its previously unused players, both picks are revealed simultaneously,
and the committed pair plays a match that the row-side player wins with the
probability stored in the strength matrix.  Utilities are zero-sum and depend
only on how many rounds Team 1 ends up winning.  A `GameSpec` is validated
when it is built, so no function that takes one checks it again.

Everything on the solving path is exact: probabilities, utilities and game
values are `fractions.Fraction`, and stage games are solved in integers.
Floats appear only in the Monte Carlo sampler and the `approx_*` fields of its
report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, NamedTuple, Sequence, Union

#: Upper bound on players per team so subset keys fit comfortably in a pair of
#: machine-word bit sets and the class table stays desk-scale.
MAX_PLAYERS = 20

RationalLike = Union[Fraction, int, str]

#: Largest decimal exponent magnitude a rational may be written with;
#: ``Fraction`` builds 10**exponent before any range check can run.
_MAX_EXPONENT = 100_000


class GameModelError(Exception):
    """Base error; ``code`` is a stable machine-readable category."""

    code = "ERROR"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ValidationError(GameModelError):
    """Malformed input: bad rationals, shapes, ranges, sizes or parameters."""

    code = "INVALID"


class BudgetExceeded(GameModelError):
    code = "BUDGET"


class CoverageError(GameModelError):
    code = "COVERAGE"


class TerminalClassError(GameModelError):
    code = "TERMINAL"


class RedundantPlayersError(GameModelError):
    code = "REDUNDANT"


class PreconditionError(GameModelError):
    code = "PRECOND"


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from a Fraction, an int, or a string.

    Strings may be fractions ("2/3"), integers ("4"), or decimal literals
    ("0.5", parsed exactly as 1/2).  Binary floats are refused: they would
    smuggle rounding into an otherwise exact pipeline.  Spell the value as a
    string instead.  A decimal exponent beyond 100,000 in magnitude ("1e100001")
    is refused before the number is built.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"not a rational: {value!r}", "PARSE")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        # Seven digits already exceed the limit; int() refuses over 4,300.
        if exponent.isdecimal() and (len(exponent) > 6 or int(exponent) > _MAX_EXPONENT):
            raise ValidationError(
                f"cannot parse rational from {value!r}: exponent beyond {_MAX_EXPONENT}",
                "PARSE",
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational from {value!r}", "PARSE") from exc
    raise ValidationError(
        f"refusing inexact value {value!r}; write it as a string such as '1/3' or '0.5'",
        "PARSE",
    )


def format_rational(value: Fraction) -> str:
    """Render a rational as "a/b" (or a plain integer when b == 1)."""
    return str(value)


def player_label(team: int, index: int) -> str:
    """Human-facing one-based label: A1.. for Team 1, B1.. for Team 2."""
    return f"{'A' if team == 1 else 'B'}{index + 1}"


def _whole(value: object, name: str, least: int | None) -> int:
    """``value`` itself when it is an int (not a bool) of at least ``least``.

    The one whole-number rule for round, recruit, instance and sample counts
    and the like: PARSE for any other type, SIZE below ``least`` (no bound
    when ``None``, for a caller that checks the range itself); ``name``
    labels the value in the message.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}", "PARSE")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}", "SIZE")
    return value


def _ascii_int(text: str) -> int | None:
    """The integer ``text`` spells in ASCII digits after an optional ``-``,
    else ``None``.

    The one reader for integers typed on the command line: ``int()`` would
    also take a ``+``, surrounding spaces, underscores and other scripts'
    digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past the interpreter's int-to-string digit limit
        return None


def _team(team: object) -> int:
    """``team`` itself when it is the int 1 or 2: the one team-number rule.
    Anything else, ``True``, ``2.0`` and ``"1"`` included, raises PARSE."""
    if not isinstance(team, int) or isinstance(team, bool) or team not in (1, 2):
        raise ValidationError(f"team must be 1 or 2, got {team!r}", "PARSE")
    return team


def utility_name(name: object) -> str:
    """The scoring rule a name spells: "UE" (expected wins) or "UM" (majority).

    Any letter case and surrounding blanks are accepted; anything but a str
    naming one of the two rules raises PARSE.
    """
    canonical = name.strip().upper() if isinstance(name, str) else None
    if canonical not in ("UE", "UM"):
        raise ValidationError(f"utility must be UE or UM, got {name!r}", "PARSE")
    return canonical


def _exact(value: object) -> Fraction | int:
    """``value`` itself when it is already exact: a Fraction or an int, not a bool."""
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise ValidationError(f"not an exact rational: {value!r}", "PARSE")


def _array(value, name: str) -> Sequence:
    """``value`` when it is an array: a ``Sequence`` other than a str or bytes
    (SHAPE otherwise)."""
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ValidationError(f"{name} is not an array", "SHAPE")
    return value


def _parse_rows(
    rows: Sequence[Sequence[RationalLike]], name: str, parse=parse_rational
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact rationals of a non-empty rectangular grid given row by row;
    ``parse`` turns each cell into one and ``name`` labels the grid in error
    messages.  The grid and each row must be arrays (SHAPE)."""
    if not _array(rows, name):
        raise ValidationError(f"{name} needs at least one row and one column", "SIZE")
    parsed: list[tuple[Fraction, ...]] = []
    for i, row in enumerate(rows):
        _array(row, f"{name} row {i + 1}")
        if parsed and len(row) != len(parsed[0]):
            raise ValidationError(
                f"{name} row {i + 1} has length {len(row)}, expected {len(parsed[0])}",
                "SHAPE",
            )
        if not row:
            raise ValidationError(f"{name} needs at least one row and one column", "SIZE")
        out = []
        for j, cell in enumerate(row):
            try:
                out.append(parse(cell))
            except ValidationError as exc:
                raise ValidationError(f"{name}[{i + 1}][{j + 1}]: {exc}", "PARSE") from exc
        parsed.append(tuple(out))
    return tuple(parsed)


def _integer_form(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows and one positive denominator, the lcm of the cells' own,
    whose quotient is ``rows``."""
    den = lcm(*(q.denominator for row in rows for q in row))
    return tuple(tuple(q.numerator * (den // q.denominator) for q in row) for row in rows), den


@dataclass(frozen=True)
class StrengthMatrix:
    """Win probabilities from Team 1's side.

    ``entries[i][j]`` is the probability that Team 1's player ``i`` beats
    Team 2's player ``j``; the complementary event is a win for player ``j``.
    Players are identified by zero-based row/column indices throughout the
    API; display labels are one-based (A1.., B1..).
    """

    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]]) -> "StrengthMatrix":
        return StrengthMatrix(_parse_rows(rows, "P"))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def win_prob(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(weights, scale)`` with ``entries[i][j] == weights[i][j] / scale``;
        built once per matrix."""
        return _integer_form(self.entries)


@dataclass(frozen=True)
class UtilityTable:
    """Team-1 utility indexed by its number of round wins.

    Team 2 receives the negation, so the game is zero-sum by construction.
    The table is stored extensionally (never as a formula) so that threshold
    utilities and custom tables share one representation.
    """

    values: tuple[Fraction, ...]

    @staticmethod
    def from_values(values: Sequence[RationalLike]) -> "UtilityTable":
        if not _array(values, "utility table"):
            raise ValidationError("utility table must not be empty", "SHAPE")
        return UtilityTable(tuple(parse_rational(v) for v in values))

    @property
    def rounds(self) -> int:
        return len(self.values) - 1

    @property
    def antisymmetric(self) -> bool:
        """Whether U(t) + U(T - t) == 0 for every t.

        Reported, never enforced: threshold utilities deliberately break it
        while remaining zero-sum between the teams.
        """
        t_max = self.rounds
        return all(self.values[t] + self.values[t_max - t] == 0 for t in range(t_max + 1))

    @property
    def monotone(self) -> bool:
        return all(self.values[t + 1] >= self.values[t] for t in range(self.rounds))


def utility_ue(rounds: int) -> UtilityTable:
    """Expected-wins utility: winning t rounds is worth t - rounds/2."""
    half = Fraction(_whole(rounds, "T", 1), 2)
    return UtilityTable(tuple(Fraction(t) - half for t in range(rounds + 1)))


def utility_um(rounds: int) -> UtilityTable:
    """Majority utility: +1 for winning more rounds than the opponent, 0 for a
    tie, -1 otherwise."""
    half = Fraction(_whole(rounds, "T", 1), 2)
    return UtilityTable(tuple(Fraction((t > half) - (t < half)) for t in range(rounds + 1)))


@dataclass(frozen=True)
class GameSpec:
    """A full contest: round count, strength matrix, utility table; validated when built."""

    rounds: int
    strength: StrengthMatrix
    utility: UtilityTable

    def __post_init__(self) -> None:
        validate_spec(self)

    @property
    def team1_size(self) -> int:
        return self.strength.rows

    @property
    def team2_size(self) -> int:
        return self.strength.cols

    def team_size(self, team: int) -> int:
        """Roster size of Team ``team`` (PARSE unless 1 or 2); the team's
        played set at a class ``key`` is ``key[team - 1]``."""
        return self.strength.cols if _team(team) == 2 else self.strength.rows


def make_spec(
    rounds: int,
    strength_rows: Sequence[Sequence[RationalLike]],
    utility: UtilityTable | str | Sequence[RationalLike],
) -> GameSpec:
    """Convenience constructor; ``utility`` may be a table, "UE"/"UM", or an
    explicit sequence of rounds+1 rationals.

    A named table has T+1 entries, so T is checked (a whole number, at least
    1, no more than either roster) before a named table is built.
    """
    strength = StrengthMatrix.from_rows(strength_rows)
    if isinstance(utility, UtilityTable):
        table = utility
    elif isinstance(utility, str):
        build = utility_ue if utility_name(utility) == "UE" else utility_um
        _check_roster(_whole(rounds, "T", 1), strength.rows, strength.cols)
        table = build(rounds)
    else:
        table = UtilityTable.from_values(utility)
    return GameSpec(rounds, strength, table)


def _check_roster(rounds: int, m: int, n: int) -> None:
    """The player limit, then at least ``rounds`` players on each team."""
    if m > MAX_PLAYERS or n > MAX_PLAYERS:
        raise ValidationError(
            f"team sizes {m}x{n} exceed the {MAX_PLAYERS}-player limit", "SIZE"
        )
    if rounds > min(m, n):
        raise ValidationError(
            f"T={rounds} needs at least T players per team (have {m} and {n})", "SIZE"
        )


def validate_spec(spec: GameSpec) -> GameSpec:
    """Check every structural invariant and return the spec unchanged.

    Every `GameSpec` runs this when it is built, so callers need not.
    Idempotent.  Raises ValidationError with code RANGE (probability outside
    [0,1]), SIZE (round/player count trouble or an empty grid), SHAPE (a
    ragged grid, a grid, grid row or utility table that is not a tuple and so
    could change after this check, or the utility table length) or PARSE (a T
    that is not an int, or a strength or utility entry that is not a Fraction
    or an int, as when a float reaches a directly built `StrengthMatrix` or
    `UtilityTable`).  The antisymmetry of the utility table is reported via
    ``spec.utility.antisymmetric``, never enforced.
    """
    _whole(spec.rounds, "T", 1)
    grid, values = spec.strength.entries, spec.utility.values
    if not isinstance(grid, tuple) or not all(isinstance(row, tuple) for row in grid):
        raise ValidationError(
            "P must be a tuple of tuples (see StrengthMatrix.from_rows)", "SHAPE"
        )
    if not isinstance(values, tuple):
        raise ValidationError("U must be a tuple (see UtilityTable.from_values)", "SHAPE")
    _parse_rows(grid, "P", _exact)
    _check_roster(spec.rounds, spec.strength.rows, spec.strength.cols)
    for i, row in enumerate(spec.strength.entries):
        for j, p in enumerate(row):
            if p < 0 or p > 1:
                raise ValidationError(f"P[{i + 1}][{j + 1}] is outside [0, 1]", "RANGE")
    if spec.utility.rounds != spec.rounds:
        raise ValidationError(
            f"utility table has {spec.utility.rounds + 1} entries, expected "
            f"{spec.rounds + 1}",
            "SHAPE",
        )
    for t, u in enumerate(spec.utility.values):
        try:
            _exact(u)
        except ValidationError as exc:
            raise ValidationError(f"U[{t + 1}]: {exc}", "PARSE") from exc
    return spec


class HistoryClassKey(NamedTuple):
    """Equivalence class of histories: used-player sets plus Team-1 wins.

    Player sets are bit masks (bit i set = player i already played, indices
    zero-based).  The number of finished rounds is the popcount of either
    mask; it is derived, never stored.
    """

    played1: int
    played2: int
    wins: int

    @property
    def round_index(self) -> int:
        return self.played1.bit_count()


ROOT_CLASS = HistoryClassKey(0, 0, 0)


def unplayed(mask: int, size: int) -> list[int]:
    """Ascending indices of the players not yet used."""
    return [i for i in range(size) if not (mask >> i) & 1]


@dataclass(frozen=True)
class BehavioralStrategy:
    """Class-based selection rule, mixed or pure; also named ``PureAdaptiveStrategy``.

    Maps each history class where the team moves to a player number (a pure
    move) or a ``{player: weight}`` mixture over that team's unused players,
    with exact nonnegative weights that sum to one wherever it is queried.  A
    pure strategy, one with degenerate mixtures under perfect recall (Kuhn
    1953), moves by player numbers on the classes its own earlier picks reach.
    """

    team: int
    moves: Mapping[HistoryClassKey, Union[int, Mapping[int, Fraction]]]


PureAdaptiveStrategy = BehavioralStrategy


# ---------------------------------------------------------------------------
# Spec file format: {"T": int, "P": [[rationals]], "U": "UE"|"UM"|[rationals]}
# Rationals may be strings ("1/3", "0.5"), integers, or JSON decimal literals
# (parsed exactly, never through a binary float).
# ---------------------------------------------------------------------------

def document_from_spec(spec: GameSpec) -> dict:
    """Serializable document; rationals rendered as exact strings."""
    return {
        "T": spec.rounds,
        "P": [[format_rational(p) for p in row] for row in spec.strength.entries],
        "U": [format_rational(u) for u in spec.utility.values],
    }


def spec_from_document(doc: Mapping) -> GameSpec:
    if not isinstance(doc, Mapping):
        raise ValidationError("spec document must be a JSON object", "SHAPE")
    for field in ("T", "P", "U"):
        if field not in doc:
            raise ValidationError(f"spec document is missing field {field!r}", "SHAPE")
    rounds = doc["T"]
    if not isinstance(rounds, int) or isinstance(rounds, bool):
        raise ValidationError(f"field T must be an integer, got {rounds!r}", "SHAPE")
    raw_u = doc["U"]
    if isinstance(raw_u, Sequence) and not isinstance(raw_u, str) and len(raw_u) != rounds + 1:
        raise ValidationError(
            f"field U has {len(raw_u)} entries, expected T+1 = {rounds + 1}", "SHAPE"
        )
    return make_spec(rounds, doc["P"], raw_u)


def loads_spec(text: str) -> GameSpec:
    """Parse a UTF-8 JSON spec document; decimal literals stay exact."""
    try:  # JSONDecodeError, an integer too long to parse, or arrays nested too deep
        doc = json.loads(text, parse_float=parse_rational)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON: {exc}", "PARSE") from exc
    return spec_from_document(doc)


def dumps_spec(spec: GameSpec) -> str:
    return json.dumps(document_from_spec(spec), indent=2)


def load_spec(path: str) -> GameSpec:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"spec file is not UTF-8: {exc}", "PARSE") from exc
    return loads_spec(text)
