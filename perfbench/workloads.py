"""The four benchmark workloads: inputs made from a seed, the timed ops, and
the exact output gate.

Inputs.  Each workload fixes its contests, built at the default seed the way
the repository's tests and CLI build them, and ``--seed`` varies how they are
presented to the program.  ``recruit_ladder``, ``recruit_sweep`` and
``verify_suite`` relabel the players: rows and columns are renumbered by a
seeded shuffle, which gives an isomorphic game with different spec and value
table keys but the same amount of work.  ``dense_bignum`` only respells its
spec files (``2/4`` for ``1/2``, ``0.25`` for ``1/4``, ...): relabelling
changes the simplex's pivot path there, and with it the cost of one contest
by up to 2x, and drawing fresh contests changes it fivefold.  At the default
seed the inputs are the canonical ones.

Gate.  Numbers are compared as exact rationals or as sha256 digests of their
numerator and denominator bytes (``int.to_bytes``), never as decimal strings,
so the gate itself is not subject to the interpreter's int-to-string limit.
A solve's full value table must match its pinned digest wherever the seed
leaves the table's keys alone (every seed of ``dense_bignum``, the default
seed elsewhere).  On other seeds the gate checks the root certificate
``best_row_response_value(col) == value == best_col_response_value(row)``.
Root values, recruiting gains and checker verdicts do not depend on the seed
and are pinned on every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from decimal import Decimal
from fractions import Fraction

import teamcomp.analysis
import teamcomp.cli
import teamcomp.explorer
import teamcomp.montecarlo
import teamcomp.solver
from teamcomp.analysis import add_dominated
from teamcomp.explorer import SearchConfig, default_recruit_cap
from teamcomp.instances import named_instance
from teamcomp.matrix import best_col_response_value, best_row_response_value
from teamcomp.model import ROOT_CLASS, GameSpec, StrengthMatrix, document_from_spec, make_spec
from teamcomp.solver import solve, stage_matrix

DEFAULT_SEED = 0

# Bound up to which ``str(int)`` works under the interpreter's limit.
_STR_DIGITS = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
_STR_LIMIT = 10**_STR_DIGITS if _STR_DIGITS else None


class Op:
    """One timed call.  ``call`` runs the program; nothing else is timed."""

    def __init__(self, name: str, call, **info) -> None:
        self.name = name
        self.call = call
        self.info = info


class Mismatch(Exception):
    """The program's output disagrees with the gate."""


class ExpectedFailure(Exception):
    """The op failed in the documented way (the int-to-string limit)."""

    def __init__(self, message: str, observed: dict) -> None:
        super().__init__(message)
        self.observed = observed


# ---------------------------------------------------------------------------
# Relabelling and digests
# ---------------------------------------------------------------------------

def relabel(spec: GameSpec, seed: int, tag: str, head: int | None = None) -> GameSpec:
    """The same contest with players renumbered; identity at the default seed.

    With ``head`` set, Team-1 rows below and above it are shuffled
    separately, which keeps a weak tail behind the starters.
    """
    if seed == DEFAULT_SEED:
        return spec
    rng = random.Random(f"{tag}:{seed}")
    m, n = spec.team1_size, spec.team2_size
    groups = [list(range(m))] if head is None else [list(range(head)), list(range(head, m))]
    rows: list[int] = []
    for group in groups:
        rng.shuffle(group)
        rows += group
    cols = list(range(n))
    rng.shuffle(cols)
    entries = spec.strength.entries
    strength = StrengthMatrix(tuple(tuple(entries[i][j] for j in cols) for i in rows))
    return GameSpec(spec.rounds, strength, spec.utility)


def respell(text: str, rng: random.Random) -> str:
    """Another exact spelling of a spec rational: unreduced or decimal."""
    q = Fraction(text)
    spellings = [f"{q.numerator * k}/{q.denominator * k}" for k in range(1, 10)]
    if 10**6 % q.denominator == 0:  # a terminating decimal
        spellings.append(str(Decimal(q.numerator) / Decimal(q.denominator)))
    return rng.choice(spellings)


def _put_int(h, x: int) -> None:
    raw = x.to_bytes((x.bit_length() + 8) // 8, "big", signed=True)
    h.update(len(raw).to_bytes(4, "big"))
    h.update(raw)


def rational_digest(*values: Fraction) -> str:
    h = hashlib.sha256()
    for q in values:
        _put_int(h, q.numerator)
        _put_int(h, q.denominator)
    return h.hexdigest()


def table_digest(table) -> str:
    """Digest of a full value table, keys in sorted order."""
    h = hashlib.sha256()
    for key in sorted(table):
        for part in key:
            _put_int(h, part)
        q = table[key]
        _put_int(h, q.numerator)
        _put_int(h, q.denominator)
    return h.hexdigest()


def _root_mixtures(result):
    m, n = result.spec.team1_size, result.spec.team2_size
    row = result.strategy1.moves[ROOT_CLASS]
    col = result.strategy2.moves[ROOT_CLASS]
    return [row.get(i, Fraction(0)) for i in range(m)], [col.get(j, Fraction(0)) for j in range(n)]


def root_certificate(result) -> None:
    game = stage_matrix(result.spec, result.value_table, ROOT_CLASS)
    row, col = _root_mixtures(result)
    value = result.root_value
    if not best_row_response_value(game, col) == value == best_col_response_value(game, row):
        raise Mismatch("root certificate fails")


def check_solve(workload, op: Op, result, pin) -> dict:
    """Shared gate of a solve: root value digest always, the table digest
    where the keys are the pinned ones, the root certificate off the default
    seed."""
    obs = {"root": rational_digest(result.root_value)}
    if workload.seed == DEFAULT_SEED or not workload.relabels:
        obs["table"] = table_digest(result.value_table)
    if workload.seed != DEFAULT_SEED:
        root_certificate(result)
    if pin is not None:
        for field, digest in obs.items():
            if pin[field] != digest:
                raise Mismatch(f"{field} digest differs from the pin")
    return obs


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    relabels = True
    checks: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops = self.build()

    def build(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, value, pin) -> dict:
        """Raise Mismatch or ExpectedFailure, or return what was observed."""
        raise NotImplementedError

    def start_pass(self) -> None:
        pass

    def check_pass(self, pin) -> dict:
        """Checks across the ops of one pass; returns the pass observation."""
        return {}

    def applied_checks(self) -> list[str]:
        rules = []
        if self.seed == DEFAULT_SEED or not self.relabels:
            rules.append("full value-table digest")
        if self.seed != DEFAULT_SEED:
            rules.append("root certificate")
        return [c.replace("{table-or-certificate}", " and ".join(rules)) for c in self.checks]

    def close(self) -> None:
        pass


class DenseBignum(Workload):
    """``teamcomp solve <spec.json>`` in-process on dense majority contests
    whose root denominators run to tens of thousands of bits."""

    name = "dense_bignum"
    relabels = False
    shapes = ((4, 6, 6), (4, 5, 5), (5, 6, 5), (3, 6, 6))  # (T, m, n), cycled
    count = 7
    checks = (
        "{table-or-certificate} of the solve cli.main ran",
        "root value digest",
        "cli stdout root_value equals the solved value",
        "an op fails exactly when a root number exceeds the int-to-string limit, "
        "and then only with that ValueError",
    )

    def build(self) -> list[Op]:
        self.captured = None
        original = teamcomp.cli.solve

        # Pass-through at cli's binding site so the gate sees the value table
        # behind the printed answer; one extra call per op.
        def capture(*args, **kwargs):
            self.captured = original(*args, **kwargs)
            return self.captured

        self._restore = original
        teamcomp.cli.solve = capture
        ops = []
        for k in range(self.count):
            rounds, m, n = self.shapes[k % len(self.shapes)]
            rows = teamcomp.explorer.random_strength_rows(random.Random(DEFAULT_SEED + k), m, n, 6)
            doc = document_from_spec(make_spec(rounds, rows, "UM"))
            if self.seed != DEFAULT_SEED:
                rng = random.Random(f"dense:{k}:{self.seed}")
                doc["P"] = [[respell(q, rng) for q in row] for row in doc["P"]]
                doc["U"] = [respell(q, rng) for q in doc["U"]]
            path = os.path.join(self.workdir, f"dense_{k:02d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            ops.append(Op(f"k{k:02d}:T{rounds}:{m}x{n}", self._op(path)))
        return ops

    def _op(self, path: str):
        def call():
            self.captured = None
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = teamcomp.cli.main(["solve", path])
            except ValueError as exc:
                return exc, None
            return code, out.getvalue()

        return call

    def check(self, op: Op, value, pin) -> dict:
        outcome, stdout = value
        result = self.captured
        if result is None:
            raise Mismatch(f"no solve result ({outcome!r})")
        obs = check_solve(self, op, result, pin)
        row, col = _root_mixtures(result)
        numbers = [result.root_value, *row, *col]
        too_long = _STR_LIMIT is not None and any(
            abs(q.numerator) >= _STR_LIMIT or q.denominator >= _STR_LIMIT for q in numbers
        )
        obs["fails"] = too_long
        if pin is not None and self.seed == DEFAULT_SEED and pin["fails"] != too_long:
            raise Mismatch("root number sizes differ from the pin")
        if isinstance(outcome, ValueError):
            if too_long and "integer string conversion" in str(outcome):
                raise ExpectedFailure(str(outcome).split(";")[0], obs)
            raise Mismatch(f"unexpected ValueError: {outcome}")
        if outcome != 0 or too_long:
            raise Mismatch(f"exit code {outcome} with root numbers over the limit: {too_long}")
        if Fraction(json.loads(stdout)["root_value"]) != result.root_value:
            raise Mismatch("printed root_value differs from the solved value")
        return obs

    def close(self) -> None:
        teamcomp.cli.solve = self._restore


class RecruitLadder(Workload):
    """``solver.solve`` on the theorem-4 ladders: identity ladders plus
    always-losing recruits, 0/1 entries and up to 108k history classes."""

    name = "recruit_ladder"
    # (example, T, recruit counts).  The sharp count is T-1 for ex4 (UE) and
    # floor(T/2) for ex5 (UM).  ex4:5 runs only 3 recruits (108k classes,
    # still on the floor): 4 and 5 recruits (207k and 368k classes, 10 s and
    # 20 s) would not leave a pass short enough for the run length.
    ladders = (
        ("ex4", 4, range(0, 5)),
        ("ex5", 4, range(0, 4)),
        ("ex5", 5, range(0, 4)),
        ("ex4", 5, (3,)),
    )
    checks = (
        "{table-or-certificate} of every solve",
        "root value digest",
        "root value at the floor (-T/2 under UE, -1 under UM) below the sharp count, "
        "strictly above it at the sharp count, unchanged one recruit past it",
    )

    def build(self) -> list[Op]:
        ops = []
        for example, rounds, counts in self.ladders:
            for r in counts:
                base = add_dominated(named_instance(f"{example}:{rounds}"), r)
                spec = relabel(base, self.seed, f"ladder:{example}:{rounds}:{r}")
                ops.append(
                    Op(
                        f"{example}:{rounds}+{r}",
                        lambda spec=spec: teamcomp.solver.solve(spec),
                        example=example,
                        rounds=rounds,
                        recruits=r,
                    )
                )
        return ops

    def check(self, op: Op, result, pin) -> dict:
        obs = check_solve(self, op, result, pin)
        self.values[op.name] = result.root_value
        return obs

    def check_pass(self, pin) -> dict:
        for op in self.ops:
            ex, rounds, r = op.info["example"], op.info["rounds"], op.info["recruits"]
            if op.name not in self.values:
                continue
            value = self.values[op.name]
            floor = -Fraction(rounds, 2) if ex == "ex4" else Fraction(-1)
            sharp = rounds - 1 if ex == "ex4" else rounds // 2
            if r < sharp and value != floor:
                raise Mismatch(f"{op.name} is off the floor")
            if r == sharp and not value > floor:
                raise Mismatch(f"{op.name} does not rise at the sharp count")
            if r == sharp + 1 and value != self.values.get(f"{ex}:{rounds}+{sharp}"):
                raise Mismatch(f"{op.name} changes past the sharp count")
        return {}

    def start_pass(self) -> None:
        self.values = {}


class RecruitSweep(Workload):
    """``explorer.max_gain`` over a prefix of the acceptance sweep's two
    seeded instance streams: many small solves and small LPs."""

    name = "recruit_sweep"
    # (utility, stream config of the acceptance sweep, prefix length)
    streams = (
        ("UM", SearchConfig(seed=0, instances=300, t_range=(2, 4), m_range=(2, 5), utility="UM"), 14),
        ("UE", SearchConfig(seed=0, instances=200, t_range=(2, 4), m_range=(2, 4), utility="UE"), 14),
    )
    bounds = {"UM": Fraction(2, 3), "UE": Fraction(1)}
    checks = (
        "digest of each record's base value, best value and recruit count",
        "0 <= gain <= conjectured bound (2/3 UM, 1 UE)",
        "witness (first record with the largest gain) of each stream",
    )

    def build(self) -> list[Op]:
        ops = []
        for utility, config, prefix in self.streams:
            for index in range(prefix):
                ops.append(
                    Op(
                        f"{utility}[{index}]",
                        self._op(utility, config, index),
                        utility=utility,
                    )
                )
        return ops

    def _op(self, utility: str, config: SearchConfig, index: int):
        def call():
            spec = teamcomp.explorer.generate_instance(config, index)
            spec = relabel(spec, self.seed, f"sweep:{utility}:{index}")
            cap = default_recruit_cap(spec.rounds, utility)
            return teamcomp.explorer.max_gain(spec, cap, index=index, utility_name=utility)

        return call

    def check(self, op: Op, record, pin) -> dict:
        gain = record.gain
        if not 0 <= gain <= self.bounds[op.info["utility"]]:
            raise Mismatch(f"gain {gain} outside [0, bound]")
        obs = {
            "record": rational_digest(
                record.base_value, record.best_value, Fraction(record.recruits_used)
            )
        }
        if pin is not None and pin != obs:
            raise Mismatch("record digest differs from the pin")
        self.gains[op.name] = gain
        return obs

    def start_pass(self) -> None:
        self.gains = {}

    def check_pass(self, pin) -> dict:
        witness = {}
        for utility, _config, prefix in self.streams:
            names = [f"{utility}[{i}]" for i in range(prefix)]
            if not all(name in self.gains for name in names):
                continue
            best = max(self.gains[name] for name in names)
            witness[utility] = next(i for i, name in enumerate(names) if self.gains[name] == best)
        if pin is not None and witness != pin:
            raise Mismatch(f"witness {witness} differs from the pin {pin}")
        return witness


class VerifySuite(Workload):
    """The checkers behind ``teamcomp verify`` on the CLI's seeded
    generators, plus the Monte Carlo cross-check on card and ex3 (UM)."""

    name = "verify_suite"
    instances = 5  # per generated suite; ``teamcomp verify`` defaults to 10
    samples = 50_000
    checks = (
        "checker verdict equals the expected verdict",
        "digest of each checker report's values",
        "exact values card = -1/3 and ex3 (UM) = 0, and the Monte Carlo mean within 4 stderr",
    )

    def build(self) -> list[Op]:
        an = teamcomp.analysis
        ex = teamcomp.explorer
        ops: list[Op] = []

        def add(name, checker, *args, expected=True):
            call = lambda: getattr(an, checker)(*args)
            ops.append(Op(name, call, expected=expected))

        def rng(suite, index):
            # Same stream as ``teamcomp verify --seed 0``.
            return random.Random(f"{DEFAULT_SEED}:{suite}:{index}")

        def mixed(spec, tag, head=None):
            return relabel(spec, self.seed, f"verify:{tag}", head)

        for i in range(self.instances):
            r = rng("theorem1", i)
            rounds = r.choice([2, 3, 4])
            spec = ex.random_square_spec(r, rounds, 6, r.choice(["UE", "UM"]))
            add(f"theorem1[{i}]", "check_theorem1", mixed(spec, f"t1:{i}"))
        for i in range(self.instances):
            r = rng("theorem2", i)
            rounds = r.choice([2, 3, 4])
            m = r.randint(rounds, min(6, rounds + 2))
            n = r.randint(rounds, min(6, rounds + 2))
            spec = mixed(
                ex.random_transitive_spec(r, rounds, m, n, 6, r.choice(["UE", "UM"])), f"t2:{i}"
            )
            add(f"theorem2[{i}]team1", "check_theorem2", spec, 1)
            add(f"theorem2[{i}]team2", "check_theorem2", spec, 2)
            add(f"corollary1[{i}]", "check_corollary1", spec)
        for i in range(self.instances):
            r = rng("theorem3", i)
            rounds = r.choice([2, 3])
            spec = ex.random_weak_tail_spec(r, rounds, rounds + r.randint(1, 2), 6)
            add(f"theorem3[{i}]", "check_theorem3", mixed(spec, f"t3:{i}", rounds))
        contrast = mixed(named_instance("ex3", "UM"), "t3:contrast", 3)
        add("theorem3[contrast:UM]", "check_theorem3", contrast, expected=False)
        for i in range(self.instances):
            r = rng("lemma2", i)
            spec = ex.random_square_spec(r, r.choice([2, 3]), 6, "UE")
            add(f"lemma2[{i}]", "check_lemma2", mixed(spec, f"l2:{i}"))
        for i in range(self.instances):
            r = rng("lemma5", i)
            rounds = r.choice([2, 3])
            spec = ex.random_weak_tail_spec(r, rounds, rounds + r.randint(1, 2), 6)
            add(f"lemma5[{i}]", "check_lemma5", mixed(spec, f"l5:{i}", rounds))
        add("lemma6[Cmax=4]", "check_lemma6", 4)

        # Monte Carlo inputs are solved here, in set-up; the op is the sampling.
        for name, utility, exact, head in (("card", None, Fraction(-1, 3), None), ("ex3", "UM", Fraction(0), 3)):
            spec = mixed(named_instance(name, utility), f"mc:{name}", head)
            result = solve(spec)
            if result.root_value != exact:
                raise Mismatch(f"{name} is worth {result.root_value}, expected {exact}")
            args = (spec, result.strategy1, result.strategy2, result.root_value, self.samples, self.seed)
            ops.append(
                Op(
                    f"simulate[{name}]",
                    lambda args=args: teamcomp.montecarlo.simulate_competitions(*args),
                    exact=exact,
                )
            )
        return ops

    def check(self, op: Op, report, pin) -> dict:
        if op.name.startswith("simulate["):
            if report.exact_value != op.info["exact"] or not report.within_four_stderr:
                raise Mismatch("Monte Carlo estimate disagrees with the exact value")
            return {}
        if report.passed != op.info["expected"]:
            raise Mismatch(f"verdict {report.passed}, expected {op.info['expected']}")
        keys = sorted(report.values)
        obs = {
            "passed": report.passed,
            "values": hashlib.sha256(
                (json.dumps(keys) + rational_digest(*(report.values[k] for k in keys))).encode()
            ).hexdigest(),
        }
        if pin is not None and pin != obs:
            raise Mismatch("report values differ from the pin")
        return obs


WORKLOADS = {w.name: w for w in (DenseBignum, RecruitLadder, RecruitSweep, VerifySuite)}
