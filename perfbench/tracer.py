"""Span tracing for the traced benchmark run, installed from outside the package.

Every layer function is replaced, at each module that binds it by name, with a
wrapper that records one span (name, start, end, parent).  ``solver.solve``
looks ``stage_matrix`` and ``solve_matrix`` up through its module globals, and
``analysis``, ``explorer`` and ``cli`` bind ``solve``, the checkers and the
other helpers by name, so patching those binding sites catches every call.
Work done only to classify a call (for example the saddle test) runs after
the span has closed, so it never counts as layer time.

Spans are kept in flat arrays and written once, when the run ends.
"""

from __future__ import annotations

import array
import importlib
import json
from collections import Counter
from time import perf_counter

from teamcomp.solver import class_count

CHECKERS = (
    "check_theorem1",
    "check_theorem2",
    "check_corollary1",
    "check_theorem3",
    "check_lemma2",
    "check_lemma5",
    "check_lemma6",
)

# span name -> (attribute, modules binding it).  A binding a later refactor
# removes is skipped; its metrics then read 0.
SITES = {
    "matrix.solve_matrix": ("solve_matrix", ("solver",)),
    "solver.stage_matrix": ("stage_matrix", ("solver", "analysis")),
    "solver.solve": ("solve", ("solver", "analysis", "explorer", "cli")),
    "solver.evaluate_fixed": ("evaluate_fixed", ("analysis", "cli")),
    "solver.uniform_strategy": ("uniform_strategy", ("analysis", "cli")),
    "solver.enumerate_pure_strategies": ("enumerate_pure_strategies", ("analysis",)),
    "solver.meeting_probabilities": ("meeting_probabilities", ("analysis",)),
    "solver.matching_distribution": ("matching_distribution", ("analysis",)),
    "solver.max_meeting_probability": ("max_meeting_probability", ("analysis",)),
    **{f"analysis.{name}": (name, ("analysis", "cli")) for name in CHECKERS},
    "explorer.generate_instance": ("generate_instance", ("explorer",)),
    "explorer.max_gain": ("max_gain", ("explorer",)),
    "montecarlo.simulate_competitions": ("simulate_competitions", ("montecarlo", "cli")),
    "model.load_spec": ("load_spec", ("cli",)),
    "model.format_rational": ("format_rational", ("cli", "analysis", "explorer")),
    "cli.main": ("main", ("cli",)),
}
GENERATORS = {"solver.enumerate_pure_strategies"}

# Counts that must repeat exactly between two traced passes over the same ops.
DETERMINISTIC = (
    "solver.classes",
    "matrix.saddle_hits",
    "matrix.lp_calls",
    "matrix.max_den_bits",
    "solver.enumerate_pure_strategies.yielded",
    "explorer.solves_per_instance",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        # Time a wrapper spends outside its own span (bookkeeping and the
        # after-hooks); it lands inside the parent span and is taken out again.
        self.span_wrap = array.array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.span_wrap.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        self.span_end[idx] = end = perf_counter()
        self._stack.pop()
        return end - self.span_start[idx]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; the benchmark uses this for each op."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            enter = perf_counter()
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                duration = self._close(idx)
                self.counters[name + ".failed"] += 1
                self.counters[f"{name}.failed.{getattr(exc, 'code', type(exc).__name__)}"] += 1
                self.span_wrap[idx] = perf_counter() - enter - duration
                raise
            duration = self._close(idx)
            if after is not None:
                after(self.counters, args, kwargs, result, duration)
            self.span_wrap[idx] = perf_counter() - enter - duration
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumes():
                while True:
                    enter = perf_counter()
                    idx = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self.span_wrap[idx] = perf_counter() - enter - self._close(idx)
                        return
                    except BaseException:
                        self.span_wrap[idx] = perf_counter() - enter - self._close(idx)
                        raise
                    duration = self._close(idx)
                    self.counters[name + ".yielded"] += 1
                    self.span_wrap[idx] = perf_counter() - enter - duration
                    yield item

            return resumes()

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, (attr, modules) in SITES.items():
            found = False
            for short in modules:
                module = importlib.import_module(f"teamcomp.{short}")
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrap = self._wrap_generator if name in GENERATORS else self._wrap
                setattr(module, attr, wrap(name, original))
                self._patches.append((module, attr, original))
                found = True
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset.

        Every span name gets ``.calls``, ``.s`` (total time), ``.self_s``
        (time not covered by child spans) and ``.failed``; the layer-specific
        counts follow.  The caller picks the names it reports.
        """
        count = len(self.span_start)
        # Children start after their parent, so a reverse scan sees every
        # child first.  A span's time excludes the tracing done inside it.
        inner_overhead = [0.0] * count
        for i in reversed(range(count)):
            parent = self.span_parent[i]
            if parent >= 0:
                inner_overhead[parent] += self.span_wrap[i] + inner_overhead[i]
        durations = [
            self.span_end[i] - self.span_start[i] - inner_overhead[i] for i in range(count)
        ]
        child_time = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        for i in range(count):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            total[name] += durations[i]
            self_time[name] += durations[i] - child_time[i]

        # Solves made inside a recruiting search, for solves per instance.
        solve_id = self._ids.get("solver.solve")
        gain_id = self._ids.get("explorer.max_gain")
        nested_solves = 0
        for i in range(count):
            if self.span_name[i] != solve_id:
                continue
            parent = self.span_parent[i]
            while parent >= 0 and self.span_name[parent] != gain_id:
                parent = self.span_parent[parent]
            nested_solves += parent >= 0

        c = self.counters
        out: dict[str, float] = {}
        for name in (*SITES, "op"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_time[name]
            out[f"{name}.failed"] = c[f"{name}.failed"]
        out.update(
            {
                "matrix.saddle_hits": c["saddle_hits"],
                "matrix.saddle_ratio": _ratio(c["saddle_hits"], calls["matrix.solve_matrix"]),
                "matrix.saddle_s": c["saddle_s"],
                "matrix.lp_calls": calls["matrix.solve_matrix"] - c["saddle_hits"],
                "matrix.lp_s": c["lp_s"],
                "matrix.lp_cells": c["lp_cells"],
                "matrix.max_den_bits": c["max_den_bits"],
                "solver.classes": c["classes"],
                "solver.enumerate_pure_strategies.yielded": c[
                    "solver.enumerate_pure_strategies.yielded"
                ],
                "analysis.self_s": sum(
                    t for name, t in self_time.items() if name.startswith("analysis.")
                ),
                "analysis.enum_useful_ratio": _ratio(
                    calls["solver.meeting_probabilities"] + calls["solver.matching_distribution"],
                    c["solver.enumerate_pure_strategies.yielded"],
                ),
                "explorer.solves_per_instance": _ratio(nested_solves, calls["explorer.max_gain"]),
                "explorer.skipped": c["explorer.max_gain.failed.BUDGET"]
                + c["explorer.max_gain.failed.SIZE"],
                "montecarlo.samples_per_s": _ratio(
                    c["samples"], total["montecarlo.simulate_competitions"]
                ),
            }
        )
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then the span columns as raw native arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "columns": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
            "clock": "time.perf_counter, seconds",
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _after_solve_matrix(c: Counter, args, kwargs, solution, duration: float) -> None:
    game = args[0] if args else kwargs["game"]
    payoff = game.payoff
    maximin = max(min(row) for row in payoff)
    minimax = min(max(col) for col in zip(*payoff))
    if maximin == minimax:
        c["saddle_hits"] += 1
        c["saddle_s"] += duration
    else:
        c["lp_s"] += duration
        c["lp_cells"] += len(payoff) * len(payoff[0])
    bits = max(
        w.denominator.bit_length()
        for w in (solution.value, *solution.row_strategy, *solution.col_strategy)
    )
    if bits > c["max_den_bits"]:
        c["max_den_bits"] = bits


def _after_solve(c: Counter, args, kwargs, result, duration: float) -> None:
    spec = result.spec
    c["classes"] += class_count(spec.team1_size, spec.team2_size, spec.rounds)


def _after_simulate(c: Counter, args, kwargs, estimate, duration: float) -> None:
    c["samples"] += estimate.samples


def _after_main(c: Counter, args, kwargs, code, duration: float) -> None:
    if code != 0:
        c["cli.main.failed"] += 1


_AFTER = {
    "matrix.solve_matrix": _after_solve_matrix,
    "solver.solve": _after_solve,
    "montecarlo.simulate_competitions": _after_simulate,
    "cli.main": _after_main,
}
