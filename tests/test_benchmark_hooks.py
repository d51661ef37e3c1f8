"""The benchmark's tracer must find every layer function it wraps.

``perfbench/tracer.py`` replaces layer functions at the modules that bind
them by name.  A binding that a refactor drops is skipped silently and that
layer's metrics then read zero, so every binding site is checked here.
"""

import importlib
import sys
from math import comb
from pathlib import Path

import pytest

from teamcomp import solver
from teamcomp.analysis import add_dominated
from teamcomp.instances import named_instance
from teamcomp.model import ROOT_CLASS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_every_site():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = {
        (short, attr): getattr(importlib.import_module(f"teamcomp.{short}"), attr, None)
        for attr, modules in tracer.SITES.values()
        for short in modules
    }
    assert [site for site, fn in originals.items() if not callable(fn)] == []

    installed = tracer.Tracer()
    installed.install()
    try:
        assert installed.missing == []
    finally:
        installed.uninstall()
    for (short, attr), original in originals.items():
        assert getattr(importlib.import_module(f"teamcomp.{short}"), attr) is original


@pytest.mark.parametrize("utility", ["UE", "UM"])
def test_solve_routes_every_stage_game_through_both_bindings(monkeypatch, utility):
    # The tracer's stage-matrix and matrix metrics come from wrapping
    # ``solver.stage_matrix`` and ``solver.solve_matrix``; a solve that built
    # or solved a stage game any other way would read zero there.  Each game
    # solved must come from the call just before it, once per decision class
    # that is not a translate of a lower win count at its round.  ex3's
    # players are pairwise distinct types, so no two classes share a game.
    spec = named_instance("ex3", utility)
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    rows = spec.strength.entries
    assert len(set(rows)) == m and len(set(zip(*rows))) == n
    utility_values = spec.utility.values
    events = []
    build, solve_game = solver.stage_matrix, solver.solve_matrix

    def counting_build(*args):
        game = build(*args)
        events.append(("stage_matrix", game))
        return game

    def counting_solve(game, **kwargs):
        events.append(("solve_matrix", game))
        return solve_game(game, **kwargs)

    monkeypatch.setattr(solver, "stage_matrix", counting_build)
    monkeypatch.setattr(solver, "solve_matrix", counting_solve)
    solver.solve(spec)

    solved = 0
    for k in range(rounds):
        shapes = set()
        for wins in range(k + 1):
            rest = utility_values[wins : wins + rounds - k + 1]
            shapes.add(tuple(u - rest[0] for u in rest))
        solved += comb(m, k) * comb(n, k) * len(shapes)
    assert [name for name, _game in events] == ["stage_matrix", "solve_matrix"] * solved
    assert all(built is used for (_, built), (_, used) in zip(events[::2], events[1::2]))


def test_reads_solve_one_game_per_copy_key(monkeypatch):
    # Reading both teams' mixtures at every decision class solves one game
    # per copy key, as the value pass does: this ladder's 66,085 decision
    # classes share 1,899 games (counted from its strength rows in
    # test_solver), the root's among them.
    spec = add_dominated(named_instance("ex4:5"), 3)
    solve_game, mixed = solver.solve_matrix, []

    def counting_solve(game, mixtures=True):
        if mixtures:
            mixed.append(game)
        return solve_game(game, mixtures=mixtures)

    monkeypatch.setattr(solver, "solve_matrix", counting_solve)
    result = solver.solve(spec)
    for key in result.strategy1.moves:
        result.strategy1.moves[key], result.strategy2.moves[key]
    assert len(result.strategy1.moves) == 66_085
    assert len(mixed) == 1_899


@pytest.mark.parametrize("name", ["ex3", "ex5:4"])
def test_mixtures_solved_at_the_root_and_on_first_read(monkeypatch, name):
    # ``solve`` asks every stage game below the root for its value alone and
    # the root's, last, for its mixtures.  Reading both teams' mixtures at
    # another class builds and solves that class's game once, with mixtures;
    # a second read and a read at the root solve nothing.
    spec = named_instance(name)
    build, solve_game = solver.stage_matrix, solver.solve_matrix
    events = []

    def counting_build(*args):
        game = build(*args)
        events.append(("stage_matrix", game, args[2]))
        return game

    def counting_solve(game, **kwargs):
        events.append(("solve_matrix", game, kwargs))
        return solve_game(game, **kwargs)

    monkeypatch.setattr(solver, "stage_matrix", counting_build)
    monkeypatch.setattr(solver, "solve_matrix", counting_solve)
    result = solver.solve(spec)
    builds, solves = events[::2], events[1::2]
    assert [event[0] for event in events] == ["stage_matrix", "solve_matrix"] * len(solves)
    assert all(built[1] is used[1] for built, used in zip(builds, solves))
    assert [kwargs for *_, kwargs in solves] == [{"mixtures": False}] * (len(solves) - 1) + [{}]
    assert builds[-1][2] == ROOT_CLASS

    key = next(iter(result.strategy1.moves))
    assert key != ROOT_CLASS
    events.clear()
    moves = result.strategy1.moves[key], result.strategy2.moves[key]
    assert [event[0] for event in events] == ["stage_matrix", "solve_matrix"]
    assert events[0][2] == key and events[0][1] is events[1][1] and events[1][2] == {}
    events.clear()
    assert (result.strategy1.moves[key], result.strategy2.moves[key]) == moves
    result.strategy1.moves[ROOT_CLASS], result.strategy2.moves[ROOT_CLASS]
    assert events == []
