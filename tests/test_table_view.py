"""The class-indexed views: the value table and the moves of equilibrium,
uniform and top-block play.

Each view is checked against a per-class dict built class by class, the way
``solve``, ``uniform_strategy`` and ``top_block_uniform_strategy`` once built
theirs: same keys in the same order, same entries, same length, and the same
answer to ``in``, ``.get`` and ``[]`` on keys that name no class.
"""

import itertools
import random
from fractions import Fraction

import pytest

from teamcomp import solver
from teamcomp.analysis import add_dominated, classify, top_block_uniform_strategy
from teamcomp.explorer import random_strength_rows, random_transitive_spec
from teamcomp.instances import named_instance
from teamcomp.matrix import solve_matrix
from teamcomp.model import HistoryClassKey, make_spec, unplayed
from teamcomp.solver import solve, stage_matrix, uniform_strategy

UTILITIES = ["UE", "UM", ["0", "1/7", "2/7", "3/7"]]


def masks(size, k):
    return [sum(1 << i for i in combo) for combo in itertools.combinations(range(size), k)]


def classes(spec, rounds):
    """The classes of ``rounds`` rounds played, in mask order."""
    m, n = spec.team1_size, spec.team2_size
    for k in rounds:
        for x in masks(m, k):
            for y in masks(n, k):
                for wins in range(k + 1):
                    yield HistoryClassKey(x, y, wins)


def per_class_solve(spec):
    """Values and both teams' mixtures, one dict entry per class: terminal
    classes first, then rounds T-1 down to the root, each class's stage game
    solved on its own."""
    rounds = spec.rounds
    values = {key: spec.utility.values[key.wins] for key in classes(spec, [rounds])}
    moves1, moves2 = {}, {}
    for key in classes(spec, range(rounds - 1, -1, -1)):
        solution = solve_matrix(stage_matrix(spec, values, key))
        values[key] = solution.value
        moves1[key] = dict(zip(unplayed(key.played1, spec.team1_size), solution.row_strategy))
        moves2[key] = dict(zip(unplayed(key.played2, spec.team2_size), solution.col_strategy))
    return values, moves1, moves2


def per_class_uniform(spec, team, pool):
    """Uniform play over the unused players of ``pool``, one entry per class,
    rounds ascending."""
    moves = {}
    for key in classes(spec, range(spec.rounds)):
        free = [p for p in pool if not (key[team - 1] >> p) & 1]
        moves[key] = {p: Fraction(1, len(free)) for p in free}
    return moves


def relabelled_transitive(utility):
    """A T=3 5x4 contest where both teams are strength chains, with players
    shuffled so that neither team's top block is its lowest indices."""
    rng = random.Random("table view")
    spec = random_transitive_spec(rng, 3, 5, 4, 6, utility)
    rows, cols = list(range(5)), list(range(4))
    rng.shuffle(rows)
    rng.shuffle(cols)
    entries = spec.strength.entries
    return make_spec(3, [[entries[i][j] for j in cols] for i in rows], utility)


CONTESTS = {
    "ex4:4": lambda: named_instance("ex4:4"),
    "ex5:4": lambda: named_instance("ex5:4"),
    "ex4:4+2": lambda: add_dominated(named_instance("ex4:4"), 2),
    **{
        f"dense-{utility}": lambda utility=utility: make_spec(
            3, random_strength_rows(random.Random("dense view"), 4, 5, 6), utility
        )
        for utility in UTILITIES
    },
    **{
        f"transitive-{utility}": lambda utility=utility: relabelled_transitive(utility)
        for utility in UTILITIES
    },
}


def views(spec):
    """Each view of ``spec`` beside its per-class dict."""
    result = solve(spec)
    values, moves1, moves2 = per_class_solve(spec)
    pairs = [
        (result.value_table, values),
        (result.strategy1.moves, moves1),
        (result.strategy2.moves, moves2),
    ]
    for team in (1, 2):
        everyone = range(spec.team_size(team))
        pairs.append((uniform_strategy(spec, team).moves, per_class_uniform(spec, team, everyone)))
    return pairs


def top_block_views(spec):
    """Top-block play beside uniform play over each team's strongest T
    players, read off the strength chains."""
    pairs = []
    for team in (1, 2):
        pool = sorted(classify(spec)[team - 1].order[::-1][: spec.rounds])
        assert pool != list(range(spec.rounds))
        top = top_block_uniform_strategy(spec, team)
        pairs.append((top.moves, per_class_uniform(spec, team, pool)))
    return pairs


def missing_keys(spec):
    """Keys that name no class."""
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    one1, one2 = masks(m, 1)[0], masks(n, 1)[0]
    return [
        (one1, 0, 0),  # unequal popcounts
        (0, one2, 0),
        (1 << m, one2, 0),  # a mask past the roster
        (one1, 1 << n, 0),
        (one1, one2, -1),  # negative wins
        (0, 0, -1),
        (one1, one2, 2),  # wins > k
        (0, 0, 1),
        (masks(m, rounds)[0], masks(n, rounds)[0], rounds + 1),
        (0, 0),
        (0, 0, 0, 0),
    ]


def assert_same_map(view, expected):
    assert list(view) == list(expected)
    assert all(type(key) is HistoryClassKey for key in view)
    assert list(view.values()) == list(expected.values())
    assert list(view.items()) == list(expected.items())
    assert len(view) == len(expected)
    assert view == expected


def assert_missing(view, expected, key):
    assert key not in expected
    assert key not in view
    assert view.get(key, "absent") == "absent"
    with pytest.raises(KeyError):
        view[key]


@pytest.mark.parametrize("name", list(CONTESTS))
def test_views_match_per_class_dicts(name):
    spec = CONTESTS[name]()
    pairs = views(spec)
    if name.startswith("transitive"):
        pairs += top_block_views(spec)
    # A terminal class has a value but no move.
    rounds = spec.rounds
    last1, last2 = masks(spec.team1_size, rounds)[-1], masks(spec.team2_size, rounds)[-1]
    terminal = HistoryClassKey(last1, last2, 0)
    for view, expected in pairs:
        assert_same_map(view, expected)
        for key in missing_keys(spec):
            assert_missing(view, expected, key)
    for view, expected in pairs[1:]:
        assert_missing(view, expected, terminal)
    assert pairs[0][0][terminal] == spec.utility.values[0]


def test_solve_builds_one_class_key_per_stage_game(monkeypatch):
    # The value pass names a class only to build its stage game: 1,899
    # games at most (counted in test_solver), not one key per class.
    spec = add_dominated(named_instance("ex4:5"), 3)
    built = []

    def counting(*fields):
        built.append(fields)
        return HistoryClassKey(*fields)

    monkeypatch.setattr(solver, "HistoryClassKey", counting)
    result = solve(spec)
    assert len(built) <= 1_899
    monkeypatch.undo()
    m, n, rounds = spec.team1_size, spec.team2_size, spec.rounds
    assert len(result.value_table) == solver.class_count(m, n, rounds)
