import itertools

import pytest

from teamcomp import solver
from teamcomp.instances import named_instance


@pytest.fixture
def few_reach_steps(monkeypatch):
    """Fails the test once ``solver._reach``, the prefix walk's step, has run
    more than 1,000 times."""
    calls, reach = itertools.count(1), solver._reach

    def spy(*args):
        assert next(calls) <= 1000, "the prefix walk took more than 1,000 steps"
        return reach(*args)

    monkeypatch.setattr(solver, "_reach", spy)


@pytest.fixture
def card_spec():
    return named_instance("card")


@pytest.fixture
def ex1_spec():
    return named_instance("ex1")


@pytest.fixture
def ex2_spec():
    return named_instance("ex2")


@pytest.fixture
def ex3_um():
    return named_instance("ex3", "UM")


@pytest.fixture
def ex3_ue():
    return named_instance("ex3", "UE")
