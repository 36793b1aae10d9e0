"""Comparison mechanisms and the shared problem container."""

import math

import numpy as np
import pytest

from _oracles import C_of, b_of
from tacosim.baselines import (
    ChoiceProblem,
    egalitarian,
    random_dictator,
    utilitarian,
    voting,
)
from tacosim.metrics import optimality_gap
from tacosim.scenario import example2_fixture, random_problem


def test_choice_problem_validation():
    C = np.ones((2, 3))
    b = np.ones(2)
    ChoiceProblem(n=2, m=3, C=C, b=b)
    with pytest.raises(ValueError):
        ChoiceProblem(n=2, m=2, C=C, b=b)
    with pytest.raises(ValueError):
        ChoiceProblem(n=2, m=3, C=C, b=np.ones(3))
    with pytest.raises(ValueError):
        ChoiceProblem(n=2, m=3, C=C, b=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ChoiceProblem(n=2, m=3, C=C * np.inf, b=b)
    with pytest.raises(ValueError):
        ChoiceProblem(n=2, m=3, C=C, b=b, option_labels=["only-one"])


def test_choice_problem_checks_lists_like_arrays():
    # Rows and b in Python, with the checks and messages of the array path.
    ones = [[1.0] * 3] * 2
    positive = "valuations b must be positive elementwise"
    cases = [
        (dict(n=2, m=2, C=ones, b=[1.0, 1.0]), "C has shape (2, 3), expected (2, 2)"),
        (dict(n=2, m=3, C=ones, b=[1.0] * 3), "b has shape (3,), expected (2,)"),
        (dict(n=2, m=3, C=[1.0, 1.0, 1.0], b=[1.0] * 2), "C has shape (3,), expected (2, 3)"),
        (dict(n=2, m=3, C=ones, b=[1.0, 0.0]), positive),
        (dict(n=2, m=3, C=ones, b=[1.0, math.nan]), positive),
        (dict(n=2, m=3, C=[[1.0, math.inf, 1.0]] * 2, b=[1.0] * 2), "C and b must be finite"),
        (dict(n=2, m=3, C=ones, b=[1.0, math.inf]), "C and b must be finite"),
    ]
    for kw, message in cases:
        for convert in (list, np.array):
            with pytest.raises(ValueError) as err:
                ChoiceProblem(**{**kw, "C": convert(kw["C"]), "b": convert(kw["b"])})
            assert str(err.value) == message
    with pytest.raises(ValueError):
        ChoiceProblem(n=2, m=2, C=[[1.0, 2.0], [3.0]], b=[1.0, 1.0])
    # A string is one number to numpy, not a row of its characters.
    strings = [
        (dict(n=2, m=3, C=ones, b="12"), "b has shape (), expected (2,)"),
        (dict(n=2, m=2, C=["12", "34"], b=[1.0] * 2), "C has shape (2,), expected (2, 2)"),
    ]
    for kw, message in strings:
        with pytest.raises(ValueError) as err:
            ChoiceProblem(**kw)
        assert str(err.value) == message
    # Ints are floats in the instance, which holds no array form.
    problem = ChoiceProblem(n=2, m=2, C=[[1, 2], [3, 4]], b=(1, 2))
    assert problem.rows == ((1.0, 2.0), (3.0, 4.0)) and problem.valuations == (1.0, 2.0)
    assert all(type(x) is float for x in (*problem.rows[0], *problem.valuations))
    assert problem.col_sums == (4.0, 6.0)
    assert not hasattr(problem, "C") and not hasattr(problem, "b")
    assert C_of(problem).tobytes() == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()
    assert b_of(problem).tobytes() == np.array([1.0, 2.0]).tobytes()


def test_choice_problem_agents():
    problem = example2_fixture()
    agents = problem.agents()
    assert [a.index for a in agents] == [0, 1]
    assert [a.valuation for a in agents] == [0.8, 1.2]
    np.testing.assert_array_equal(agents[0].cost_row, [10.0, 4.0])
    np.testing.assert_array_equal(agents[1].cost_row, [7.0, 9.0])
    # agents() hands out tuples: no agent can write into C.
    assert all(type(a.cost_row) is tuple for a in agents)
    with pytest.raises(TypeError):
        agents[0].cost_row[0] = -99.0
    assert C_of(problem)[0, 0] == 10.0


def test_choice_problem_is_read_only():
    # The mechanisms read C and b once per instance, so neither may change:
    # the instance holds tuples, writing raises, and the caller's arrays are
    # copied, not shared. The tests' arrays of it are read-only too.
    C = np.array([[1.0, 5.0], [1.0, 5.0]])
    b = np.ones(2)
    problem = ChoiceProblem(n=2, m=2, C=C, b=b)
    assert utilitarian(problem) == 0
    with pytest.raises(TypeError):
        problem.rows[0][0] = 9.0
    with pytest.raises(TypeError):
        problem.valuations[0] = 2.0
    with pytest.raises(ValueError):
        C_of(problem)[:, 0] = 9.0
    with pytest.raises(ValueError):
        b_of(problem)[0] = 2.0
    C[:, 0] = 9.0
    b[0] = 2.0
    assert C_of(problem)[0, 0] == 1.0 and b_of(problem)[0] == 1.0
    assert utilitarian(problem) == 0


def test_voting_fixture_is_a_fair_coin():
    # Agent 0 votes option 1, agent 1 votes option 0: a tie every time.
    problem = example2_fixture()
    seen = {voting(problem, np.random.default_rng(s)) for s in range(40)}
    assert seen == {0, 1}


def test_voting_majority_and_unanimity():
    majority = ChoiceProblem(
        n=3, m=2, C=np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]]), b=np.ones(3)
    )
    rng = np.random.default_rng(0)
    assert voting(majority, rng) == 0
    unanimous = ChoiceProblem(
        n=2, m=3, C=np.array([[5.0, 1.0, 2.0], [9.0, 0.5, 3.0]]), b=np.ones(2)
    )
    assert voting(unanimous, rng) == 1


def test_voting_personal_tie_goes_low():
    problem = ChoiceProblem(n=1, m=2, C=np.array([[1.0, 1.0]]), b=np.ones(1))
    assert voting(problem, np.random.default_rng(123)) == 0


def test_random_dictator_single_agent():
    problem = ChoiceProblem(n=1, m=3, C=np.array([[3.0, 1.0, 2.0]]), b=np.ones(1))
    assert random_dictator(problem, np.random.default_rng(5)) == 1


def test_random_dictator_fixture_support():
    problem = example2_fixture()
    seen = {random_dictator(problem, np.random.default_rng(s)) for s in range(40)}
    assert seen == {0, 1}


def test_random_dictator_identical_rows():
    problem = ChoiceProblem(
        n=3, m=3, C=np.tile([[4.0, 1.0, 6.0]], (3, 1)), b=np.ones(3)
    )
    for s in range(10):
        assert random_dictator(problem, np.random.default_rng(s)) == 1


def test_utilitarian():
    assert utilitarian(example2_fixture()) == 1  # totals [17, 13]
    tie = ChoiceProblem(n=2, m=2, C=np.array([[1.0, 2.0], [3.0, 2.0]]), b=np.ones(2))
    assert utilitarian(tie) == 0


def test_utilitarian_gap_is_zero_by_construction():
    rng = np.random.default_rng(77)
    for _ in range(30):
        problem = random_problem(int(rng.integers(1, 6)), int(rng.integers(1, 8)), rng)
        j = utilitarian(problem)
        best = C_of(problem)[:, int(C_of(problem).sum(axis=0).argmin())]
        assert optimality_gap(C_of(problem)[:, j], best) == 0.0


def test_egalitarian():
    assert egalitarian(example2_fixture()) == 1  # worst costs [10, 9]
    skewed = ChoiceProblem(
        n=2, m=2, C=np.array([[0.0, 5.0], [10.0, 5.0]]), b=np.ones(2)
    )
    assert egalitarian(skewed) == 1
