"""Agent profit rows and the argmax best-response rule.

The rows come from the reference ``profit_row`` on the test-side Fraction
board (``tests/_replay.py``); the best response is their ``np.argmax``, and
the engine's first turn is checked against it.
"""

import numpy as np
import pytest

from _replay import apply_selection, new_board, profit_row
from tacosim.agent import AgentPrivate
from tacosim.engine import TacoConfig, run_interrupted
from tacosim.scenario import example2_fixture


def best_response(agent, board):
    return int(np.argmax(profit_row(agent, board)))


def test_profit_row_fixture_initial():
    problem = example2_fixture()
    agents = problem.agents()
    board = new_board(2, 2, 1)
    np.testing.assert_allclose(profit_row(agents[0], board), [-10.0, -4.0])
    np.testing.assert_allclose(profit_row(agents[1], board), [-7.0, -9.0])


def test_profit_row_fixture_after_turns():
    problem = example2_fixture()
    agents = problem.agents()
    board = new_board(2, 2, 1)
    apply_selection(board, 0, 1)
    # Agent 0 paid 2 on choice 1 and got offered 1, so its net there is -1.
    np.testing.assert_allclose(profit_row(agents[0], board), [-10.0, -4.8])
    np.testing.assert_allclose(profit_row(agents[1], board), [-7.0, -7.8])
    apply_selection(board, 1, 0)
    np.testing.assert_allclose(profit_row(agents[0], board), [-9.2, -4.8])
    np.testing.assert_allclose(profit_row(agents[1], board), [-8.2, -7.8])


def test_profit_row_zero_net():
    costs = np.array([3.0, 1.0, 2.0])
    agent = AgentPrivate(index=0, valuation=1.5, cost_row=costs)
    np.testing.assert_allclose(profit_row(agent, new_board(1, 3, 1)), -costs)


def test_best_response_fixture():
    problem = example2_fixture()
    agents = problem.agents()
    board = new_board(2, 2, 1)
    assert best_response(agents[0], board) == 1
    apply_selection(board, 0, 1)
    assert best_response(agents[1], board) == 0
    apply_selection(board, 1, 0)
    assert best_response(agents[0], board) == 1
    outcome = run_interrupted(TacoConfig(epsilon=1e-6), agents, 3)
    assert [ts.selection for ts in outcome.trace] == [1, 0, 1]


def test_best_response_tie_takes_lowest():
    agent = AgentPrivate(index=0, valuation=1.0, cost_row=np.array([2.0, 2.0, 5.0]))
    board = new_board(1, 3, 1)
    assert best_response(agent, board) == 0
    for backend in ("exact", "numpy"):
        outcome = run_interrupted(TacoConfig(epsilon=1e-6), [agent], 1, backend=backend)
        assert outcome.trace[0].selection == 0


def test_best_response_cost_shift_invariance():
    # Adding a constant to every cost never changes the argmax.
    rng = np.random.default_rng(11)
    for _ in range(50):
        board = new_board(2, 5, 1)
        for _ in range(int(rng.integers(1, 12))):
            apply_selection(board, 1, int(rng.integers(5)))
        costs = rng.random(5) * 10.0
        a = AgentPrivate(index=0, valuation=float(rng.random() + 0.5), cost_row=costs)
        b = AgentPrivate(index=0, valuation=a.valuation, cost_row=costs + 123.25)
        assert best_response(a, board) == best_response(b, board)


def test_agent_validation():
    with pytest.raises(ValueError):
        AgentPrivate(index=0, valuation=0.0, cost_row=np.array([1.0]))
    with pytest.raises(ValueError):
        AgentPrivate(index=-1, valuation=1.0, cost_row=np.array([1.0]))
    with pytest.raises(ValueError):
        AgentPrivate(index=0, valuation=1.0, cost_row=np.eye(2))


def test_cost_row_is_a_tuple_of_floats():
    # Arrays, lists and tuples all become one tuple of floats, which the
    # engine reads as it is.
    for row in (np.array([1.0, 2.5]), [1, 2.5], (1.0, 2.5)):
        agent = AgentPrivate(index=0, valuation=1.0, cost_row=row)
        assert agent.cost_row == (1.0, 2.5)
        assert type(agent.cost_row) is tuple
        assert all(type(x) is float for x in agent.cost_row)
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
        AgentPrivate(index=0, valuation=1.0, cost_row=[[1.0, 2.0], [3.0, 4.0]])
    # A string is one number to numpy, not a row of its characters.
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(\)"):
        AgentPrivate(index=0, valuation=1.0, cost_row="12")
    # Arrays are refused with numpy's own shape, computed without numpy.
    for row in (np.ones((2, 1)), np.array(5.0), np.float64(5.0), iter([1.0, 2.0])):
        with pytest.raises(ValueError) as err:
            AgentPrivate(index=0, valuation=1.0, cost_row=row)
        assert str(err.value) == f"cost_row must be one-dimensional, got shape {np.shape(row)}"


def test_profit_row_dimension_check():
    agent = AgentPrivate(index=0, valuation=1.0, cost_row=np.array([1.0, 2.0, 3.0]))
    board = new_board(1, 2, 1)
    with pytest.raises(ValueError):
        profit_row(agent, board)
