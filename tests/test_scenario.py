"""Waypoint scenario: isotonic solver, per-ordering costs, random generators."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import _oracles as ref
from _oracles import C_of, b_of, brute_isotonic, brute_ordering
from tacosim._rng import Stream
from tacosim.baselines import ChoiceProblem
from tacosim.errors import ResourceLimitError
from tacosim.scenario import (
    WaypointScenario,
    enumerate_options,
    example2_fixture,
    pava,
    random_problem,
    random_waypoint_problem,
    solve_ordering,
)


def test_pava_simple_merges():
    assert pava([1.0, 0.0], [1.0, 1.0]) == (0.5, 0.5)
    np.testing.assert_allclose(pava([1.0, 0.0], [1.0, 1.0]), [0.5, 0.5])
    np.testing.assert_allclose(pava([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]), [2.0, 2.0, 2.0])
    np.testing.assert_allclose(pava([1.0, 0.0], [3.0, 1.0]), [0.75, 0.75])
    np.testing.assert_allclose(pava([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), [1.0, 2.0, 3.0])


def test_pava_validation():
    with pytest.raises(ValueError):
        pava([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        pava([1.0, 2.0], [1.0, 0.0])


def test_pava_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(60):
        L = int(rng.integers(1, 7))
        targets = rng.normal(size=L) * 3.0
        weights = rng.random(L) + 0.1
        got = pava(targets, weights)
        want, want_obj = brute_isotonic(targets, weights)
        np.testing.assert_allclose(got, want, atol=1e-9)
        got_obj = float(np.sum(weights * (got - targets) ** 2))
        assert abs(got_obj - want_obj) <= 1e-9
        assert (np.diff(got) >= -1e-12).all()


def test_pava_bytes_match_list_reference():
    # pava and enumerate_options share one pooling loop, so comparing them
    # cannot see a change to its arithmetic; this pins it independently.
    rng = np.random.default_rng(606)
    for _ in range(300):
        L = int(rng.integers(0, 12))
        targets = rng.normal(size=L) * 3.0
        weights = rng.random(L) + 0.1
        got = pava(targets, weights)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert np.array(got).tobytes() == ref.pava(targets, weights).tobytes()


def test_pava_kkt_certificate():
    # Recover the chain-constraint multipliers from stationarity and check
    # sign and complementary slackness; this certifies optimality without
    # re-running any solver.
    rng = np.random.default_rng(202)
    for _ in range(40):
        L = int(rng.integers(2, 9))
        targets = rng.normal(size=L) * 2.0
        weights = rng.random(L) + 0.2
        v = pava(targets, weights)
        lam = 0.0
        for t in range(L - 1):
            lam = lam - 2.0 * weights[t] * (v[t] - targets[t])
            assert lam >= -1e-9
            assert abs(lam * (v[t + 1] - v[t])) <= 1e-9
        lam_end = lam - 2.0 * weights[-1] * (v[-1] - targets[-1])
        assert abs(lam_end) <= 1e-9


def test_solve_ordering_symmetric_pair():
    scenario = WaypointScenario(e=[0.0, 0.0], k=[1.0, 1.0], D=2.0)
    x = solve_ordering(scenario, (0, 1))
    assert x == (-1.0, 1.0)
    np.testing.assert_allclose(np.array(scenario.k) * np.array(x) ** 2, [1.0, 1.0])


def test_solve_ordering_single_tight_constraint():
    scenario = WaypointScenario(e=[0.0, 0.5], k=[1.0, 1.0], D=2.0)
    np.testing.assert_allclose(solve_ordering(scenario, (0, 1)), [-0.75, 0.75])


def test_solve_ordering_inactive_constraint():
    scenario = WaypointScenario(e=[0.0, 10.0], k=[1.0, 1.0], D=2.0)
    np.testing.assert_allclose(solve_ordering(scenario, (0, 1)), [0.0, 0.0])


def test_solve_ordering_feasible_and_optimal():
    rng = np.random.default_rng(303)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        e = rng.uniform(0.0, n, size=n)
        k = rng.random(n) + 0.2
        D = float(rng.random() + 0.5)
        order = tuple(rng.permutation(n))
        scenario = WaypointScenario(e=e, k=k, D=D)
        x = np.array(solve_ordering(scenario, order))
        arrivals = e + x
        for t in range(n - 1):
            assert arrivals[order[t + 1]] - arrivals[order[t]] >= D - 1e-9
        want_x, want_obj = brute_ordering(e, k, D, order)
        np.testing.assert_allclose(x, want_x, atol=1e-9)
        assert abs(float(np.sum(k * x**2)) - want_obj) <= 1e-9


def test_solve_ordering_relabel_equivariance():
    # Renaming the agents and permuting the order description accordingly
    # must permute the solution the same way.
    rng = np.random.default_rng(404)
    for _ in range(20):
        n = 4
        e = rng.uniform(0.0, 4.0, size=n)
        k = rng.random(n) + 0.3
        order = tuple(rng.permutation(n))
        relabel = rng.permutation(n)
        x = np.array(solve_ordering(WaypointScenario(e=e, k=k, D=1.0), order))
        x2 = solve_ordering(
            WaypointScenario(e=e[relabel], k=k[relabel], D=1.0),
            tuple(int(np.where(relabel == i)[0][0]) for i in order),
        )
        np.testing.assert_allclose(x2, x[relabel], atol=1e-9)


def test_solve_ordering_validation():
    scenario = WaypointScenario(e=[0.0, 1.0], k=[1.0, 1.0], D=1.0)
    with pytest.raises(ValueError):
        solve_ordering(scenario, (0, 0))
    with pytest.raises(ValueError):
        solve_ordering(scenario, (0,))


def test_scenario_validation():
    with pytest.raises(ValueError):
        WaypointScenario(e=[0.0, 1.0], k=[1.0], D=1.0)
    with pytest.raises(ValueError):
        WaypointScenario(e=[0.0, 1.0], k=[1.0, 0.0], D=1.0)
    with pytest.raises(ValueError):
        WaypointScenario(e=[0.0, 1.0], k=[1.0, 1.0], D=0.0)
    # Each vector is refused with its numpy shape; k is read at e's length.
    for e, k, message in (
        ("12", "34", "e has shape (), expected (any,)"),
        ([[0.0, 1.0]], [[1.0, 1.0]], "e has shape (1, 2), expected (any,)"),
        (np.zeros((2, 2)), np.ones((2, 2)), "e has shape (2, 2), expected (any,)"),
        ([0.0, 1.0], "34", "k has shape (), expected (2,)"),
        ([0.0, 1.0], [1.0], "k has shape (1,), expected (2,)"),
    ):
        with pytest.raises(ValueError) as err:
            WaypointScenario(e=e, k=k, D=1.0)
        assert str(err.value) == message
    # The vectors are held as tuples of floats, from arrays and lists alike.
    scenario = WaypointScenario(e=np.array([0.0, 1.5]), k=[1, 2], D=1)
    assert (scenario.e, scenario.k, scenario.D) == ((0.0, 1.5), (1.0, 2.0), 1.0)
    assert all(type(x) is float for x in scenario.e + scenario.k)


def test_separation_takes_the_run_parameter_rule():
    # D is a scale, so a positive finite real: an infinite separation was accepted,
    # 10**400 leaked OverflowError and the str '0.5' was read as a number.
    for D in (math.inf, math.nan, 0.0, -1, 10**400, Fraction(10**400), "0.5", "1", None):
        with pytest.raises(ValueError) as err:
            WaypointScenario(e=[0.0, 1.0], k=[1.0, 1.0], D=D)
        assert str(err.value) == f"separation D must be a positive finite real, got {D}"


def test_enumerate_options_symmetric_two_agents():
    scenario = WaypointScenario(e=[0.0, 0.0], k=[1.0, 1.0], D=2.0)
    problem = enumerate_options(scenario, b=[1.0, 1.0])
    assert problem.m == 2
    assert problem.option_labels == ["order(0,1)", "order(1,0)"]
    np.testing.assert_allclose(C_of(problem), [[1.0, 1.0], [1.0, 1.0]])


def test_enumerate_options_single_agent():
    problem = enumerate_options(WaypointScenario(e=[3.0], k=[2.0], D=1.0), b=[1.0])
    assert (problem.n, problem.m) == (1, 1)
    assert problem.option_labels == ["order(0)"]
    np.testing.assert_allclose(C_of(problem), [[0.0]])


def test_enumerate_options_lexicographic():
    scenario = WaypointScenario(e=[0.0, 1.0, 2.0], k=[1.0, 1.0, 1.0], D=1.0)
    problem = enumerate_options(scenario, b=[1.0, 1.0, 1.0])
    assert problem.m == 6
    assert problem.option_labels[0] == "order(0,1,2)"
    assert problem.option_labels[-1] == "order(2,1,0)"
    # Column j must be the per-agent cost of ordering j.
    for j, perm in enumerate(
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    ):
        x = np.array(solve_ordering(scenario, perm))
        assert C_of(problem)[:, j].tobytes() == (np.array(scenario.k) * x**2).tobytes()


def test_enumerate_options_bytes_match_solve_ordering():
    # The prefix-sharing walk and solve_ordering must both reproduce the array
    # reference's solve of every ordering bit for bit (the reference shares no
    # pooling code with them), and the rows, read in row-major order as a
    # C-contiguous array, must give C.mean()'s summation order (the montecarlo
    # epsilon column is epsilon_rel * C.mean()). The last instances have
    # n = 7, the cap: 5040 orderings each.
    rng = np.random.default_rng(5)
    for trial in range(1022):
        n = 1 + trial % 6 if trial < 1020 else 7
        D = float(rng.choice([0.7, 1.0, 1.3]))
        scenario = WaypointScenario(
            e=rng.uniform(0.0, n * D, size=n), k=rng.uniform(0.5, 2.0, size=n), D=D
        )
        problem = enumerate_options(scenario, b=np.ones(n))
        X = ref.solve_orderings(scenario)
        for perm, x in zip(itertools.permutations(range(n)), X):
            assert np.array(solve_ordering(scenario, perm)).tobytes() == x.tobytes(), (trial, perm)
        columns = list(np.array(scenario.k) * X**2)
        C = C_of(problem)
        assert C.flags.c_contiguous
        assert C.shape == (n, len(columns))
        for j, column in enumerate(columns):
            assert C[:, j].tobytes() == column.tobytes(), (trial, j)
        assert C.mean().tobytes() == np.column_stack(columns).mean().tobytes()


def _same(a, b):
    """a and b are equal and of one type, element for element; floats compared by bits."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b), (a, b)
        for x, y in zip(a, b):
            _same(x, y)
    elif isinstance(a, float):
        assert a.hex() == b.hex(), (a, b)
    else:
        assert a == b, (a, b)


@pytest.mark.parametrize("n", range(2, 8))
def test_enumerate_options_equals_the_checked_problem(n):
    # enumerate_options holds its own rows without reading them again through
    # floats; the problem must be the one ChoiceProblem's checks build from the
    # same rows and valuations, field for field and type for type.
    draws = [np.random.default_rng(n), Stream((11, n))]
    for rng in draws * (2 if n == 7 else 4):
        e = rng.uniform(0.0, n * 1.3, size=n)
        k = rng.uniform(0.5, 2.0, size=n)
        b = rng.uniform(0.5, 1.5, size=n)
        fast = enumerate_options(WaypointScenario(e=e, k=k, D=1.3), b)
        checked = ChoiceProblem(
            n=fast.n, m=fast.m, C=fast.rows, b=b, option_labels=list(fast.option_labels)
        )
        assert vars(fast).keys() == vars(checked).keys()
        for field in vars(checked):
            _same(getattr(fast, field), getattr(checked, field))
        _same(fast._utilitarian, checked._utilitarian)


def test_enumerate_options_refuses_a_cost_that_overflows():
    # k * x * x overflows to inf at an extreme separation; the refusal reads as
    # ChoiceProblem's check words it, and a bad valuation is still named.
    scenario = WaypointScenario(e=[0.0, 0.0, 1.0], k=[1.0, 1.0, 2.0], D=1e200)
    with pytest.raises(ValueError) as err:
        enumerate_options(scenario, [1.0, 1.0, 1.0])
    assert str(err.value) == "C[0][0] = inf, expected a finite real"
    with pytest.raises(ValueError) as err:
        enumerate_options(WaypointScenario(e=[0.0, 0.0], k=[1.0, 1.0], D=1.0), [1.0, 0.0])
    assert str(err.value) == "b[1] = 0.0, expected a positive finite real"


def test_enumerate_options_agent_cap():
    scenario = WaypointScenario(e=np.zeros(8), k=np.ones(8), D=1.0)
    with pytest.raises(ResourceLimitError):
        enumerate_options(scenario, b=np.ones(8))


def test_random_problem_deterministic_and_in_range():
    a = random_problem(3, 5, np.random.default_rng(9))
    b = random_problem(3, 5, np.random.default_rng(9))
    np.testing.assert_array_equal(C_of(a), C_of(b))
    np.testing.assert_array_equal(b_of(a), b_of(b))
    c = random_problem(3, 5, np.random.default_rng(10))
    assert not np.array_equal(C_of(a), C_of(c))
    assert C_of(a).shape == (3, 5)
    assert ((C_of(a) >= 0) & (C_of(a) < 1)).all()
    assert ((b_of(a) > 0) & (b_of(a) < 1)).all()


def test_generators_take_a_numpy_generator_or_a_stream():
    # One code path: numpy's ndarray draws and the stream's lists build the
    # same instance from the same seed path.
    for trial in range(20):
        path = (9, trial, 0)
        for build in (lambda r: random_problem(3, 5, r), lambda r: random_waypoint_problem(4, r)):
            a = build(np.random.default_rng(np.random.SeedSequence(list(path))))
            b = build(Stream(path))
            assert (a.rows, a.valuations) == (b.rows, b.valuations)


class _Scripted:
    """Hands out the given draws in order, as a generator's random(size)."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        out = self.draws.pop(0)
        assert np.shape(out) == ((size,) if isinstance(size, int) else size)
        return out


def test_random_problem_redraws_zero_valuations_in_order():
    # numpy's b[b == 0] = rng.random(count), until no zero is left.
    rng = _Scripted([[0.5]] * 3, [0.0, 0.3, 0.0], [0.25, 0.0], [0.75])
    problem = random_problem(3, 1, rng)
    assert problem.valuations == (0.25, 0.3, 0.75) and rng.draws == []


def test_random_waypoint_problem_deterministic_and_positive():
    a = random_waypoint_problem(3, np.random.default_rng(21))
    b = random_waypoint_problem(3, np.random.default_rng(21))
    np.testing.assert_array_equal(C_of(a), C_of(b))
    np.testing.assert_array_equal(b_of(a), b_of(b))
    assert (a.n, a.m) == (3, 6)
    assert C_of(a).sum(axis=0).min() > 0
    assert ((b_of(a) >= 0.5) & (b_of(a) < 1.5)).all()
    assert (C_of(a) >= 0).all()


@pytest.mark.parametrize("n", [0, 1])
def test_random_waypoint_problem_rejects_fewer_than_two_agents(n):
    # Every ordering of fewer than two agents costs 0, so the resampling loop
    # would never return; the check comes before any draw.
    rng = np.random.default_rng(21)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n >= 2"):
        random_waypoint_problem(n, rng)
    assert rng.bit_generator.state == state


def test_example2_fixture_values():
    problem = example2_fixture()
    assert (problem.n, problem.m) == (2, 2)
    np.testing.assert_allclose(C_of(problem), [[10.0, 4.0], [7.0, 9.0]])
    np.testing.assert_allclose(b_of(problem), [0.8, 1.2])
    assert problem.option_labels == ["option-1", "option-2"]
