"""Auction engine: golden trace, termination, interruption, backend parity."""

from fractions import Fraction

import numpy as np
import pytest

import _window_oracle as window_oracle
from _replay import apply_selection, new_board, reduce_trading_unit, verify_run
from tacosim import _fastpath, engine
from tacosim.agent import AgentPrivate
from tacosim.baselines import ChoiceProblem
from tacosim.board import CycleRecord
from tacosim.engine import (
    TacoConfig,
    check_termination,
    run_interrupted,
    run_taco,
    settle,
)
from tacosim.errors import HistoryLimitError, NoTerminationError
from tacosim.scenario import example2_fixture, random_problem

BACKENDS = ("exact", "numpy")

GOLDEN_PROFITS = [
    [-10.0, -4.0],
    [-7.0, -7.8],
    [-9.2, -4.8],
    [-8.2, -6.6],
    [-9.2, -4.8],
]


def _config(**kw):
    base = dict(epsilon=1e-6, d0=1, gamma="9/10")
    base.update(kw)
    return TacoConfig(**base)


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_run(backend):
    outcome = run_taco(_config(), example2_fixture().agents(), backend=backend)
    assert outcome.steps == 5
    assert outcome.rounds == 3
    assert outcome.cycles_detected == 1
    assert outcome.terminated_naturally
    assert [ts.step for ts in outcome.trace] == [1, 2, 3, 4, 5]
    assert [ts.agent for ts in outcome.trace] == [0, 1, 0, 1, 0]
    assert [ts.selection for ts in outcome.trace] == [1, 0, 1, 1, 1]
    np.testing.assert_allclose(
        np.stack([ts.profit_row for ts in outcome.trace]), GOLDEN_PROFITS, atol=1e-12
    )
    assert outcome.consensus_choice == 1
    assert outcome.settlements == [Fraction(-1), Fraction(1)]
    assert outcome.final_d == Fraction(9, 10)
    assert outcome.final_selections == [1, 1]
    cyc = outcome.cycle_records[0]
    assert (cyc.start_step, cyc.end_step, cyc.length) == (4, 5, 2)
    assert cyc.active_choices == frozenset({1})
    assert cyc.d_at_detection == Fraction(1)
    assert (cyc.choice_counts == np.array([[0, 1], [0, 1]])).all()
    # The detecting turn's board update is dropped on termination, so the
    # settled board is the one the detecting agent observed.
    board = outcome.final_board
    assert board.step == 4
    assert board.offers == [[1, 3], [1, 3]]
    assert board.pays == [[0, 4], [2, 2]]


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_agent(backend):
    agents = [AgentPrivate(index=0, valuation=1.0, cost_row=np.array([3.0, 1.0, 2.0, 5.0]))]
    outcome = run_taco(_config(epsilon=0.1), agents, backend=backend)
    assert outcome.steps == 2
    assert outcome.rounds == 2
    assert outcome.cycles_detected == 1
    assert outcome.consensus_choice == 1
    assert outcome.settlements == [Fraction(0)]
    assert outcome.final_board.step == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_identical_agents(backend):
    problem = ChoiceProblem(
        n=2, m=3, C=np.array([[5.0, 2.0, 8.0], [5.0, 2.0, 8.0]]), b=np.ones(2)
    )
    outcome = run_taco(_config(epsilon=0.1), problem.agents(), backend=backend)
    assert outcome.steps == 3
    assert outcome.consensus_choice == 1
    assert outcome.settlements == [Fraction(0), Fraction(0)]
    cyc = outcome.cycle_records[0]
    assert (cyc.start_step, cyc.end_step) == (2, 3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_turn_order_permutation(backend):
    outcome = run_taco(
        _config(turn_order=(1, 0)), example2_fixture().agents(), backend=backend
    )
    # Hand-derived: agent 2 opens on option 1, agent 1 answers on option 2,
    # agent 2 follows, and agent 1's fourth-step view repeats its second-step
    # view, so the run ends one step earlier than with the default order.
    assert [ts.agent for ts in outcome.trace] == [1, 0, 1, 0]
    assert [ts.selection for ts in outcome.trace] == [0, 1, 1, 1]
    assert outcome.steps == 4
    assert outcome.consensus_choice == 1
    assert outcome.settlements == [Fraction(0), Fraction(0)]


def test_check_termination():
    def record(active, rows_by_agent):
        return CycleRecord(
            start_step=1,
            end_step=len(rows_by_agent),
            active_choices=frozenset(active),
            choice_counts=np.zeros((len(rows_by_agent), 2), dtype=np.int64),
            agent_turn_profits=[[np.asarray(r, dtype=np.float64) for r in rows]
                                for rows in rows_by_agent],
        )

    wide = record({0, 1}, [[[1.0, 2.0]], [[0.0, 0.05]]])
    assert check_termination(wide, 1.1)
    assert not check_termination(wide, 0.5)
    # The spread pools the agent's rows but only over active choices.
    pooled = record({1}, [[[0.0, 5.0], [100.0, 9.0]], [[0.0, 1.0]]])
    assert not check_termination(pooled, 4.0)
    assert check_termination(pooled, 4.0001)
    with pytest.raises(ValueError):
        check_termination(wide, 0.0)
    empty = record({0}, [[], [[0.0, 0.0]]])
    with pytest.raises(ValueError):
        check_termination(empty, 1.0)


def test_settle_reads_one_column():
    outcome = run_taco(_config(), example2_fixture().agents(), backend="exact")
    lattice = outcome._lattice
    assert settle(lattice, 0) == [Fraction(1), Fraction(-1)]
    assert settle(lattice, 1) == [Fraction(-1), Fraction(1)]
    with pytest.raises(ValueError):
        settle(lattice, 2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_interrupted_early(backend):
    outcome = run_interrupted(_config(), example2_fixture().agents(), 2, backend=backend)
    assert outcome.steps == 2
    assert not outcome.terminated_naturally
    assert outcome.cycles_detected == 0
    # Selections so far are option 1 (agent 0) and option 0 (agent 1); the
    # tie resolves to the lower option index.
    assert outcome.consensus_choice == 0
    assert outcome.settlements == [Fraction(1), Fraction(-1)]
    assert outcome.final_board.step == 2
    assert outcome.final_d == Fraction(1)


@pytest.mark.parametrize("interrupt", [5, 10**9])
def test_interrupt_at_or_after_natural_end(interrupt):
    natural = run_taco(_config(), example2_fixture().agents())
    outcome = run_interrupted(_config(), example2_fixture().agents(), interrupt)
    assert outcome.terminated_naturally
    assert outcome.steps == natural.steps == 5
    assert outcome.settlements == natural.settlements
    assert outcome.consensus_choice == natural.consensus_choice


def test_interrupt_validation():
    with pytest.raises(ValueError):
        run_interrupted(_config(), example2_fixture().agents(), 0)


def test_no_termination_error():
    with pytest.raises(NoTerminationError) as err:
        run_taco(_config(max_steps=3), example2_fixture().agents())
    assert err.value.steps == 3
    assert "max_steps" in str(err.value)
    # An interruption point beyond max_steps does not rescue the run.
    with pytest.raises(NoTerminationError):
        run_interrupted(_config(max_steps=3), example2_fixture().agents(), 10)
    # One at or below max_steps does.
    outcome = run_interrupted(_config(max_steps=3), example2_fixture().agents(), 3)
    assert outcome.steps == 3 and not outcome.terminated_naturally


@pytest.mark.parametrize("backend", BACKENDS)
def test_history_cap(backend):
    config = _config(history_cap=2)
    with pytest.raises(HistoryLimitError):
        run_taco(config, example2_fixture().agents(), backend=backend)


def test_config_validation():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            TacoConfig(epsilon=bad)
    for bad_gamma in (1, "0", 2, "10/9"):
        with pytest.raises(ValueError):
            TacoConfig(epsilon=0.1, gamma=bad_gamma)
    with pytest.raises(ValueError):
        TacoConfig(epsilon=0.1, d0=0)
    with pytest.raises(TypeError):
        TacoConfig(epsilon=0.1, d0=0.5)
    with pytest.raises(ValueError):
        TacoConfig(epsilon=0.1, max_steps=0)
    with pytest.raises(ValueError):
        TacoConfig(epsilon=0.1, history_cap=1)


def test_run_input_validation():
    agents = example2_fixture().agents()
    with pytest.raises(ValueError):
        run_taco(_config(), [])
    with pytest.raises(ValueError):
        run_taco(_config(), list(reversed(agents)))
    ragged = [
        AgentPrivate(index=0, valuation=1.0, cost_row=np.array([1.0, 2.0])),
        AgentPrivate(index=1, valuation=1.0, cost_row=np.array([1.0, 2.0, 3.0])),
    ]
    with pytest.raises(ValueError):
        run_taco(_config(), ragged)
    with pytest.raises(ValueError):
        run_taco(_config(turn_order=(0, 0)), agents)
    with pytest.raises(ValueError):
        run_taco(_config(turn_order=(0, 1, 2)), agents)
    infinite = [
        AgentPrivate(index=0, valuation=1.0, cost_row=np.array([np.inf, 2.0])),
        AgentPrivate(index=1, valuation=1.0, cost_row=np.array([1.0, 2.0])),
    ]
    with pytest.raises(ValueError):
        run_taco(_config(), infinite)


def test_single_option_forces_consensus():
    problem = ChoiceProblem(n=2, m=1, C=np.array([[3.0], [4.0]]), b=np.ones(2))
    outcome = run_taco(_config(epsilon=0.1), problem.agents())
    assert outcome.terminated_naturally
    assert outcome.consensus_choice == 0
    assert sum(outcome.settlements) == 0


def test_termination_property_sweep():
    # Guaranteed-termination envelope: few agents, few options, moderate
    # decay, tolerance well above the analytic floor.
    rng = np.random.default_rng(1234)
    gammas = (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))
    for trial in range(12):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 11))
        gamma = gammas[trial % len(gammas)]
        problem = random_problem(n, m, rng)
        eps = 1e-3 * float(problem.C.mean())
        config = TacoConfig(epsilon=eps, d0=1, gamma=gamma)
        outcome = run_taco(config, problem.agents())
        assert outcome.terminated_naturally
        assert outcome.steps <= config.max_steps
        assert outcome.final_d == config.d0 * gamma**outcome.cycles_detected
        assert outcome.rounds == -(-outcome.steps // n)
        assert sum(outcome.settlements) == 0
        assert len(outcome.trace) == outcome.steps
        assert 0 <= outcome.consensus_choice < m
        for cyc in outcome.cycle_records:
            assert cyc.length % n == 0


def _equivalence_instances():
    rng = np.random.default_rng(321)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 9))
        problem = random_problem(n, m, rng)
        eps = 1e-3 * float(problem.C.mean())
        yield TacoConfig(epsilon=eps, d0=1, gamma="7/10"), problem


def _profit_rows(outcome):
    return np.stack([t.profit_row for t in outcome.trace])


def _assert_matches_exact(other, exact_run):
    assert other.steps == exact_run.steps
    assert other.cycles_detected == exact_run.cycles_detected
    assert other.final_d == exact_run.final_d
    assert other.consensus_choice == exact_run.consensus_choice
    assert other.settlements == exact_run.settlements
    assert [t.selection for t in other.trace] == [t.selection for t in exact_run.trace]
    np.testing.assert_allclose(_profit_rows(other), _profit_rows(exact_run), atol=1e-9)


def test_cross_backend_equivalence():
    for config, problem in _equivalence_instances():
        exact_run = run_taco(config, problem.agents(), backend="exact")
        numpy_run = run_taco(config, problem.agents(), backend="numpy")
        _assert_matches_exact(numpy_run, exact_run)


def test_window_buffer_growth_matches_numpy():
    # A slow drift toward the cheap option keeps one constant-d window going
    # for hundreds of steps: the longest single window checked against the
    # oracle, on the float path and on the exact per-cell path.
    problem = example2_fixture()
    net0 = np.zeros((2, 2))
    order = np.arange(2, dtype=np.int64)
    lattice = engine._LatticeBoard(2, 2, Fraction(1, 500), Fraction(9, 10))
    for net_cell, net_row in (
        (None, window_oracle.float_net_row(net0, 1 / 500)),
        (lattice.exact_net_cell(), window_oracle.exact_net_row(lattice)),
    ):
        got = _fastpath.run_window(
            net0.tolist(), 1 / 500, problem.b.tolist(), problem.C.tolist(), order.tolist(),
            0, 5000, 10**6, net_cell,
        )
        ref, ref_rows = window_oracle.run_window_oracle(
            net_row, problem.b, problem.C, order, 0, 5000, 10**6
        )
        assert got.status == "detected"
        assert got.steps > 256
        _assert_same_window(got, ref, ref_rows, (net_cell, net0, 1 / 500, problem.b, problem.C))


@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_detected_window_returns_the_cycle_rows(backend):
    # The kernel stores no row: on detection it rebuilds the rows of the
    # cycle's turns s0_rel..steps-1 from the window's counts with the cycle
    # taken back. Windows start on random lattices, so the anchors are not zero.
    rng = np.random.default_rng(17)
    late_starts = 0
    for n, m in ((2, 2), (3, 5), (4, 24), (6, 40)):
        problem = random_problem(n, m, rng)
        order = rng.permutation(n).astype(np.int64)
        lattice = engine._LatticeBoard(n, m, Fraction(1, 20), Fraction(7, 10))
        for _ in range(4):
            for _ in range(int(rng.integers(0, 4 * n))):
                engine.apply_selection(lattice, int(rng.integers(n)), int(rng.integers(m)))
            net0f, dval = lattice.net_float(), float(lattice.d)
            if backend == "exact":
                net_cell, net_row = lattice.exact_net_cell(), window_oracle.exact_net_row(lattice)
            else:
                net_cell, net_row = None, window_oracle.float_net_row(net0f, dval)
            pos0 = int(rng.integers(n))
            got = _fastpath.run_window(
                net0f, dval, problem.b.tolist(), problem.C.tolist(), order.tolist(),
                pos0, 10**6, 10**6, net_cell,
            )
            ref, ref_rows = window_oracle.run_window_oracle(
                net_row, problem.b, problem.C, order, pos0, 10**6, 10**6
            )
            assert got.status == ref.status == "detected"
            assert (got.steps, got.s0_rel) == (ref.steps, ref.s0_rel)
            assert got.profit_rows.shape == (got.steps - got.s0_rel, m)
            assert got.profit_rows.tobytes() == ref_rows[got.s0_rel :].tobytes()
            late_starts += got.s0_rel > n
            engine._advance_board(lattice, got.selcount, got.steps - 1)
            engine.reduce_trading_unit(lattice)
    assert late_starts >= 4


@pytest.mark.parametrize(
    "budget, history_cap, status",
    [(10**6, 10**6, "detected"), (50, 10**6, "budget"), (10**6, 40, "history_cap")],
)
def test_window_selcount_counts_applied_turns(budget, history_cap, status):
    # selcount covers exactly the turns whose board update was applied: all of
    # them when the budget runs out, all but the pending last one otherwise.
    problem = random_problem(3, 5, np.random.default_rng(5))
    order = np.arange(3, dtype=np.int64)
    win = _fastpath.run_window(
        np.zeros((3, 5)).tolist(), 1 / 100, problem.b.tolist(), problem.C.tolist(),
        order.tolist(), 1, budget, history_cap,
    )
    assert win.status == status
    applied = win.steps if status == "budget" else win.steps - 1
    expected = np.zeros((3, 5), dtype=np.int64)
    for i, j in zip(win.players[:applied], win.choices[:applied]):
        expected[i, j] += 1
    np.testing.assert_array_equal(win.selcount, expected)


def test_lattice_board_matches_fraction_board():
    # Random turns and window advances over 45 reductions at gamma 9/10, so the
    # lattice denominator b*q^K is far past 2**63. The Fraction board, driven by
    # the reference operations of _replay, is the reference.
    rng = np.random.default_rng(2024)
    n, m = 3, 4
    d0, gamma = Fraction(3, 7), Fraction(9, 10)
    lattice = engine._LatticeBoard(n, m, d0, gamma)
    ref = new_board(n, m, d0)
    for _ in range(45):
        for _ in range(int(rng.integers(0, 4))):
            i, j = int(rng.integers(n)), int(rng.integers(m))
            engine.apply_selection(lattice, i, j)
            apply_selection(ref, i, j)
        selcount = rng.integers(0, 3, (n, m))
        engine._advance_board(lattice, selcount.tolist(), int(selcount.sum()))
        for (i, j), count in np.ndenumerate(selcount):
            for _ in range(count):
                apply_selection(ref, i, j)
        assert np.array(lattice.net_float()).tobytes() == ref.net_float().tobytes()
        engine.reduce_trading_unit(lattice)
        reduce_trading_unit(ref, gamma)
    assert lattice.unit_den > 2**63
    board = lattice.to_board(ref.selections)
    assert board.offers == ref.offers
    assert board.pays == ref.pays
    assert (board.d, board.step, board.epoch) == (ref.d, ref.step, ref.epoch)
    assert board.selections == ref.selections


def test_long_window_engine_parity():
    config = TacoConfig(epsilon=1e-6, d0="1/500", gamma="9/10")
    problem = example2_fixture()
    agents = problem.agents()
    numpy_run = run_taco(config, agents, backend="numpy")
    exact_run = run_taco(config, agents, backend="exact")
    assert numpy_run.steps == exact_run.steps > 256
    assert numpy_run.settlements == exact_run.settlements
    assert numpy_run.final_d == exact_run.final_d
    assert [t.selection for t in numpy_run.trace] == [t.selection for t in exact_run.trace]
    verify_run(problem, config, numpy_run)
    verify_run(problem, config, exact_run, exact_rows=True)


def test_backend_resolution(monkeypatch):
    monkeypatch.delenv(_fastpath.ENV_VAR, raising=False)
    assert _fastpath.resolve_backend("numpy") == "numpy"
    assert _fastpath.resolve_backend("exact") == "exact"
    assert _fastpath.resolve_backend(None) == "numpy"
    with pytest.raises(ValueError):
        _fastpath.resolve_backend("numba")
    with pytest.raises(ValueError):
        _fastpath.resolve_backend("fancy")
    monkeypatch.setenv(_fastpath.ENV_VAR, "numpy")
    assert _fastpath.resolve_backend(None) == "numpy"
    monkeypatch.setenv(_fastpath.ENV_VAR, "exact")
    outcome = run_taco(_config(), example2_fixture().agents())
    assert outcome.steps == 5 and outcome.settlements == [Fraction(-1), Fraction(1)]
    monkeypatch.setenv(_fastpath.ENV_VAR, "numba")
    with pytest.raises(ValueError):
        run_taco(_config(), example2_fixture().agents())


def test_replay_verifier_confirms_golden():
    problem = example2_fixture()
    config = _config()
    outcome = run_taco(config, problem.agents(), backend="exact")
    report = verify_run(problem, config, outcome)
    assert report["steps"] == 5
    assert report["cycles"] == 1
    assert report["final_d"] == Fraction(9, 10)


def test_replay_verifier_rejects_tampering():
    problem = example2_fixture()
    config = _config()
    outcome = run_taco(config, problem.agents(), backend="exact")
    outcome.settlements = [Fraction(0), Fraction(0)]
    with pytest.raises(AssertionError):
        verify_run(problem, config, outcome)


def test_replay_verifier_random_instances():
    rng = np.random.default_rng(888)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        problem = random_problem(n, m, rng)
        eps = 1e-3 * float(problem.C.mean())
        config = TacoConfig(epsilon=eps, d0=1, gamma="7/10")
        outcome = run_taco(config, problem.agents())
        report = verify_run(problem, config, outcome)
        assert report["steps"] == outcome.steps
        assert report["cycles"] == outcome.cycles_detected


def _tie_prone_instances(count=1000):
    # The reproducer of the tie rule in ROADMAP: costs and valuations on a coarse decimal
    # grid, so many options are mathematically tied.
    rng = np.random.default_rng(7)
    config = TacoConfig(epsilon=0.05, d0="1/10", gamma="1/2")
    for _ in range(count):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        C = rng.integers(0, 6, (n, m)) * 0.1
        b = rng.choice([0.1, 0.3, 0.7, 1.1, 1.3], n)
        yield config, ChoiceProblem(n=n, m=m, C=C, b=b)


def test_exact_backend_matches_fraction_reference():
    # The exact backend shares the window kernel with numpy, so backend parity
    # cannot catch a kernel bug: pin every row to the Fraction board's bytes.
    for config, problem in _tie_prone_instances():
        outcome = run_taco(config, problem.agents(), backend="exact")
        verify_run(problem, config, outcome, exact_rows=True)


@pytest.mark.xfail(
    strict=True,
    reason="the tie rule in ROADMAP: numpy and exact break float ties differently "
    "(trials 224, 267, 339, 506 and 950 of the reproducer diverge)",
)
def test_tie_prone_backend_agreement():
    for config, problem in _tie_prone_instances():
        exact_run = run_taco(config, problem.agents(), backend="exact")
        numpy_run = run_taco(config, problem.agents(), backend="numpy")
        assert [t.selection for t in numpy_run.trace] == [t.selection for t in exact_run.trace]
        assert numpy_run.settlements == exact_run.settlements


def _rebuilt_rows(win, net_cell, net0f, dval, b, C):
    """Every row of a kernel window, rebuilt from its anchors and choices."""
    n, m = C.shape
    net0 = None if net_cell is not None else net0f.tolist()
    zero = [[0] * m for _ in range(n)]
    return _fastpath.window_rows(
        net_cell, net0, dval, b.tolist(), C.tolist(), win.players, win.choices, zero, 0, win.steps
    )


def _assert_same_window(got, ref, ref_rows, anchors):
    # The kernel stores no row: every row rebuilt from the window's anchors,
    # and the cycle rows it returns, must be the oracle's bytes.
    assert (got.status, got.steps, got.s0_rel) == (ref.status, ref.steps, ref.s0_rel)
    assert (got.players, got.choices) == (ref.players, ref.choices)
    rows = _rebuilt_rows(got, *anchors)
    assert rows.shape == ref_rows.shape
    assert rows.tobytes() == ref_rows.tobytes()
    if ref.status == "detected":
        cycle_shape = (got.steps - got.s0_rel, ref_rows.shape[1])
        assert got.profit_rows.shape == ref.profit_rows.shape == cycle_shape
        assert got.profit_rows.tobytes() == ref_rows[got.s0_rel :].tobytes()
    else:
        assert got.profit_rows is None and ref.profit_rows is None
    assert got.selcount == ref.selcount


@pytest.fixture
def oracle_windows(monkeypatch):
    """Check every window the engine runs against the numpy kernel oracle.

    Returns the set of window statuses seen. The exact backend's oracle row
    is built from the lattice the engine anchored the window on.
    """
    run_window = _fastpath.run_window
    exact_net_cell = engine._LatticeBoard.exact_net_cell
    anchors = []
    seen = set()

    def record_anchor(lattice):
        anchors.append(lattice)
        return exact_net_cell(lattice)

    def checked(net0f, dval, b, C, order, pos0, budget, history_cap, net_cell=None):
        got = run_window(net0f, dval, b, C, order, pos0, budget, history_cap, net_cell)
        # The engine passes lists; the oracle takes arrays.
        b, C, order = np.array(b), np.array(C), np.array(order, dtype=np.int64)
        net0f = None if net0f is None else np.array(net0f)
        if net_cell is not None:
            net_row = window_oracle.exact_net_row(anchors.pop())
        else:
            net_row = window_oracle.float_net_row(net0f, dval)
        ref, ref_rows = window_oracle.run_window_oracle(
            net_row, b, C, order, pos0, budget, history_cap
        )
        _assert_same_window(got, ref, ref_rows, (net_cell, net0f, dval, b, C))
        seen.add(got.status)
        return got

    monkeypatch.setattr(engine._LatticeBoard, "exact_net_cell", record_anchor)
    monkeypatch.setattr(_fastpath, "run_window", checked)
    return seen


def _oracle_runs(config, problem):
    # One natural run (detected windows), one interrupted after 3 steps
    # (a budget window) and one with a 2-entry history (a history_cap window).
    yield lambda backend: run_taco(config, problem.agents(), backend=backend)
    yield lambda backend: run_interrupted(config, problem.agents(), 3, backend=backend)
    capped = TacoConfig(
        epsilon=config.epsilon, d0=config.d0, gamma=config.gamma, history_cap=2
    )
    yield lambda backend: run_taco(capped, problem.agents(), backend=backend)


@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_window_kernel_matches_oracle_on_reproducer(oracle_windows, backend):
    for config, problem in _tie_prone_instances():
        for run in _oracle_runs(config, problem):
            try:
                run(backend)
            except HistoryLimitError:
                pass
    assert oracle_windows == {"detected", "budget", "history_cap"}


@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_window_kernel_matches_oracle_on_random_problems(oracle_windows, backend):
    rng = np.random.default_rng(4321)
    for n, m in ((2, 2), (3, 5), (4, 24), (6, 40), (10, 100)):
        for _ in range(3):
            problem = random_problem(n, m, rng)
            eps = 1e-3 * float(problem.C.mean())
            for d0 in (1, "1/20"):
                config = TacoConfig(epsilon=eps, d0=d0, gamma="7/10")
                for run in _oracle_runs(config, problem):
                    try:
                        run(backend)
                    except HistoryLimitError:
                        pass
    assert oracle_windows == {"detected", "budget", "history_cap"}


def _colliding_keys(n, m):
    return [[0] * m for _ in range(n)]


@pytest.mark.parametrize(
    "budget, history_cap, status",
    [(10**6, 2000, "detected"), (60, 2000, "budget"), (10**6, 70, "history_cap")],
)
@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_window_kernel_confirms_colliding_keys(monkeypatch, budget, history_cap, status, backend):
    # With every state key equal, each recorded turn after the first is a key
    # hit, so every hit before the true repeat is a false candidate that must
    # be kept: the repeated state was itself recorded after a false hit.
    problem = random_problem(4, 6, np.random.default_rng(0))
    n, m = 4, 6
    net0f = np.zeros((n, m))
    order = np.arange(n, dtype=np.int64)
    lattice = engine._LatticeBoard(n, m, Fraction(1, 100), Fraction(1, 2))
    if backend == "exact":
        net_cell, net_row = lattice.exact_net_cell(), window_oracle.exact_net_row(lattice)
    else:
        net_cell, net_row = None, window_oracle.float_net_row(net0f, 1 / 100)
    anchors = (net_cell, net0f, 1 / 100, problem.b, problem.C)

    def run():
        return _fastpath.run_window(
            net0f.tolist(), 1 / 100, problem.b.tolist(), problem.C.tolist(), order.tolist(),
            1, budget, history_cap, net_cell,
        )

    ref, ref_rows = window_oracle.run_window_oracle(
        net_row, problem.b, problem.C, order, 1, budget, history_cap
    )
    real = run()
    monkeypatch.setattr(_fastpath, "_zobrist_keys", _colliding_keys)
    colliding = run()
    assert real.status == status
    if status == "detected":
        # A recorded step with the same agent on turn precedes the repeat.
        assert real.s0_rel > n + 1
    _assert_same_window(real, ref, ref_rows, anchors)
    _assert_same_window(colliding, ref, ref_rows, anchors)


def _few_bit_keys(n, m):
    # Zobrist keys of two bits: state keys collide often, but not always, so
    # hits on distinct keys, false candidates and true repeats interleave.
    Z = np.random.default_rng(n * 100 + m).integers(0, 4, (n, m))
    return (Z.sum(axis=0) - n * Z).tolist()


@pytest.mark.parametrize("keys", ("zobrist", "colliding", "few_bit"))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_window_ends_match_the_oracle_near_the_first_repeat(monkeypatch, n, keys):
    # The kernel records one observation per round and finds the first repeat
    # t* by walking back from the next recorded step, running on past a
    # budget or cap that ends the window first. Every budget and cap within
    # n steps of t*, permuted orders, pos0 != 0 and both backends, against
    # the oracle that records every observation.
    if keys == "colliding":
        monkeypatch.setattr(_fastpath, "_zobrist_keys", _colliding_keys)
    elif keys == "few_bit":
        monkeypatch.setattr(_fastpath, "_zobrist_keys", _few_bit_keys)
    rng = np.random.default_rng(2024 + n)
    walked_back = long_cycles = 0
    for trial in range(12):
        m = int(rng.integers(2, 6))
        if trial < 6:
            problem = random_problem(n, m, rng)
            b, C = problem.b, problem.C
        else:  # the tie-prone grid of the reproducer, where cycles run longer
            C = rng.integers(0, 6, (n, m)) * 0.1
            b = rng.choice([0.1, 0.3, 0.7, 1.1, 1.3], n)
        order = rng.permutation(n).astype(np.int64)
        pos0 = int(rng.integers(1, n)) if n > 1 else 0
        lattice = engine._LatticeBoard(n, m, Fraction(1, 20), Fraction(7, 10))
        for _ in range(int(rng.integers(0, 3 * n))):
            engine.apply_selection(lattice, int(rng.integers(n)), int(rng.integers(m)))
        net0f, dval = lattice.net_float(), float(lattice.d)
        if trial % 2:
            net_cell, net_row = lattice.exact_net_cell(), window_oracle.exact_net_row(lattice)
        else:
            net_cell, net_row = None, window_oracle.float_net_row(net0f, dval)
        anchors = (net_cell, np.array(net0f), dval, b, C)
        full, _ = window_oracle.run_window_oracle(net_row, b, C, order, pos0, 10**6, 10**6)
        assert full.status == "detected"
        t_star = full.steps
        walked_back += (t_star - 1) % n != 0
        long_cycles += t_star - full.s0_rel > n
        cuts = [(budget, 10**6) for budget in range(max(1, t_star - n), t_star + n + 1)]
        cuts += [(10**6, cap) for cap in range(max(1, t_star - n - 1), t_star + n)]
        for budget, cap in cuts:
            ref, ref_rows = window_oracle.run_window_oracle(
                net_row, b, C, order, pos0, budget, cap
            )
            got = _fastpath.run_window(
                net0f, dval, b.tolist(), C.tolist(), order.tolist(), pos0, budget, cap, net_cell
            )
            _assert_same_window(got, ref, ref_rows, anchors)
    # Repeats that show only at a later recorded step, and cycles of more
    # than one round.
    if n > 1:
        assert walked_back >= 2
    if n > 3:
        assert long_cycles >= 1


def test_engine_with_colliding_keys_matches(monkeypatch):
    # The history cap bounds the quadratic cost of all-colliding keys, should
    # a repeat ever be missed.
    instances = [
        (TacoConfig(epsilon=c.epsilon, d0=c.d0, gamma=c.gamma, history_cap=500), problem)
        for c, problem in _tie_prone_instances(200)
    ]
    real = [run_taco(config, problem.agents()) for config, problem in instances]
    monkeypatch.setattr(_fastpath, "_zobrist_keys", _colliding_keys)
    for (config, problem), ref in zip(instances, real):
        got = run_taco(config, problem.agents())
        assert got.steps == ref.steps
        assert [(t.agent, t.selection) for t in got.trace] == [
            (t.agent, t.selection) for t in ref.trace
        ]
        assert [(c.start_step, c.end_step) for c in got.cycle_records] == [
            (c.start_step, c.end_step) for c in ref.cycle_records
        ]
        assert got.settlements == ref.settlements
