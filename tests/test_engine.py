"""Auction engine: golden trace, termination, interruption, backend parity."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import _window_oracle as window_oracle
from _oracles import C_of, b_of
from _replay import (
    apply_selection,
    new_board,
    rational_departures,
    reduce_trading_unit,
    row_bytes,
    verify_run,
)
from tacosim import _fastpath, board, engine, experiments
from tacosim.agent import AgentPrivate
from tacosim.baselines import ChoiceProblem
from tacosim.board import CycleRecord
from tacosim.engine import (
    TacoConfig,
    TraceStep,
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
    assert cyc.choice_counts == ((0, 1), (0, 1))
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
            choice_counts=((0, 0),) * len(rows_by_agent),
            agent_turn_profits=[list(map(tuple, rows)) for rows in rows_by_agent],
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
        eps = 1e-3 * float(C_of(problem).mean())
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
        eps = 1e-3 * float(C_of(problem).mean())
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


def _window_anchors(lattice, backend):
    """A window's anchors on ``lattice`` for ``backend``, and the oracle's net row.

    The oracle's exact row divides the lattice integers itself; its float row
    is numpy's ``net0f + d * delta`` on the float anchors.
    """
    anchors = lattice.anchors(backend == "exact")
    if backend == "exact":
        return anchors, window_oracle.exact_net_row(lattice)
    net0f, dval, _ = anchors
    return anchors, window_oracle.float_net_row(np.array(net0f), dval)


def test_window_buffer_growth_matches_numpy():
    # A slow drift toward the cheap option keeps one constant-d window going
    # for hundreds of steps: the longest single window checked against the
    # oracle, on float and on int anchors.
    problem = example2_fixture()
    order = np.arange(2, dtype=np.int64)
    lattice = engine._LatticeBoard(2, 2, Fraction(1, 500), Fraction(9, 10))
    for backend in BACKENDS:
        anchors, net_row = _window_anchors(lattice, backend)
        got = _fastpath.run_window(
            *anchors, list(problem.valuations), list(problem.rows), order.tolist(), 0, 5000, 10**6
        )
        ref, ref_rows = window_oracle.run_window_oracle(
            net_row, b_of(problem), C_of(problem), order, 0, 5000, 10**6
        )
        assert got.status == "detected"
        assert got.steps > 256
        _assert_same_window(got, ref, ref_rows, (*anchors, b_of(problem), C_of(problem), order, 0))


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
            anchors, net_row = _window_anchors(lattice, backend)
            pos0 = int(rng.integers(n))
            got = _fastpath.run_window(
                *anchors, list(problem.valuations), list(problem.rows), order.tolist(),
                pos0, 10**6, 10**6,
            )
            ref, ref_rows = window_oracle.run_window_oracle(
                net_row, b_of(problem), C_of(problem), order, pos0, 10**6, 10**6
            )
            assert got.status == ref.status == "detected"
            assert (got.steps, got.s0_rel) == (ref.steps, ref.s0_rel)
            assert len(got.profit_rows) == got.steps - got.s0_rel
            assert row_bytes(got.profit_rows) == ref_rows[got.s0_rel :].tobytes()
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
        np.zeros((3, 5)).tolist(), 1 / 100, 1.0, list(problem.valuations), list(problem.rows),
        order.tolist(), 1, budget, history_cap,
    )
    assert win.status == status
    applied = win.steps if status == "budget" else win.steps - 1
    expected = np.zeros((3, 5), dtype=np.int64)
    for u, j in enumerate(win.log.expand(0, applied)):
        expected[order[(1 + u) % 3], j] += 1
    np.testing.assert_array_equal(win.selcount, expected)


def test_lattice_board_matches_fraction_board():
    # Random turns and window advances over 45 reductions at gamma 9/10, so the
    # lattice denominator b*q^K is far past 2**63. The Fraction board, driven by
    # the reference operations of _replay, is the reference. The float anchors are
    # the int anchors, each divided once by den.
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
        net0, unit, den = lattice.anchors(True)
        net0f, dval, one = lattice.anchors(False)
        assert all(type(x) is int for x in (unit, den, *net0[0]))
        assert net0f == [[x / den for x in row] for row in net0]
        assert (dval, one) == (unit / den, 1.0)
        assert unit / den == float(lattice.d)
        assert np.array(net0f).tobytes() == ref.net_float().tobytes()
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


def test_trading_unit_below_the_smallest_float():
    # At d = 1e-400 every float net is 0.0, so the agents never leave their
    # cheapest options and the window drifts until max_steps. The float falls
    # b * d of the drift search round to 0.0 too and predict no end, so both
    # backends jump the drift to the step cap in one run and agree.
    config = _config(d0=Fraction(1, 10**400), gamma="1/2", max_steps=300)
    selections = []
    for backend in BACKENDS:
        with pytest.raises(NoTerminationError) as err:
            run_taco(config, example2_fixture().agents(), backend=backend)
        selections.append([t.selection for t in err.value.trace])
    assert selections[0] == selections[1]
    assert len(selections[0]) == 300


def test_backend_resolution(monkeypatch):
    monkeypatch.delenv(engine.ENV_VAR, raising=False)
    assert engine.resolve_backend("numpy") == "numpy"
    assert engine.resolve_backend("exact") == "exact"
    assert engine.resolve_backend(None) == "numpy"
    assert engine.resolve_backend("auto") == "numpy"
    with pytest.raises(ValueError):
        engine.resolve_backend("numba")
    with pytest.raises(ValueError):
        engine.resolve_backend("fancy")
    monkeypatch.setenv(engine.ENV_VAR, "numpy")
    assert engine.resolve_backend(None) == "numpy"
    monkeypatch.setenv(engine.ENV_VAR, "exact")
    # "auto" means what no name means: the variable, else numpy.
    assert engine.resolve_backend("auto") == engine.resolve_backend(None) == "exact"
    assert engine.resolve_backend("numpy") == "numpy"
    outcome = run_taco(_config(), example2_fixture().agents())
    assert outcome.steps == 5 and outcome.settlements == [Fraction(-1), Fraction(1)]
    monkeypatch.setenv(engine.ENV_VAR, "numba")
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
        eps = 1e-3 * float(C_of(problem).mean())
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


@pytest.mark.xfail(
    strict=True,
    reason="the tie rule in ROADMAP item 1: both backends decide by a float argmax, and "
    "8 numpy runs and 3 exact runs of the reproducer leave the rational best response",
)
def test_tie_prone_runs_follow_the_rational_rule():
    departures = []
    for k, (config, problem) in enumerate(_tie_prone_instances()):
        for backend in BACKENDS:
            outcome = run_taco(config, problem.agents(), backend=backend)
            if rational_departures(problem, config, outcome) != (None, []):
                departures.append((k, backend))
    assert departures == []


@pytest.mark.xfail(
    strict=True,
    reason="the tie rule in ROADMAP item 1: at step 61 numpy picks option 13 over "
    "option 12, two cells 2 ulps apart where the rational rule picks 12, and ends at "
    "63 steps; exact ends at 71 with other settlements",
)
def test_headline_trial_follows_the_rational_rule():
    # Default montecarlo, base seed 3, trial 431: its instance is stream 0 of
    # the seed path (3, 431). The tacobench gate re-runs only trials 0-7.
    cfg = experiments.ExperimentConfig(base_seed=3)
    problem, eps = experiments.make_instance(cfg, experiments._stream((3, 431), 0), 431)
    config = TacoConfig(epsilon=eps, d0=cfg.d0, gamma=cfg.gamma)
    runs = [run_taco(config, problem.agents(), backend=backend) for backend in BACKENDS]
    for outcome in runs:
        assert rational_departures(problem, config, outcome) == (None, [])
    assert [t.selection for t in runs[0].trace] == [t.selection for t in runs[1].trace]
    assert runs[0].settlements == runs[1].settlements


@pytest.mark.parametrize("backend", BACKENDS)
def test_worked_example_follows_the_rational_rule(backend):
    problem = example2_fixture()
    config = _config(d0="1/2000")
    outcome = run_taco(config, problem.agents(), backend=backend)
    assert (outcome.steps, outcome.cycles_detected) == (3337, 1)
    assert rational_departures(problem, config, outcome) == (None, [])
    # The oracle sees a changed decision: a run claimed to go on past its
    # final cycle, and a selection moved off the best response.
    outcome.terminated_naturally = False
    assert rational_departures(problem, config, outcome) == (None, [outcome.cycles_detected - 1])
    short = run_taco(_config(), problem.agents(), backend=backend)
    short.trace = [TraceStep(1, 0, 0, ())] + list(short.trace)[1:]
    assert rational_departures(problem, _config(), short)[0] == 1


def _rebuilt_rows(win, net0, unit, den, b, C, order, pos0):
    """Every row of a kernel window, rebuilt from its anchors and expanded choices."""
    n, m = C.shape
    zero = [[0] * m for _ in range(n)]
    return _fastpath.window_rows(
        net0, unit, den, b.tolist(), C.tolist(), np.asarray(order).tolist(), pos0,
        win.log.expand(0, win.steps), zero,
    )


def _assert_same_window(got, ref, ref_rows, anchors):
    # The kernel stores no row: every row rebuilt from the window's anchors
    # (net0, unit, den, b, C, order, pos0), and the cycle rows it returns,
    # must be the oracle's bytes. The kernel's log, expanded, holds exactly
    # the oracle's turns, and its last 2n entries are the last 2n turns.
    assert (got.status, got.steps, got.s0_rel) == (ref.status, ref.steps, ref.s0_rel)
    turns = got.log.expand(0, got.steps + 1)
    assert turns == ref.log.expand(0, ref.steps + 1)
    assert len(turns) == got.steps
    tail = 2 * got.log.n
    assert got.log.choices[-tail:] == turns[-tail:]
    rows = _rebuilt_rows(got, *anchors)
    assert len(rows) == len(ref_rows)
    assert row_bytes(rows) == ref_rows.tobytes()
    if ref.status == "detected":
        assert len(got.profit_rows) == len(ref.profit_rows) == got.steps - got.s0_rel
        assert row_bytes(got.profit_rows) == ref_rows[got.s0_rel :].tobytes()
    else:
        assert got.profit_rows is None and ref.profit_rows is None
    assert got.selcount == ref.selcount
    # The choices the kernel hands the engine are the log's, expanded.
    n = got.log.n
    assert got.tail == got.log.expand(max(0, got.steps - n), got.steps) == ref.tail
    if ref.status == "detected":
        assert got.cycle == got.log.expand(got.s0_rel, got.steps) == ref.cycle
    else:
        assert got.cycle is None and ref.cycle is None


@pytest.fixture
def oracle_windows(monkeypatch):
    """Check every window the engine runs against the numpy kernel oracle.

    Returns the set of window statuses seen. The exact backend's oracle row
    is built from the lattice the engine anchored the window on.
    """
    run_window = _fastpath.run_window
    anchors_of = engine._LatticeBoard.anchors
    anchored = []
    seen = set()

    def record_anchor(lattice, exact):
        anchored.append((lattice, exact))
        return anchors_of(lattice, exact)

    def checked(net0, unit, den, b, C, order, pos0, budget, history_cap):
        got = run_window(net0, unit, den, b, C, order, pos0, budget, history_cap)
        # The engine passes lists; the oracle takes arrays.
        b, C, order = np.array(b), np.array(C), np.array(order, dtype=np.int64)
        lattice, exact = anchored.pop()
        if exact:
            net_row = window_oracle.exact_net_row(lattice)
        else:
            assert den == 1.0
            net_row = window_oracle.float_net_row(np.array(net0), unit)
        ref, ref_rows = window_oracle.run_window_oracle(
            net_row, b, C, order, pos0, budget, history_cap
        )
        _assert_same_window(got, ref, ref_rows, (net0, unit, den, b, C, order, pos0))
        seen.add(got.status)
        return got

    monkeypatch.setattr(engine._LatticeBoard, "anchors", record_anchor)
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
            eps = 1e-3 * float(C_of(problem).mean())
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
    order = np.arange(n, dtype=np.int64)
    lattice = engine._LatticeBoard(n, m, Fraction(1, 100), Fraction(1, 2))
    window, net_row = _window_anchors(lattice, backend)
    anchors = (*window, b_of(problem), C_of(problem), order, 1)

    def run():
        return _fastpath.run_window(
            *window, list(problem.valuations), list(problem.rows), order.tolist(),
            1, budget, history_cap,
        )

    ref, ref_rows = window_oracle.run_window_oracle(
        net_row, b_of(problem), C_of(problem), order, 1, budget, history_cap
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
    # n steps of t*, permuted orders, pos0 != 0 and both kinds of anchors,
    # against the oracle that records every observation.
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
            b, C = b_of(problem), C_of(problem)
        else:  # the tie-prone grid of the reproducer, where cycles run longer
            C = rng.integers(0, 6, (n, m)) * 0.1
            b = rng.choice([0.1, 0.3, 0.7, 1.1, 1.3], n)
        order = rng.permutation(n).astype(np.int64)
        pos0 = int(rng.integers(1, n)) if n > 1 else 0
        lattice = engine._LatticeBoard(n, m, Fraction(1, 20), Fraction(7, 10))
        for _ in range(int(rng.integers(0, 3 * n))):
            engine.apply_selection(lattice, int(rng.integers(n)), int(rng.integers(m)))
        window, net_row = _window_anchors(lattice, ("numpy", "exact")[trial % 2])
        anchors = (*window, b, C, order, pos0)
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
                *window, b.tolist(), C.tolist(), order.tolist(), pos0, budget, cap
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


@pytest.fixture
def drift_jumps(monkeypatch):
    """Record every drift jump the kernel takes, as (first turn, rounds).

    Each jump must leave every agent's cached row at its turn of the last
    skipped round, bit for bit the row ``window_rows`` rebuilds there: the
    kernel recomputes only the columns chosen in an agent's last n turns. A
    declined search must leave the cached rows bit for bit as they were.
    """
    jumps = []
    logs = []
    drift_rounds = _fastpath._drift_rounds
    turn_log = _fastpath.TurnLog

    def recorded(*args):
        logs.append(turn_log(*args))
        return logs[-1]

    def counted(net0, unit, den, b, C, agents, pattern, col, sel, rows, *rest):
        args = (net0, unit, den, b, C, agents, pattern, col, sel, rows, *rest)
        before = row_bytes(rows)
        rounds = drift_rounds(*args)
        if not rounds:
            assert row_bytes(rows) == before
        else:
            # The log holds every turn so far; the last, not yet applied,
            # begins the jump. Rebuild the jumped rows from zero counts.
            log, n, m = logs[-1], len(C), len(C[0])
            t0 = len(log.choices) + n * sum(r for _, r in log.runs) - 1
            turns = log.expand(0, t0)
            assert sum(map(sum, sel)) == t0
            assert turns[-n:] == pattern
            jumps.append((t0, rounds))
            every = _fastpath.window_rows(
                net0, unit, den, b, C, agents, 0, turns + pattern * rounds,
                [[0] * m for _ in range(n)],
            )
            for a, row in zip(agents, every[-n:]):
                assert row_bytes(rows[a]) == row_bytes(row)
        return rounds

    monkeypatch.setattr(_fastpath, "TurnLog", recorded)
    monkeypatch.setattr(_fastpath, "_drift_rounds", counted)
    return jumps


def _drift_windows(backend, denominators):
    """Windows with long drifts: example2 and seeded 2x2..4x5 random problems.

    Each window starts on a lattice at d0 = 1/den with a few random turns
    applied, so its anchors are not zero. Yields the kernel's arguments up
    to the budget, the oracle's likewise and the anchors for
    ``_assert_same_window``.
    """
    rng = np.random.default_rng(13)
    shapes = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5))
    problems = [example2_fixture()] + [random_problem(n, m, rng) for n, m in shapes]
    for problem in problems:
        n, m = problem.n, problem.m
        for den in denominators:
            lattice = engine._LatticeBoard(n, m, Fraction(1, den), Fraction(7, 10))
            for _ in range(int(rng.integers(0, 3 * n))):
                engine.apply_selection(lattice, int(rng.integers(n)), int(rng.integers(m)))
            window, net_row = _window_anchors(lattice, backend)
            order = rng.permutation(n).astype(np.int64)
            pos0 = int(rng.integers(n))
            args = (*window, list(problem.valuations), list(problem.rows), order.tolist(), pos0)
            oracle_args = (net_row, b_of(problem), C_of(problem), order, pos0)
            anchors = (*window, b_of(problem), C_of(problem), order, pos0)
            yield args, oracle_args, anchors


@pytest.mark.parametrize("keys", ("zobrist", "colliding", "few_bit"))
@pytest.mark.parametrize("backend", BACKENDS)
def test_drift_jumps_match_the_oracle(monkeypatch, drift_jumps, backend, keys):
    # The kernel crosses a drift, every agent repeating its bid round after
    # round, in one jump and records no observation inside it. Its windows
    # must still be the oracle's, which steps and records every turn, also
    # when state keys collide. All-colliding keys make every recorded step a
    # candidate, so they get the shorter windows only.
    if keys == "colliding":
        monkeypatch.setattr(_fastpath, "_zobrist_keys", _colliding_keys)
    elif keys == "few_bit":
        monkeypatch.setattr(_fastpath, "_zobrist_keys", _few_bit_keys)
    denominators = (200,) if keys == "colliding" else (200, 2000)
    jumped = cycle_in_drift = 0
    for args, oracle_args, anchors in _drift_windows(backend, denominators):
        drift_jumps.clear()
        got = _fastpath.run_window(*args, 10**6, 10**6)
        ref, ref_rows = window_oracle.run_window_oracle(*oracle_args, 10**6, 10**6)
        _assert_same_window(got, ref, ref_rows, anchors)
        n = len(args[0])
        jumped += len(drift_jumps)
        # The repeated state's turn was never stepped: the jump wrote it.
        cycle_in_drift += any(t0 + 1 < got.s0_rel <= t0 + r * n for t0, r in drift_jumps)
    assert jumped >= 3
    assert cycle_in_drift >= 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_drift_jumps_with_many_agents_match_the_oracle(drift_jumps, backend):
    # With 13 agents a drift estimated at under one round clears the
    # dozen-turn threshold, so the search also runs when a turn of round 0
    # already leaves the pattern; the fixture checks that the cached rows
    # are then left as they are.
    n, m = 13, 2
    problem = random_problem(n, m, np.random.default_rng(4))
    lattice = engine._LatticeBoard(n, m, Fraction(1, 2000), Fraction(7, 10))
    anchors, net_row = _window_anchors(lattice, backend)
    order = np.arange(n)
    got = _fastpath.run_window(
        *anchors, list(problem.valuations), list(problem.rows), order.tolist(), 0, 10**6, 10**6
    )
    ref, ref_rows = window_oracle.run_window_oracle(
        net_row, b_of(problem), C_of(problem), order, 0, 10**6, 10**6
    )
    _assert_same_window(got, ref, ref_rows, (*anchors, b_of(problem), C_of(problem), order, 0))
    assert drift_jumps


@pytest.mark.parametrize("backend", BACKENDS)
def test_drift_window_ends_match_the_oracle(drift_jumps, backend):
    # A jump may run past the budget or the history cap; the window is then
    # cut back to where the oracle ends it. Every budget and cap within n
    # steps of each drift's end, of its middle (where the jump stops short
    # of the drift's end) and of the first repeat t*.
    cuts_checked = 0
    for args, oracle_args, anchors in _drift_windows(backend, (200,)):
        drift_jumps.clear()
        full = _fastpath.run_window(*args, 10**6, 10**6)
        n = len(args[0])
        marks = {full.steps}
        for t0, r in drift_jumps:
            marks |= {t0 + r * n, t0 + r // 2 * n}
        cuts = set()
        for x in marks:
            for c in range(max(2, x - n), x + n + 1):
                cuts |= {(c, 10**6), (10**6, c)}
        for budget, cap in sorted(cuts):
            got = _fastpath.run_window(*args, budget, cap)
            ref, ref_rows = window_oracle.run_window_oracle(*oracle_args, budget, cap)
            _assert_same_window(got, ref, ref_rows, anchors)
            cuts_checked += len(marks) > 1
    assert cuts_checked >= 100


@pytest.mark.parametrize("backend", BACKENDS)
def test_drift_jump_stores_one_run(backend):
    # A drift is one run in the window's log, however many rounds it spans:
    # the worked example's 100,003-step window at d0 = 1/60000 keeps a few
    # log entries and the run allocates nothing per turn.
    config = TacoConfig(epsilon=1e-6, d0="1/60000", gamma="9/10")
    agents = example2_fixture().agents()
    tracemalloc.start()
    try:
        outcome = run_taco(config, agents, backend=backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.steps == 100_003
    (win,) = outcome.trace._windows
    assert win.log.runs
    assert len(win.log.choices) + len(win.log.runs) < 64
    assert peak < 256 * 1024


@pytest.mark.parametrize("backend", BACKENDS)
def test_expanded_log_matches_the_oracle(backend):
    # The worked example's window at d0 = 1/2000 is one long drift: its log,
    # expanded, is the oracle's turns one for one.
    problem = example2_fixture()
    lattice = engine._LatticeBoard(2, 2, Fraction(1, 2000), Fraction(9, 10))
    anchors, net_row = _window_anchors(lattice, backend)
    order = np.arange(2)
    got = _fastpath.run_window(
        *anchors, list(problem.valuations), list(problem.rows), order.tolist(), 0, 10**6, 10**6
    )
    ref, ref_rows = window_oracle.run_window_oracle(
        net_row, b_of(problem), C_of(problem), order, 0, 10**6, 10**6
    )
    assert got.log.runs and not ref.log.runs
    assert got.steps == ref.steps > 3000
    assert got.log.expand(0, got.steps) == ref.log.choices
    _assert_same_window(got, ref, ref_rows, (*anchors, b_of(problem), C_of(problem), order, 0))


@pytest.mark.parametrize("backend", BACKENDS)
def test_window_kernel_matches_oracle_on_montecarlo_instances(monkeypatch, oracle_windows, backend):
    # The sweep's own instances, built as the experiments build them
    # (instance stream 0 of each trial's seed path), until 200 windows have
    # been checked against the oracle.
    cfg = experiments.ExperimentConfig()
    run_window = _fastpath.run_window
    windows = []

    def counted(*args):
        windows.append(args)
        return run_window(*args)

    monkeypatch.setattr(_fastpath, "run_window", counted)
    trial = 0
    while len(windows) < 200:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed, trial, 0]))
        problem, eps = experiments.make_instance(cfg, rng)
        config = TacoConfig(epsilon=eps, d0=cfg.d0, gamma=cfg.gamma)
        run_taco(config, problem.agents(), backend=backend)
        trial += 1
    assert oracle_windows == {"detected"}


def _cycle_rows_rebuilt(win, anchors):
    """Assert a detected window's cycle rows are ``window_rows``' rebuild, byte for byte.

    ``anchors`` are the window's (net0, unit, den, b, C, order, pos0). Returns
    the cycle's length in rounds.
    """
    assert win.status == "detected"
    rows = _rebuilt_rows(win, *anchors)
    assert len(win.profit_rows) == win.steps - win.s0_rel
    assert row_bytes(win.profit_rows) == row_bytes(rows[win.s0_rel :])
    return (win.steps - win.s0_rel) // win.log.n


def _run_ends(log):
    """The turn right after each run of a window's log."""
    t = c = 0
    for k, r in log.runs:
        t += k - c + r * log.n
        c = k
        yield t


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_round_cycle_rows_are_the_rebuilt_rows(monkeypatch, backend):
    # A cycle of one round takes its rows from the kernel's cached rows, in
    # turn order; a longer one rebuilds them. Either way they are the rows
    # window_rows rebuilds from the window's anchors: on the sweep's own
    # windows (one-round cycles, most of them found by the walk-back, and a
    # few two-round ones), on one-round cycles right after a drift jump, and
    # on the 13-agent drift problem.
    cfg = experiments.ExperimentConfig()
    run_window = _fastpath.run_window
    rounds = []
    walked_back = 0

    def checked(net0, unit, den, b, C, order, pos0, budget, history_cap):
        nonlocal walked_back
        win = run_window(net0, unit, den, b, C, order, pos0, budget, history_cap)
        anchors = (net0, unit, den, np.array(b), np.array(C), order, pos0)
        rounds.append(_cycle_rows_rebuilt(win, anchors))
        # The key hit is at a first player's turn; the walk-back moved it.
        walked_back += rounds[-1] == 1 and (win.s0_rel - 1) % len(b) != 0
        return win

    monkeypatch.setattr(_fastpath, "run_window", checked)
    trial = 0
    while rounds.count(1) < 200 or max(rounds) < 2:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed, trial, 0]))
        problem, eps = experiments.make_instance(cfg, rng)
        run_taco(TacoConfig(epsilon=eps, d0=cfg.d0, gamma=cfg.gamma), problem.agents(),
                 backend=backend)
        trial += 1
    monkeypatch.undo()
    assert walked_back >= 100
    assert max(rounds) >= 2

    after_jump = 0
    for args, _, anchors in _drift_windows(backend, (200, 2000, 20000)):
        win = _fastpath.run_window(*args, 10**6, 10**6)
        if win.status == "detected" and _cycle_rows_rebuilt(win, anchors) == 1:
            after_jump += any(e <= win.s0_rel <= e + win.log.n for e in _run_ends(win.log))
    assert after_jump >= 2

    n, m = 13, 2
    problem = random_problem(n, m, np.random.default_rng(4))
    lattice = engine._LatticeBoard(n, m, Fraction(1, 2000), Fraction(7, 10))
    window, _ = _window_anchors(lattice, backend)
    win = _fastpath.run_window(
        *window, list(problem.valuations), list(problem.rows), list(range(n)), 0, 10**6, 10**6
    )
    assert win.log.runs
    _cycle_rows_rebuilt(win, (*window, b_of(problem), C_of(problem), np.arange(n), 0))


def test_cycle_spreads_are_computed_once(monkeypatch):
    # The termination test and the spread metric both read CycleRecord.spreads,
    # so each agent's spread of each cycle is computed once per run.
    calls = []
    profit_spread = board._profit_spread

    def counted(rows, active):
        calls.append(1)
        return profit_spread(rows, active)

    monkeypatch.setattr(board, "_profit_spread", counted)
    cfg = experiments.ExperimentConfig()
    for trial in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed, trial, 0]))
        problem, eps = experiments.make_instance(cfg, rng)
        config = TacoConfig(epsilon=eps, d0=cfg.d0, gamma=cfg.gamma)
        calls.clear()
        outcome = run_taco(config, problem.agents())
        experiments.taco_trial_result(problem, outcome)
        assert outcome.cycles_detected >= 1
        assert len(calls) == problem.n * outcome.cycles_detected


@pytest.mark.parametrize("max_rounds", (1, 2, 3, 7, 64))
def test_first_failing_round_matches_a_linear_scan(max_rounds):
    # The drift search's gallop from a guess, then bisection, on every
    # monotone predicate over max_rounds rounds and every guess, including
    # guesses out of range. Threshold 0 is a drift whose first round already
    # leaves the pattern. No round is evaluated twice, and a guess e rounds
    # off costs at most 2 + 2*ceil(log2(e + 1)) evaluations.
    for threshold in range(max_rounds + 1):
        want = next((r for r in range(max_rounds) if not r < threshold), max_rounds)
        for guess in range(-3, max_rounds + 4):
            seen = []

            def ok(r):
                assert 0 <= r < max_rounds
                seen.append(r)
                return r < threshold

            assert _fastpath._first_failing(ok, guess, max_rounds) == want
            assert len(seen) == len(set(seen))
            assert len(seen) <= 2 + 2 * math.ceil(math.log2(abs(guess - want) + 1))
            if guess == want - 1:
                assert len(seen) <= 2


def test_drift_search_leaving_at_its_first_round_writes_no_row():
    # Cached rows that predict a long drift where the pattern's first turn
    # already leaves it: at zero delta agent 0 of the worked example prefers
    # option 1, not the pattern's 0. The search returns 0 and leaves every
    # cached row as it was.
    problem = example2_fixture()
    rows = [[100.0, 0.0], [0.0, 100.0]]
    rounds = _fastpath._drift_rounds(
        [[0.0, 0.0], [0.0, 0.0]], 0.01, 1.0, list(problem.valuations), list(problem.rows),
        [0, 1], [0, 1], [0, 0], [[0, 0], [0, 0]], rows, 50, 0,
    )
    assert rounds == 0
    assert rows == [[100.0, 0.0], [0.0, 100.0]]


@pytest.mark.parametrize("backend", BACKENDS)
def test_drift_search_starts_at_its_estimate(monkeypatch, backend):
    # The cached rows predict a drift's last round, so a search costs about
    # two row evaluations however long the drift: the worked example's one
    # 49,998-round drift at d0 = 1/60000 takes at most 4, and the drift
    # windows at most 3 a jump on average.
    evals, jumps = [], []
    rows_at, drift_rounds = _fastpath._rows_at, _fastpath._drift_rounds

    def counted_rows(*args):
        evals.append(args[0])
        return rows_at(*args)

    def counted_search(*args):
        rounds = drift_rounds(*args)
        if rounds:
            jumps.append(rounds)
        return rounds

    monkeypatch.setattr(_fastpath, "_rows_at", counted_rows)
    monkeypatch.setattr(_fastpath, "_drift_rounds", counted_search)
    config = TacoConfig(epsilon=1e-6, d0="1/60000", gamma="9/10")
    outcome = run_taco(config, example2_fixture().agents(), backend=backend)
    assert outcome.steps == 100_003
    assert 49_998 in jumps
    assert len(evals) <= 4
    evals.clear()
    jumps.clear()
    for args, _, _ in _drift_windows(backend, (200, 2000, 20000)):
        _fastpath.run_window(*args, 10**6, 10**6)
    assert len(jumps) >= 10
    assert len(evals) <= 3 * len(jumps)


@pytest.mark.parametrize("backend", BACKENDS)
def test_drift_search_where_the_fall_rounds_to_zero(backend):
    # At d0 = 1e-323 the float trading unit is positive, so drift jumps stay
    # on, but b_a * d rounds to 0.0 at b = (0.1, 0.2): the estimate must skip
    # the zero fall, not divide by it, and the window must still be the
    # oracle's. Its 10^4-step budget ends inside one run of 4,998 rounds.
    problem = ChoiceProblem(n=2, m=2, C=example2_fixture().rows, b=[0.1, 0.2])
    lattice = engine._LatticeBoard(2, 2, Fraction(1, 10**323), Fraction(9, 10))
    anchors, net_row = _window_anchors(lattice, backend)
    assert anchors[1] / anchors[2] > 0 and 0.1 * (anchors[1] / anchors[2]) == 0.0
    order = np.arange(2)
    got = _fastpath.run_window(
        *anchors, list(problem.valuations), list(problem.rows), order.tolist(), 0, 10**4, 10**6
    )
    ref, ref_rows = window_oracle.run_window_oracle(
        net_row, b_of(problem), C_of(problem), order, 0, 10**4, 10**6
    )
    assert got.status == "budget"
    assert [r for _, r in got.log.runs] == [4998]
    _assert_same_window(got, ref, ref_rows, (*anchors, b_of(problem), C_of(problem), order, 0))


@pytest.mark.parametrize("backend", BACKENDS)
def test_drift_jumps_where_the_float_unit_underflows(backend):
    # At d0 = 1e-330 the float trading unit is 0.0: on numpy anchors every
    # cell is constant in delta, on exact anchors one correctly rounded int
    # division, monotone either way. Every per-round fall rounds to 0.0, so
    # the estimate is max_rounds - 1 and the search checks it; the window
    # must jump and still be the oracle's.
    for k in range(4):
        problem = random_problem(3, 3, np.random.default_rng(k))
        lattice = engine._LatticeBoard(3, 3, Fraction(1, 10**330), Fraction(1, 2))
        anchors, net_row = _window_anchors(lattice, backend)
        assert anchors[1] / anchors[2] == 0.0
        order = np.arange(3)
        got = _fastpath.run_window(
            *anchors, list(problem.valuations), list(problem.rows), order.tolist(), 0, 10**4, 10**6
        )
        ref, ref_rows = window_oracle.run_window_oracle(
            net_row, b_of(problem), C_of(problem), order, 0, 10**4, 10**6
        )
        assert got.log.runs, k
        _assert_same_window(got, ref, ref_rows, (*anchors, b_of(problem), C_of(problem), order, 0))


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_refuses_a_valuation_set_non_positive_after_construction(backend):
    # AgentPrivate checks b > 0 only when built; the engine checks it again,
    # since a drift jump is sound only where every cell is monotone in delta.
    agents = example2_fixture().agents()
    agents[1].valuation = -0.5
    with pytest.raises(ValueError, match="valuations must be positive"):
        run_taco(_config(), agents, backend=backend)


def test_drift_search_stays_off_the_headline_workload(monkeypatch):
    # The drift search runs only where a drift is long: never on 200 default
    # montecarlo instances, at most twice a backend on the worked example's
    # 100,003-step window at d0 = 1/60000.
    calls = []
    drift_rounds = _fastpath._drift_rounds

    def counted(*args):
        calls.append(args)
        return drift_rounds(*args)

    monkeypatch.setattr(_fastpath, "_drift_rounds", counted)
    cfg = experiments.ExperimentConfig(trials=200, base_seed=42, mechanisms=("taco",))
    experiments.run_montecarlo(cfg)
    assert not calls
    config = TacoConfig(epsilon=1e-6, d0="1/60000", gamma="9/10")
    for backend in BACKENDS:
        calls.clear()
        assert run_taco(config, example2_fixture().agents(), backend=backend).steps == 100_003
        assert 1 <= len(calls) <= 2, backend


def test_find_repeat_counts_a_run_by_its_rounds():
    # _find_repeat counts a run as its pattern times its rounds, without
    # expanding it. Two stepped rounds of [0, 1] and a run of three more,
    # then five rounds of [1, 0]: each agent chose each option five times,
    # so step 21 repeats step 1. Every other pair of steps one agent apart
    # gets the answer the expanded turns give.
    log = _fastpath.TurnLog([0, 1, 0, 1] + [1, 0] * 5, [(4, 3)], 2)
    assert _fastpath._find_repeat(1, (), 21, log, 2) == 1
    turns = log.expand(0, 20)
    for s in range(1, 21):
        for t in range(s + 2, 22, 2):
            counts = [[0, 0], [0, 0]]
            for k in range(s - 1, t - 1):
                counts[k % 2][turns[k]] += 1
            want = s if counts[0] == counts[1] else -1
            assert _fastpath._find_repeat(s, (), t, log, 2) == want


def test_truncate_keeps_the_turns_before_the_cut():
    # truncate drops turns from the back, in place, and ends a run inside a
    # round where the cut falls there: every cut keeps exactly the turns
    # before it, and the last 2n entries of choices are the last 2n turns.
    n = 2
    full = _fastpath.TurnLog([1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0], [(4, 3), (8, 2)], n)
    turns = full.expand(0, 21)
    assert len(turns) == 21
    for end in range(22):
        log = _fastpath.TurnLog(full.choices[:], full.runs[:], n)
        log.truncate(end)
        assert log.expand(0, end + 1) == turns[:end]
        assert len(log.choices) + n * sum(r for _, r in log.runs) == end
        assert log.choices[-2 * n :] == turns[:end][-2 * n :]
