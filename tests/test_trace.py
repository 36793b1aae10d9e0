"""The lazy trace: per-window records that rebuild steps and rows on access."""

import pickle
import tracemalloc

import numpy as np
import pytest

from _replay import row_bytes, verify_run
from tacosim import _fastpath
from tacosim.baselines import ChoiceProblem
from tacosim.engine import Trace, TacoConfig, run_interrupted, run_taco
from tacosim.errors import NoTerminationError
from tacosim.scenario import example2_fixture, random_problem


def _step_facts(ts):
    return ts.step, ts.agent, ts.selection, row_bytes(ts.profit_row)


def _multi_window_instances():
    # The tie-prone reproducer of tests/test_engine.py, kept to the 12 runs
    # with more than one window, which switch between window records.
    rng = np.random.default_rng(7)
    config = TacoConfig(epsilon=0.05, d0="1/10", gamma="1/2")
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        C = rng.integers(0, 6, (n, m)) * 0.1
        b = rng.choice([0.1, 0.3, 0.7, 1.1, 1.3], n)
        problem = ChoiceProblem(n=n, m=m, C=C, b=b)
        if run_taco(config, problem.agents()).cycles_detected >= 2:
            yield config, problem


@pytest.fixture(scope="module")
def multi_window():
    return list(_multi_window_instances())


@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_trace_access_order_does_not_change_steps(multi_window, backend):
    rng = np.random.default_rng(11)
    assert len(multi_window) == 12
    for config, problem in multi_window:
        outcome = run_taco(config, problem.agents(), backend=backend)
        trace = outcome.trace
        assert isinstance(trace, Trace)
        assert len(trace) == outcome.steps and bool(trace)
        facts = [_step_facts(ts) for ts in trace]
        assert [f[0] for f in facts] == list(range(1, outcome.steps + 1))
        assert _step_facts(trace[-1]) == facts[-1]
        assert _step_facts(trace[-outcome.steps]) == facts[0]
        for k in rng.permutation(outcome.steps).tolist():
            assert _step_facts(trace[k]) == facts[k]
            assert _step_facts(trace[k - outcome.steps]) == facts[k]
        assert [_step_facts(ts) for ts in trace] == facts
        # The cycle rows come from the kernel's detection, the trace rows
        # from the window record: the same function must give the same bytes.
        for cyc in outcome.cycle_records:
            seen = [[] for _ in cyc.agent_turn_profits]
            for k in range(cyc.start_step - 1, cyc.end_step):
                seen[facts[k][1]].append(facts[k][3])
            assert [[row_bytes(r) for r in rows] for rows in cyc.agent_turn_profits] == seen
        for bad in (outcome.steps, -outcome.steps - 1):
            with pytest.raises(IndexError):
                trace[bad]


@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_trace_slices_are_lists_of_steps(multi_window, backend):
    # Negative, empty, stepped and out-of-range slices, as on a list of steps.
    for config, problem in multi_window:
        outcome = run_taco(config, problem.agents(), backend=backend)
        steps = list(outcome.trace)
        L = len(steps)
        mid = outcome.cycle_records[0].end_step
        slices = [
            slice(None), slice(-2, None), slice(None, -1), slice(-L, -L + 3),
            slice(3, 3), slice(5, 2), slice(L, None), slice(L + 5, L + 9),
            slice(-L - 10, 2), slice(None, None, 2), slice(1, None, 3),
            slice(None, None, -1), slice(-1, mid - 4, -2), slice(mid - 3, mid + 3),
            slice(mid + 2, mid - 3, -1), slice(-3, None, 5), slice(0, L + 100, 7),
        ]
        for s in slices:
            got = outcome.trace[s]
            want = steps[s]
            assert isinstance(got, list)
            assert [_step_facts(ts) for ts in got] == [_step_facts(ts) for ts in want], s
        with pytest.raises(ValueError):
            outcome.trace[::0]

    with pytest.raises(NoTerminationError) as err:
        config, problem = multi_window[0]
        capped = TacoConfig(epsilon=config.epsilon, d0=config.d0, gamma=config.gamma, max_steps=9)
        run_taco(capped, problem.agents(), backend=backend)
    trace = err.value.trace
    assert [_step_facts(ts) for ts in trace[2:7]] == [_step_facts(ts) for ts in list(trace)[2:7]]


def test_trace_rows_are_read_only(monkeypatch):
    # Every row and count leaves the engine as a tuple: a window's cycle rows,
    # a cycle's rows and counts, and a trace step's row. The run's first cycle
    # spans two rounds, so its rows are rebuilt; its second spans one, so its
    # rows are copies of the kernel's cached ones.
    problem = random_problem(3, 4, np.random.default_rng(1))
    config = TacoConfig(epsilon=1e-3 * float(problem.C.mean()), d0=1, gamma="7/10")
    run_window = _fastpath.run_window
    windows = []

    def recorded(*args):
        windows.append(run_window(*args))
        return windows[-1]

    monkeypatch.setattr(_fastpath, "run_window", recorded)
    for backend in ("numpy", "exact"):
        windows.clear()
        outcome = run_taco(config, problem.agents(), backend=backend)
        cycles = outcome.cycle_records
        assert [cyc.length // problem.n for cyc in cycles] == [2, 1]
        rows = [row for win in windows for row in win.profit_rows]
        rows += [row for cyc in cycles for seen in cyc.agent_turn_profits for row in seen]
        rows += [ts.profit_row for ts in outcome.trace]
        for row in rows:
            with pytest.raises(TypeError):
                row[0] = 0.0
        for cyc in cycles:
            with pytest.raises(TypeError):
                cyc.choice_counts[0] = ()
            for counts in cyc.choice_counts:
                with pytest.raises(TypeError):
                    counts[0] = 0
    outcome = run_taco(TacoConfig(epsilon=1e-6), example2_fixture().agents())
    assert outcome.trace[0].profit_row == (-10.0, -4.0)


@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_one_step_read_rebuilds_one_row(monkeypatch, backend):
    # A read counts the turns of a window before its span through the turn
    # log and rebuilds only the span's rows, one window_rows call per window
    # it covers; iteration rebuilds each window once. Each gives the same
    # bytes. example2 at d0 = 1/2000 is one long window of drift runs, and
    # the multi-window runs switch between windows.
    config = TacoConfig(epsilon=1e-6, d0="1/2000", gamma="9/10")
    cases = [(config, example2_fixture())] + list(_multi_window_instances())[:3]
    window_rows = _fastpath.window_rows
    rebuilt = []

    def recorded(*args):
        rows = window_rows(*args)
        rebuilt.append(len(rows))
        return rows

    monkeypatch.setattr(_fastpath, "window_rows", recorded)
    for config, problem in cases:
        outcome = run_taco(config, problem.agents(), backend=backend)
        rebuilt.clear()
        facts = [_step_facts(ts) for ts in outcome.trace]
        assert rebuilt == [g1 - g0 for g0, g1 in _window_bounds(outcome)]
        L = outcome.steps
        for k in (0, L // 3, L // 2, L - 1, -1, -L):
            trace = run_taco(config, problem.agents(), backend=backend).trace
            rebuilt.clear()
            assert _step_facts(trace[k]) == facts[k]
            assert rebuilt == [1]
        # A slice of k steps inside one window is one call of k rows; a
        # strided slice rebuilds the span between its ends.
        for g0, g1 in _window_bounds(outcome):
            for s in (slice(g0, g1), slice(g1 - 3, g1), slice(g0 + 1, g1 - 1, 2),
                      slice(g1 - 1, g0, -3), slice(g0, g0 + 1)):
                want = facts[s]
                rebuilt.clear()
                got = outcome.trace[s]
                assert [_step_facts(ts) for ts in got] == want, s
                r = range(*s.indices(L))
                assert rebuilt == ([max(r) - min(r) + 1] if r else []), s
        # A slice across windows is one call per window it covers.
        bounds = _window_bounds(outcome)
        if len(bounds) > 1:
            rebuilt.clear()
            lo, hi = bounds[0][1] - 2, bounds[1][0] + 3
            assert [_step_facts(ts) for ts in outcome.trace[lo:hi]] == facts[lo:hi]
            assert rebuilt == [2, 3]
    assert L > 2 * problem.n

    # example2 at d0 = 1/60000 is one 100,003-step window: its last 3 steps
    # are 3 rebuilt rows, not the window's.
    config = TacoConfig(epsilon=1e-6, d0="1/60000", gamma="9/10")
    outcome = run_taco(config, example2_fixture().agents(), backend=backend)
    assert outcome.steps == 100003
    rebuilt.clear()
    tail = outcome.trace[-3:]
    assert rebuilt == [3]
    assert [ts.step for ts in tail] == [100001, 100002, 100003]
    want = [_step_facts(outcome.trace[k]) for k in (-3, -2, -1)]
    assert [_step_facts(ts) for ts in tail] == want


def _window_bounds(outcome):
    """(first step index, end) of each window: the windows end at the cycles."""
    ends = [cyc.end_step for cyc in outcome.cycle_records if cyc.end_step < outcome.steps]
    starts = [0] + ends
    return list(zip(starts, ends + [outcome.steps]))


@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_truncated_traces_are_prefixes_of_the_full_trace(multi_window, backend):
    # A step cap or an interruption cuts a window short; the truncated
    # window's record must rebuild the same steps as the full run's.
    for config, problem in multi_window:
        full = run_taco(config, problem.agents(), backend=backend)
        facts = [_step_facts(ts) for ts in full.trace]
        cut_points = sorted({1, full.cycle_records[0].end_step, full.steps // 2, full.steps - 1})
        for cut in cut_points:
            capped = TacoConfig(
                epsilon=config.epsilon, d0=config.d0, gamma=config.gamma, max_steps=cut
            )
            with pytest.raises(NoTerminationError) as err:
                run_taco(capped, problem.agents(), backend=backend)
            trace = err.value.trace
            assert isinstance(trace, Trace) and len(trace) == err.value.steps == cut
            assert [_step_facts(ts) for ts in trace] == facts[:cut]
            assert _step_facts(trace[-1]) == facts[cut - 1]

            interrupted = run_interrupted(config, problem.agents(), cut, backend=backend)
            trace = interrupted.trace
            assert isinstance(trace, Trace) and len(trace) == interrupted.steps == cut
            assert _step_facts(trace[-1]) == facts[cut - 1]
            assert [_step_facts(ts) for ts in trace] == facts[:cut]
            verify_run(problem, config, interrupted, exact_rows=backend == "exact")


@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_outcome_with_its_trace_pickles(multi_window, backend):
    config, problem = multi_window[0]
    outcome = run_taco(config, problem.agents(), backend=backend)
    # The trace keeps no rows between reads, so reading it changes no byte.
    before = pickle.dumps(outcome)
    outcome.trace[3], outcome.trace[-1], outcome.trace[2:9:3], list(outcome.trace)
    assert pickle.dumps(outcome) == before
    copy = pickle.loads(pickle.dumps(outcome))
    assert [_step_facts(ts) for ts in copy.trace] == [_step_facts(ts) for ts in outcome.trace]
    # final_board is built from the kept lattice on first read, before or
    # after pickling.
    board = outcome.final_board
    assert copy.final_board == board
    assert pickle.loads(pickle.dumps(outcome)).final_board == board


def test_outcome_memory_per_step():
    # A single ~33k-step window: the outcome keeps each step's player and
    # choice, and no row; the peak is the window's state history, one entry
    # per round of the two agents.
    agents = example2_fixture().agents()
    run_taco(TacoConfig(epsilon=1e-6), agents)  # warm the kernel's caches
    config = TacoConfig(epsilon=1e-6, d0="1/20000", gamma="9/10")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outcome = run_taco(config, agents)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.steps == 33337
    assert (held - base) / outcome.steps <= 32
    assert (peak - base) / outcome.steps <= 96
