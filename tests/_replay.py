"""Independent exact replay of an engine run, verifying every invariant.

The verifier rebuilds the whole run from the outcome's trace on its own
mutable ``Fraction`` board (``new_board``, ``apply_selection``,
``reduce_trading_unit``, ``profit_row`` below), recomputing profits from
Fractions at every step, and detects cycles itself on the rational board
with its own state keys (``StateKey``, ``record_and_detect``). The package
keeps ``PublicBoard`` only as a result type, so none of these operations
exist in ``src/``: they share no code with the engine's lattice or window
kernel, and agreement here means every backend really implements the
reference semantics:

- column conservation of offers minus pays, exact, at every step;
- the traced profit rows and selections match the replayed ones (bit for
  bit, and the selection is the argmax, with ``exact_rows``);
- a state repeats exactly where the outcome records a cycle, with the same
  span, the history clearing at each reduction;
- within each constant-unit window, per-agent profit row sums repeat with
  period n and their spread is exactly d * (n - 1) * b_i;
- every profit entry inside a window respects the analytic lower bound
  min(initial row minimum, min row sum / m - d * (n - 1) * b_i);
- each detected cycle has identical per-agent selection-count rows, spans a
  positive multiple of n, stays within the (p + 1) * d * (n - 1) * b_i
  spread ceiling, and only the final cycle of a naturally terminated run
  passes the termination test;
- settlements equal offers minus pays of the consensus column on the
  replayed board and sum to zero exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from tacosim.agent import AgentPrivate
from tacosim.board import CycleRecord, PublicBoard, exact
from tacosim.engine import TacoConfig, TacoOutcome, check_termination
from tacosim.baselines import ChoiceProblem
from tacosim.errors import HistoryLimitError


def new_board(n: int, m: int, d0: int | str | Fraction) -> PublicBoard:
    """Fresh all-zero board for n agents and m choices with trading unit d0 > 0."""
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")
    if m < 1:
        raise ValueError(f"need at least one choice, got m={m}")
    d = exact(d0)
    if d <= 0:
        raise ValueError(f"trading unit d0 must be positive, got {d}")
    zeros = lambda: [[Fraction(0)] * m for _ in range(n)]
    return PublicBoard(
        n=n, m=m, offers=zeros(), pays=zeros(), d=d, selections=[None] * n
    )


def apply_selection(board: PublicBoard, agent: int, choice: int) -> PublicBoard:
    """Apply one auction turn in place: agent bids n*d on choice, offering d to all.

    The bid is split evenly, so every row's offer column grows by d while only
    the bidder's pay column grows by n*d. Column sums of offers - pays are
    invariant (each turn adds n*d to both).
    """
    if not (0 <= agent < board.n):
        raise ValueError(f"agent index {agent} out of range for n={board.n}")
    if not (0 <= choice < board.m):
        raise ValueError(f"choice index {choice} out of range for m={board.m}")
    d = board.d
    board.pays[agent][choice] += board.n * d
    for i in range(board.n):
        board.offers[i][choice] += d
    board.selections[agent] = choice
    board.step += 1
    return board


def reduce_trading_unit(board: PublicBoard, gamma: int | str | Fraction) -> PublicBoard:
    """Shrink the trading unit by gamma in (0, 1) after a detected cycle.

    The caller is responsible for clearing its recorded-state history; a new
    constant-d window starts here.
    """
    g = exact(gamma)
    if not (0 < g < 1):
        raise ValueError(f"reduction factor gamma must lie in (0, 1), got {g}")
    board.d = board.d * g
    board.epoch += 1
    return board


def net(board: PublicBoard) -> list[list[Fraction]]:
    """offers - pays, entrywise."""
    return [
        [board.offers[i][j] - board.pays[i][j] for j in range(board.m)]
        for i in range(board.n)
    ]


def copy_board(board: PublicBoard) -> PublicBoard:
    """A deep copy: mutating either board leaves the other as it was."""
    return PublicBoard(
        n=board.n,
        m=board.m,
        offers=[row[:] for row in board.offers],
        pays=[row[:] for row in board.pays],
        d=board.d,
        step=board.step,
        epoch=board.epoch,
        selections=board.selections[:],
    )


def profit_row(agent: AgentPrivate, board: PublicBoard) -> np.ndarray:
    """The agent's current profit for every choice, as float64.

    valuation * float(net) - cost, each net entry the float of its exact
    rational; the best response is this row's ``np.argmax`` (lowest index on
    ties).
    """
    if len(agent.cost_row) != board.m:
        raise ValueError(
            f"cost_row has {len(agent.cost_row)} entries but the board has m={board.m}"
        )
    net_row = np.array(
        [float(board.offers[agent.index][j] - board.pays[agent.index][j]) for j in range(board.m)],
        dtype=np.float64,
    )
    return agent.valuation * net_row - np.array(agent.cost_row, dtype=np.float64)


@dataclass(frozen=True)
class StateKey:
    """Hashable snapshot of (offers - pays, playing agent) for cycle detection.

    The net matrix is the state the playing agent observes at the start of
    its turn. Two keys are equal iff the nets match entrywise as exact
    rationals and the same agent is on turn.
    """

    net: tuple[tuple[Fraction, ...], ...]
    playing_agent: int

    @classmethod
    def from_board(cls, board: PublicBoard, playing_agent: int) -> "StateKey":
        return cls(net=tuple(map(tuple, net(board))), playing_agent=playing_agent)


def span_counts(
    selection_log: list[tuple[int, int]], start_step: int, end_step: int, n: int, m: int
) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """Per-(agent, choice) selection counts and active choice set over a span.

    ``selection_log[k]`` is the (agent, choice) pair of step k+1; the span is
    inclusive on both ends. The counts are one tuple of ints per agent, the
    type of ``CycleRecord.choice_counts``.
    """
    counts = [[0] * m for _ in range(n)]
    for agent, choice in selection_log[start_step - 1 : end_step]:
        counts[agent][choice] += 1
    active = frozenset(j for j, col in enumerate(zip(*counts)) if any(col))
    return tuple(map(tuple, counts)), active


def row_bytes(rows) -> bytes:
    """The float64 bytes of a profit row, or of a sequence of rows stacked."""
    return np.array(rows, dtype=np.float64).tobytes()


def record_and_detect(
    history: dict[StateKey, int],
    key: StateKey,
    selection_log: list[tuple[int, int]],
    max_entries: int = 10**6,
) -> CycleRecord | None:
    """Record the state observed at the current step, reporting a cycle on repeat.

    ``key`` is the state the playing agent saw at the start of its turn plus
    that agent's index. ``selection_log`` must already include the current
    step's selection, so the current step index is the log's length. If
    ``key`` was already observed at an earlier step s0, the selections of
    steps s0+1..current form a cycle and a CycleRecord is returned (with
    ``agent_turn_profits`` left empty); otherwise the key is inserted and
    None is returned.
    """
    current = len(selection_log)
    seen_at = history.get(key)
    if seen_at is None:
        if len(history) >= max_entries:
            raise HistoryLimitError(
                f"state-key history exceeded {max_entries} entries at step {current}; "
                f"raise the cap or loosen the termination threshold"
            )
        history[key] = current
        return None
    n = len(key.net)
    m = len(key.net[0]) if n else 0
    counts, active = span_counts(selection_log, seen_at + 1, current, n, m)
    return CycleRecord(
        start_step=seen_at + 1,
        end_step=current,
        active_choices=active,
        choice_counts=counts,
        agent_turn_profits=[[] for _ in range(n)],
    )


def _mode_lowest(values):
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def _profits(problem: ChoiceProblem, board) -> np.ndarray:
    out = np.empty((problem.n, problem.m), dtype=np.float64)
    for i in range(problem.n):
        for j in range(problem.m):
            net = board.offers[i][j] - board.pays[i][j]
            out[i, j] = float(problem.b[i]) * float(net) - problem.C[i, j]
    return out


def _check_window(window_J, d: float, b, n: int, m: int, tol: float) -> None:
    """Row-sum periodicity, exact spread, and the profit lower bound."""
    S = np.array([J.sum(axis=1) for J in window_J])  # observations x agents
    T = S.shape[0]
    for k in range(T - n):
        gap = np.abs(S[k + n] - S[k]).max()
        assert gap <= tol, f"row sums not {n}-periodic inside a window: gap {gap}"
    if T >= n + 1:
        spread = S.max(axis=0) - S.min(axis=0)
        target = d * (n - 1) * np.asarray(b, dtype=np.float64)
        gap = np.abs(spread - target).max()
        assert gap <= tol, f"row-sum spread != d*(n-1)*b_i: gap {gap}"
    J0 = window_J[0]
    smin = S.min(axis=0)
    for i in range(n):
        bound = min(J0[i].min(), smin[i] / m - d * (n - 1) * float(b[i]))
        lowest = min(J[i].min() for J in window_J)
        assert lowest >= bound - tol, (
            f"profit {lowest} for agent {i} dips below the window bound {bound}"
        )


def rational_departures(
    problem: ChoiceProblem, config: TacoConfig, outcome: TacoOutcome
) -> tuple[int | None, list[int]]:
    """Where ``outcome`` leaves the rational decision rule, or ``(None, [])``.

    Replays the outcome's choices on the ``Fraction`` board above, with b, C
    and epsilon taken as the exact values of their floats, so agent i's value
    of option j is ``b_i*N_ij - C_ij`` with no rounding. Returns the first
    step (1-based) whose selection is not the lowest-index maximiser of its
    agent's values, or None, and the indices into ``outcome.cycle_records``
    of the cycles whose termination decision differs from "every agent's
    spread over its values on the active choices, pooled across its turns in
    the cycle, is < epsilon". The replay follows the outcome's choices past
    a departure, so later cycles are judged on the board the run really had.
    """
    n, m = problem.n, problem.m
    b = [Fraction(x) for x in problem.valuations]
    C = [[Fraction(x) for x in row] for row in problem.rows]
    eps = Fraction(config.epsilon)
    board = new_board(n, m, config.d0)
    cycles = outcome.cycle_records
    cycle_at = {cyc.end_step: k for k, cyc in enumerate(cycles)}
    first, bad_cycles, values = None, [], []
    for ts in outcome.trace:
        i, offers, pays = ts.agent, board.offers[ts.agent], board.pays[ts.agent]
        V = [b[i] * (offers[j] - pays[j]) - C[i][j] for j in range(m)]
        values.append((i, V))
        if first is None and V.index(max(V)) != ts.selection:
            first = ts.step
        k = cycle_at.get(ts.step)
        if k is None:
            apply_selection(board, ts.agent, ts.selection)
            continue
        cyc = cycles[k]
        pooled = [[] for _ in range(n)]
        for a, V in values[cyc.start_step - 1 : cyc.end_step]:
            pooled[a] += (V[j] for j in cyc.active_choices)
        stops = all(max(vals) - min(vals) < eps for vals in pooled)
        stopped = outcome.terminated_naturally and k == len(cycles) - 1
        if stops != stopped:
            bad_cycles.append(k)
        reduce_trading_unit(board, config.gamma)
        if not stopped:
            apply_selection(board, ts.agent, ts.selection)
    return first, bad_cycles


def verify_run(
    problem: ChoiceProblem,
    config: TacoConfig,
    outcome: TacoOutcome,
    tol: float = 1e-9,
    exact_rows: bool = False,
) -> dict:
    """Replay ``outcome`` and assert every invariant above.

    ``exact_rows`` tightens the profit check to the exact backend's contract:
    each traced row is the bytes of ``profit_row`` on the replayed board, and
    each selection is that row's argmax.
    """
    n, m = problem.n, problem.m
    agents = problem.agents()
    board = new_board(n, m, config.d0)
    history: dict[StateKey, int] = {}
    cycle_at = {cyc.end_step: cyc for cyc in outcome.cycle_records}
    assert len(cycle_at) == outcome.cycles_detected

    selections: list[tuple[int, int]] = []
    window_J: list[np.ndarray] = []
    window_start = 1
    last = outcome.trace[-1] if outcome.trace else None
    final_cycle = outcome.cycle_records[-1] if outcome.cycle_records else None

    for ts in outcome.trace:
        key = StateKey.from_board(board, ts.agent)
        for j in range(m):
            osum = sum(board.offers[i][j] for i in range(n))
            psum = sum(board.pays[i][j] for i in range(n))
            assert osum == psum, f"column {j} conservation broken at step {ts.step}"
        J = _profits(problem, board)
        window_J.append(J)
        row = J[ts.agent]
        assert np.abs(row - ts.profit_row).max() <= tol, (
            f"traced profit row diverges from exact replay at step {ts.step}"
        )
        best = int(np.argmax(row))
        assert best == ts.selection or abs(row[best] - row[ts.selection]) <= tol, (
            f"traced selection {ts.selection} is not a best response at step {ts.step}"
        )
        if exact_rows:
            ref = profit_row(agents[ts.agent], board)
            assert ref.tobytes() == row_bytes(ts.profit_row), (
                f"traced profit row is not the exact reference row at step {ts.step}"
            )
            assert ts.selection == int(np.argmax(ref)), (
                f"traced selection {ts.selection} is not the argmax at step {ts.step}"
            )
        selections.append((ts.agent, ts.selection))

        cyc = cycle_at.get(ts.step)
        found = record_and_detect(history, key, selections, config.history_cap)
        if found is None:
            assert cyc is None, f"no state repeats at step {ts.step}, yet a cycle is recorded"
        else:
            assert cyc is not None, f"state repeats at step {ts.step} without a recorded cycle"
            assert (found.start_step, found.end_step) == (cyc.start_step, cyc.end_step), (
                f"recorded cycle {cyc.start_step}..{cyc.end_step} != repeat "
                f"{found.start_step}..{found.end_step}"
            )
        if cyc is None:
            apply_selection(board, ts.agent, ts.selection)
            continue

        # Detected cycle: check its record against trace-derived facts.
        assert cyc.start_step >= window_start, "cycle span leaks into a previous window"
        assert cyc.length % n == 0 and cyc.length > 0
        assert cyc.d_at_detection == board.d, "cycle recorded the wrong trading unit"
        counts, active = span_counts(selections, cyc.start_step, cyc.end_step, n, m)
        assert counts == cyc.choice_counts
        assert active == cyc.active_choices
        assert len(set(counts)) == 1, "per-agent selection counts differ"

        d = float(board.d)
        act = sorted(active)
        p = len(act)
        agent_rows = [[] for _ in range(n)]
        for k in range(cyc.start_step - 1, cyc.end_step):
            a_k = outcome.trace[k].agent
            agent_rows[a_k].append(window_J[k - window_start + 1][a_k])
        for i in range(n):
            vals = np.concatenate([r[act] for r in agent_rows[i]])
            spread = float(vals.max() - vals.min())
            ceiling = (p + 1) * d * (n - 1) * float(problem.b[i])
            assert spread <= ceiling + tol, (
                f"cycle spread {spread} exceeds ceiling {ceiling} for agent {i}"
            )

        passes = check_termination(cyc, config.epsilon)
        if outcome.terminated_naturally and cyc is final_cycle:
            assert passes, "final cycle of a terminated run fails the termination test"
        else:
            assert not passes, "engine kept running past a cycle that passed the test"

        _check_window(window_J, d, problem.b, n, m, tol)
        reduce_trading_unit(board, config.gamma)
        history.clear()
        window_J = []
        window_start = ts.step + 1
        if not (ts.step == last.step and outcome.terminated_naturally):
            apply_selection(board, ts.agent, ts.selection)

    if window_J:
        # Budget-truncated tail window of an interrupted run.
        _check_window(window_J, float(board.d), problem.b, n, m, tol)

    assert board.d == outcome.final_d
    voted = {}
    for a_k, c_k in selections:
        voted[a_k] = c_k
    consensus = _mode_lowest(list(voted.values()))
    assert consensus == outcome.consensus_choice
    pi = [
        board.offers[i][outcome.consensus_choice] - board.pays[i][outcome.consensus_choice]
        for i in range(n)
    ]
    assert pi == list(outcome.settlements), "settlements differ from the replayed board"
    assert sum(pi, Fraction(0)) == 0, "settlements do not sum to zero"
    fb = outcome.final_board
    assert fb.offers == board.offers and fb.pays == board.pays
    return {
        "steps": len(outcome.trace),
        "cycles": outcome.cycles_detected,
        "final_d": board.d,
    }
