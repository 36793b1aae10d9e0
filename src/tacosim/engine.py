"""Auction orchestration: cyclic best-response turns, cycle detection,
trading-unit decay, epsilon-termination, consensus extraction, settlement.

Each turn the playing agent observes the board, selects its best response,
and the observed state (net matrix plus agent on turn) is checked against
the recorded history. A repeat observation is a cycle: the trading unit
shrinks, the history clears, and the termination test runs on the profits
agents saw at their own turns inside the cycle. On termination the final
turn's board update is never applied, so settlement reads the board the
detecting agent observed; otherwise that turn's update executes at the
reduced trading unit and play continues.

One driver serves every backend. It keeps the board on an integer lattice:
with d0 = a/b and gamma = p/q, every offer and pay at epoch K is an integer
multiple of a/(b*q^K), held as a Python int. Between two reductions it runs
one constant-d window through the window kernel (see _fastpath), whose
integer-delta history is the cycle detector. The backends differ only in the
net row the playing agent observes: "exact" divides the lattice integers
once per cell (correctly rounded, so the float of the exact rational net);
"numpy" and "numba" anchor the window's float net matrix that way and add
d * delta. The Fraction board is built once, at the end, for settlement and
final_board, so settlements are exact rationals on every backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _fastpath
from .agent import AgentPrivate
from .board import CycleRecord, PublicBoard, exact, span_counts
from .errors import HistoryLimitError, NoTerminationError


@dataclass
class TacoConfig:
    """Run parameters: trading unit, decay factor, tolerance, safety caps.

    d0 and gamma must be exact rationals (or strings/ints coercible to one);
    epsilon is an absolute profit-spread tolerance. turn_order defaults to the
    identity permutation.
    """

    epsilon: float
    d0: int | str | Fraction = 1
    gamma: int | str | Fraction = Fraction(9, 10)
    max_steps: int = 10**6
    turn_order: tuple[int, ...] | None = None
    history_cap: int = 10**6

    def __post_init__(self) -> None:
        self.d0 = exact(self.d0)
        if self.d0 <= 0:
            raise ValueError(f"d0 must be positive, got {self.d0}")
        self.gamma = exact(self.gamma)
        if not (0 < self.gamma < 1):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        self.epsilon = float(self.epsilon)
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be a positive finite real, got {self.epsilon}")
        self.max_steps = int(self.max_steps)
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        self.history_cap = int(self.history_cap)
        if self.history_cap < 2:
            raise ValueError(f"history_cap must be at least 2, got {self.history_cap}")
        if self.turn_order is not None:
            self.turn_order = tuple(int(i) for i in self.turn_order)


@dataclass(slots=True)
class TraceStep:
    """One executed turn: the profit row is the playing agent's, pre-update."""

    step: int
    agent: int
    selection: int
    profit_row: np.ndarray


@dataclass
class TacoOutcome:
    consensus_choice: int
    settlements: list[Fraction]
    steps: int
    rounds: int
    cycles_detected: int
    final_d: Fraction
    trace: list[TraceStep]
    terminated_naturally: bool
    cycle_records: list[CycleRecord]
    final_selections: list[int | None]
    final_board: PublicBoard


def run_taco(
    config: TacoConfig, agents: list[AgentPrivate], *, backend: str | None = None
) -> TacoOutcome:
    """Run the auction to natural termination (or raise NoTerminationError)."""
    return _run(config, agents, None, backend)


def run_interrupted(
    config: TacoConfig,
    agents: list[AgentPrivate],
    interrupt_step: int,
    *,
    backend: str | None = None,
) -> TacoOutcome:
    """Like run_taco, but stop after interrupt_step steps if still unresolved.

    An interrupted run takes consensus as the mode of the selections recorded
    so far and settles on the board as-is; terminated_naturally is False.
    """
    interrupt_step = int(interrupt_step)
    if interrupt_step < 1:
        raise ValueError(f"interrupt_step must be at least 1, got {interrupt_step}")
    return _run(config, agents, interrupt_step, backend)


def check_termination(cycle: CycleRecord, epsilon: float) -> bool:
    """True iff every agent's observed profit spread inside the cycle is < epsilon.

    The spread is over the cycle's active choices, pooled across the profit
    rows the agent saw at its own turns within the span.
    """
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    active = sorted(cycle.active_choices)
    for rows in cycle.agent_turn_profits:
        if not rows:
            raise ValueError("agent_turn_profits must be populated for every agent")
        lo = math.inf
        hi = -math.inf
        for row in rows:
            vals = row[active]
            lo = min(lo, float(vals.min()))
            hi = max(hi, float(vals.max()))
        if hi - lo >= epsilon:
            return False
    return True


def settle(board: PublicBoard, j_star: int) -> list[Fraction]:
    """Net receipt per agent for the consensus choice: offers minus pays, exact."""
    if not (0 <= j_star < board.m):
        raise ValueError(f"choice index {j_star} out of range for m={board.m}")
    return [board.offers[i][j_star] - board.pays[i][j_star] for i in range(board.n)]


def _prepare(config, agents):
    if not isinstance(config, TacoConfig):
        raise ValueError(f"config must be a TacoConfig, got {type(config).__name__}")
    n = len(agents)
    if n < 1:
        raise ValueError("need at least one agent")
    for pos, a in enumerate(agents):
        if a.index != pos:
            raise ValueError(
                f"agents must be listed in index order; agents[{pos}] has index {a.index}"
            )
    m = int(agents[0].cost_row.shape[0])
    if any(a.cost_row.shape[0] != m for a in agents):
        raise ValueError("all agents must share the same number of choices")
    if m < 1:
        raise ValueError("need at least one choice")
    C = np.stack([a.cost_row for a in agents]).astype(np.float64)
    b = np.array([a.valuation for a in agents], dtype=np.float64)
    if not (np.isfinite(C).all() and np.isfinite(b).all()):
        raise ValueError("costs and valuations must be finite")
    if config.turn_order is None:
        order = np.arange(n, dtype=np.int64)
    else:
        if sorted(config.turn_order) != list(range(n)):
            raise ValueError(
                f"turn_order must be a permutation of 0..{n - 1}, got {config.turn_order}"
            )
        order = np.array(config.turn_order, dtype=np.int64)
    return n, m, b, C, order


def _run(config, agents, interrupt_step, backend):
    backend = _fastpath.resolve_backend(backend)
    n, m, b, C, order = _prepare(config, agents)
    lattice = _LatticeBoard(n, m, config.d0, config.gamma)
    selections: list[int | None] = [None] * n
    hard_cap = config.max_steps if interrupt_step is None else min(config.max_steps, interrupt_step)
    trace: list[TraceStep] = []
    cycles: list[CycleRecord] = []
    terminated = False
    while len(trace) < hard_cap:
        g0 = len(trace)
        win = _fastpath.run_window(
            backend,
            lattice.net_float(),
            float(lattice.d),
            b,
            C,
            order,
            g0 % n,
            hard_cap - g0,
            config.history_cap,
            lattice.exact_net_cell() if backend == "exact" else None,
        )
        if win.status == "history_cap":
            raise HistoryLimitError(
                f"state-key history exceeded {config.history_cap} entries "
                f"near step {g0 + win.steps}"
            )
        players = win.players.tolist()
        choices = win.choices.tolist()
        trace.extend(
            map(TraceStep, range(g0 + 1, g0 + win.steps + 1), players, choices, win.profit_rows)
        )
        # Turns are cyclic, so the last n turns hold each agent's last selection.
        for a_k, c_k in zip(players[-n:], choices[-n:]):
            selections[a_k] = c_k
        if win.status != "detected":
            _advance_board(lattice, win.selcount, win.steps)
            break
        # The detection turn's update is pending; absorb the rest exactly.
        _advance_board(lattice, win.selcount, win.steps - 1)
        # A cycle never leaves its window: count it from the window's turns.
        s0 = win.s0_rel
        cycle_log = list(zip(players[s0:], choices[s0:]))
        counts, active = span_counts(cycle_log, 1, len(cycle_log), n, m)
        cyc = CycleRecord(
            start_step=g0 + s0 + 1,
            end_step=len(trace),
            active_choices=active,
            choice_counts=counts,
            agent_turn_profits=[[] for _ in range(n)],
            d_at_detection=lattice.d,
        )
        for ts in trace[cyc.start_step - 1 :]:
            cyc.agent_turn_profits[ts.agent].append(ts.profit_row)
        _check_cycle_structure(cyc, n)
        cycles.append(cyc)
        reduce_trading_unit(lattice)
        if check_termination(cyc, config.epsilon):
            terminated = True
            break
        apply_selection(lattice, players[-1], choices[-1])
    board = lattice.to_board(selections)
    return _finish(config, board, trace, cycles, terminated, interrupt_step)


class _LatticeBoard:
    """The engine's board, as integers on the current epoch's lattice.

    With d0 = a/b and gamma = p/q in lowest terms, at epoch K every offer and
    pay is an integer multiple of the unit a/(b*q^K) and the trading unit is
    p^K units. Offers are column-uniform (a turn offers d to every row), so
    they are one m-vector; pays are n x m. The entries are Python ints, which
    never overflow, so the lattice stays exact at any epoch.
    """

    def __init__(self, n: int, m: int, d0: Fraction, gamma: Fraction):
        self.n = n
        self.m = m
        self.a = d0.numerator
        self.p = gamma.numerator
        self.q = gamma.denominator
        self.unit_den = d0.denominator  # b*q^K
        self.pk = 1  # the trading unit, in lattice units
        self.offers = [0] * m
        self.pays = [[0] * m for _ in range(n)]
        self.step = 0
        self.epoch = 0

    @property
    def d(self) -> Fraction:
        """The trading unit d0 * gamma^K, exact."""
        return Fraction(self.a * self.pk, self.unit_den)

    def exact_net_cell(self):
        """The exact backend's net cell for a window starting on this board.

        Agent i on choice j at integer delta k observes the net
        a*(N0[i][j] + p^K*k) / (b*q^K), N0 being offers - pays now. Python int
        true division rounds correctly, so each cell equals float of the
        exact rational net bit for bit.
        """
        a, pk, den = self.a, self.pk, self.unit_den
        net0 = [[o - p for o, p in zip(self.offers, row)] for row in self.pays]

        def net_cell(i, j, k):
            return a * (net0[i][j] + pk * k) / den

        return net_cell

    def net_float(self) -> np.ndarray:
        """offers - pays as float64, each entry correctly rounded (see exact_net_cell)."""
        a, den = self.a, self.unit_den
        return np.array(
            [[a * (o - p) / den for o, p in zip(self.offers, row)] for row in self.pays],
            dtype=np.float64,
        )

    def to_board(self, selections: list[int | None]) -> PublicBoard:
        """The exact Fraction board this lattice represents."""
        a, den = self.a, self.unit_den
        # Few distinct values (most pays are zero): one Fraction each.
        frac = {v: Fraction(a * v, den) for v in set(self.offers).union(*self.pays)}
        offer_row = [frac[v] for v in self.offers]
        return PublicBoard(
            n=self.n,
            m=self.m,
            offers=[offer_row[:] for _ in range(self.n)],
            pays=[[frac[v] for v in row] for row in self.pays],
            d=self.d,
            step=self.step,
            epoch=self.epoch,
            selections=list(selections),
        )


def apply_selection(board: _LatticeBoard, agent: int, choice: int) -> None:
    """One turn on the lattice: the agent bids n*d on choice, offering d to every row."""
    board.offers[choice] += board.pk
    board.pays[agent][choice] += board.n * board.pk
    board.step += 1


def reduce_trading_unit(board: _LatticeBoard) -> None:
    """Shrink the trading unit by gamma: refine the lattice by q."""
    q = board.q
    board.offers = [v * q for v in board.offers]
    board.pays = [[v * q for v in row] for row in board.pays]
    board.pk *= board.p
    board.unit_den *= q
    board.epoch += 1


def _advance_board(board: _LatticeBoard, selcount: np.ndarray, steps: int) -> None:
    """Apply a window's worth of selections to the lattice in one pass.

    Equivalent to apply_selection per step: each selection of choice j adds
    the trading unit to the offer column and n times it to the selector's pay
    entry, so only the per-(agent, choice) counts matter, not the order.
    """
    pk = board.pk
    npk = board.n * pk
    offers = board.offers
    for j, c in enumerate(selcount.sum(axis=0).tolist()):
        if c:
            offers[j] += pk * c
    for row, counts in zip(board.pays, selcount.tolist()):
        for j, c in enumerate(counts):
            if c:
                row[j] += npk * c
    board.step += steps


def _check_cycle_structure(cyc: CycleRecord, n: int) -> None:
    # Guaranteed by construction (cyclic turns + state-key agent component);
    # violations would mean a detector bug, so fail loudly.
    if cyc.length <= 0 or cyc.length % n != 0:
        raise AssertionError(f"cycle length {cyc.length} is not a positive multiple of n={n}")
    counts = cyc.choice_counts
    if n > 1 and not (counts == counts[0]).all():
        raise AssertionError("cycle choice counts differ across agents")


def _mode_lowest(values: list[int]) -> int:
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]


def _finish(config, board, trace, cycles, terminated, interrupt_step):
    steps = len(trace)
    if not terminated:
        interrupted = interrupt_step is not None and steps >= interrupt_step
        if not interrupted:
            raise NoTerminationError(
                f"no termination within max_steps={config.max_steps}", steps, trace
            )
    voted = [s for s in board.selections if s is not None]
    consensus = _mode_lowest(voted)
    return TacoOutcome(
        consensus_choice=consensus,
        settlements=settle(board, consensus),
        steps=steps,
        rounds=-(-steps // board.n),
        cycles_detected=len(cycles),
        final_d=board.d,
        trace=trace,
        terminated_naturally=terminated,
        cycle_records=cycles,
        final_selections=list(board.selections),
        final_board=board,
    )
