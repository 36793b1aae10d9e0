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
integer-delta history is the cycle detector. The two backends differ only
in the net row the playing agent observes: "exact" divides the lattice
integers once per cell (correctly rounded, so the float of the exact
rational net); "numpy" anchors the window's float net matrix that way and
adds d * delta. Settlements are exact rationals read off the final
lattice on every backend; the Fraction board (final_board) is built from
it only when read.

The run keeps no per-step object. Each window is kept as its anchors (the
float net or the exact net cell, and d) plus the kernel's player and choice
lists; a cycle's profit rows come back from the kernel with the detection.
The outcome's trace is a lazy sequence over those window records that
rebuilds a window's profit rows with ``_fastpath.window_rows`` when one of
its steps is first read.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

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


class _Window(NamedTuple):
    """One constant-d window as the trace keeps it: first step, turns, anchors."""

    g0: int
    players: list[int]
    choices: list[int]
    net0f: list[list[float]] | None
    dval: float
    net_cell: Callable[[int, int, int], float] | None


class Trace(Sequence[TraceStep]):
    """A run's turns, read-only, built on access from per-window records.

    ``trace[k]`` is step k+1 (negative indices count from the end), a
    slice is a list of ``TraceStep``s, as a list's slice would be, and
    iteration yields the steps in order. A step's profit row is rebuilt
    with ``_fastpath.window_rows``, the same function that rebuilds a
    cycle's rows, so it is bit for bit the row the kernel saw. The rows of
    one window are built on first access and kept until a step of another
    window is read, so reading the steps in order costs one rebuild per
    window. Each ``TraceStep`` is a new object; its ``profit_row`` is a
    read-only view.
    """

    def __init__(self, b: list[float], C: list[list[float]]):
        self._b = b
        self._C = C
        self._windows: list[_Window] = []
        self._len = 0
        self._cached: tuple[int, np.ndarray] | None = None

    def _append(self, window: _Window) -> None:
        self._windows.append(window)
        self._len = window.g0 + len(window.players)

    def __len__(self) -> int:
        return self._len

    def _rows(self, w: int) -> np.ndarray:
        if self._cached is None or self._cached[0] != w:
            win = self._windows[w]
            zero = [[0] * len(self._C[0]) for _ in self._C]
            rows = _fastpath.window_rows(
                win.net_cell, win.net0f, win.dval, self._b, self._C,
                win.players, win.choices, zero, 0, len(win.players),
            )
            self._cached = (w, rows)
        return self._cached[1]

    def __getitem__(self, k: int | slice) -> TraceStep | list[TraceStep]:
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(self._len))]
        k = operator.index(k)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("trace index out of range")
        w = bisect.bisect_right(self._windows, k, key=operator.attrgetter("g0")) - 1
        win = self._windows[w]
        r = k - win.g0
        return TraceStep(k + 1, win.players[r], win.choices[r], self._rows(w)[r])

    def __iter__(self) -> Iterator[TraceStep]:
        for w, win in enumerate(self._windows):
            steps = range(win.g0 + 1, win.g0 + len(win.players) + 1)
            yield from map(TraceStep, steps, win.players, win.choices, self._rows(w))


@dataclass
class TacoOutcome:
    """A finished run: consensus, exact settlements, cycles and the trace.

    ``trace`` holds every executed turn as a lazy ``Trace``: it keeps each
    window's players, choices and anchors, and builds a ``TraceStep`` with
    its profit row when one is read. ``final_board``, the exact Fraction
    board, is likewise built from the run's final lattice when first read.
    """

    consensus_choice: int
    settlements: list[Fraction]
    steps: int
    rounds: int
    cycles_detected: int
    final_d: Fraction
    trace: Trace
    terminated_naturally: bool
    cycle_records: list[CycleRecord]
    final_selections: list[int | None]
    _lattice: _LatticeBoard = field(compare=False, repr=False)

    @functools.cached_property
    def final_board(self) -> PublicBoard:
        """The board as the run left it, exact."""
        return self._lattice.to_board(self.final_selections)


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
        if _profit_spread(rows, active) >= epsilon:
            return False
    return True


def _profit_spread(rows: list[np.ndarray], active: list[int]) -> float:
    """Max minus min of the profits at the active choices, pooled across rows."""
    vals: list[float] = []
    for row in rows:
        r = row.tolist()
        vals += [r[j] for j in active]
    return max(vals) - min(vals)


def settle(board: _LatticeBoard, j_star: int) -> list[Fraction]:
    """Net receipt per agent for the consensus choice: offers minus pays, exact.

    Each receipt is one Fraction, a*(offers[j] - pays[i][j]) / (b*q^K), the
    same value the Fraction board holds.
    """
    if not (0 <= j_star < board.m):
        raise ValueError(f"choice index {j_star} out of range for m={board.m}")
    a, den, offer = board.a, board.unit_den, board.offers[j_star]
    return [Fraction(a * (offer - row[j_star]), den) for row in board.pays]


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
    # The kernel's inputs, as Python lists: float cost rows, valuations and
    # the turn order.
    C = [a.cost_row.tolist() for a in agents]
    m = len(C[0])
    if any(len(row) != m for row in C):
        raise ValueError("all agents must share the same number of choices")
    if m < 1:
        raise ValueError("need at least one choice")
    b = [float(a.valuation) for a in agents]
    if not all(map(math.isfinite, itertools.chain(b, *C))):
        raise ValueError("costs and valuations must be finite")
    if config.turn_order is None:
        order = list(range(n))
    else:
        order = list(config.turn_order)
        if sorted(order) != list(range(n)):
            raise ValueError(
                f"turn_order must be a permutation of 0..{n - 1}, got {config.turn_order}"
            )
    return n, m, b, C, order


def _run(config, agents, interrupt_step, backend):
    exact_cells = _fastpath.resolve_backend(backend) == "exact"
    n, m, b, C, order = _prepare(config, agents)
    lattice = _LatticeBoard(n, m, config.d0, config.gamma)
    selections: list[int | None] = [None] * n
    hard_cap = config.max_steps if interrupt_step is None else min(config.max_steps, interrupt_step)
    trace = Trace(b, C)
    cycles: list[CycleRecord] = []
    terminated = False
    steps = 0
    while steps < hard_cap:
        g0 = steps
        net0f = None if exact_cells else lattice.net_float()
        dval = float(lattice.d)
        net_cell = lattice.exact_net_cell() if exact_cells else None
        win = _fastpath.run_window(
            net0f, dval, b, C, order, g0 % n, hard_cap - g0, config.history_cap, net_cell
        )
        if win.status == "history_cap":
            raise HistoryLimitError(
                f"a window observed more than history_cap={config.history_cap} distinct "
                f"states by step {g0 + win.steps} (the detector stores one per round)"
            )
        players = win.players
        choices = win.choices
        trace._append(_Window(g0, players, choices, net0f, dval, net_cell))
        steps = g0 + win.steps
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
            end_step=steps,
            active_choices=active,
            choice_counts=counts,
            agent_turn_profits=[[] for _ in range(n)],
            d_at_detection=lattice.d,
        )
        for a_k, row in zip(players[s0:], win.profit_rows):
            cyc.agent_turn_profits[a_k].append(row)
        _check_cycle_structure(cyc, n)
        cycles.append(cyc)
        reduce_trading_unit(lattice)
        if check_termination(cyc, config.epsilon):
            terminated = True
            break
        apply_selection(lattice, players[-1], choices[-1])
    return _finish(config, lattice, selections, trace, cycles, terminated, interrupt_step)


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
        exact rational net bit for bit. A partial, not a closure, so that an
        outcome whose trace keeps it can still be pickled.
        """
        net0 = [[o - p for o, p in zip(self.offers, row)] for row in self.pays]
        return functools.partial(_exact_net, self.a, self.pk, self.unit_den, net0)

    def net_float(self) -> list[list[float]]:
        """offers - pays as float rows, each entry correctly rounded (see exact_net_cell)."""
        a, den = self.a, self.unit_den
        return [[a * (o - p) / den for o, p in zip(self.offers, row)] for row in self.pays]

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


def _exact_net(a, pk, den, net0, i, j, k):
    return a * (net0[i][j] + pk * k) / den


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


def _advance_board(board: _LatticeBoard, selcount: list[list[int]], steps: int) -> None:
    """Apply a window's worth of selections to the lattice in one pass.

    Equivalent to apply_selection per step: each selection of choice j adds
    the trading unit to the offer column and n times it to the selector's pay
    entry, so only the per-(agent, choice) counts matter, not the order.
    """
    pk = board.pk
    npk = board.n * pk
    offers = board.offers
    for j, c in enumerate(map(sum, zip(*selcount))):
        if c:
            offers[j] += pk * c
    for row, counts in zip(board.pays, selcount):
        for j, c in enumerate(counts):
            if c:
                row[j] += npk * c
    board.step += steps


def _check_cycle_structure(cyc: CycleRecord, n: int) -> None:
    # Guaranteed by construction: _fastpath._find_repeat confirms a repeat
    # only when every agent chose each column equally often inside the span,
    # and turns are cyclic, so the span is a multiple of n. A violation would
    # mean a detector bug, so fail loudly.
    if cyc.length <= 0 or cyc.length % n != 0:
        raise AssertionError(f"cycle length {cyc.length} is not a positive multiple of n={n}")
    counts = cyc.choice_counts.tolist()
    if any(row != counts[0] for row in counts):
        raise AssertionError("cycle choice counts differ across agents")


def _mode_lowest(values: list[int]) -> int:
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]


def _finish(config, lattice, selections, trace, cycles, terminated, interrupt_step):
    steps = len(trace)
    if not terminated:
        interrupted = interrupt_step is not None and steps >= interrupt_step
        if not interrupted:
            raise NoTerminationError(
                f"no termination within max_steps={config.max_steps}", steps, trace
            )
    voted = [s for s in selections if s is not None]
    consensus = _mode_lowest(voted)
    return TacoOutcome(
        consensus_choice=consensus,
        settlements=settle(lattice, consensus),
        steps=steps,
        rounds=-(-steps // lattice.n),
        cycles_detected=len(cycles),
        final_d=lattice.d,
        trace=trace,
        terminated_naturally=terminated,
        cycle_records=cycles,
        final_selections=selections,
        _lattice=lattice,
    )
