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
integer-delta history is the cycle detector and whose every cell is one
expression of the lattice's anchors. The backend picks only where that
expression rounds (``_LatticeBoard.anchors``): "exact" passes the lattice
integers, so each cell's net is the float of the exact rational; "numpy"
divides them once at the window start and adds d * delta in float64.
Floats of mathematically tied options may still break ties differently
between the two. Settlements are exact rationals read off the final
lattice on every backend; the Fraction board (final_board) is built from
it only when read.

Backend selection: an explicit argument ("auto", "numpy", "exact"); None
or "auto" defers to the TACO_BACKEND environment variable, and "auto" there,
or no variable, is "numpy".

The run keeps no per-step object. Each window is kept as its anchors plus
the kernel's run-length turn log (``_fastpath.TurnLog``: the stepped
choices, and one run per drift the kernel jumped); step k+1 was played by
``order[k % n]``, so no player list is stored. A cycle's profit rows come
back from the kernel with the detection, as tuples of floats, and its
counts are tallied into tuples of ints. The outcome's trace is a lazy
sequence over those window records, and a read rebuilds only the steps it
covers: their window's earlier turns are counted through the log, their
choices expanded and their profit rows rebuilt with
``_fastpath.window_rows``. Nothing is kept between reads.
"""

from __future__ import annotations

import bisect
import functools
import operator
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import _fastpath
from .agent import AgentPrivate
from .board import CycleRecord, PublicBoard, exact, permutation, positive_float, whole
from .errors import HistoryLimitError, NoTerminationError

ENV_VAR = "TACO_BACKEND"
BACKENDS = ("auto", "numpy", "exact")


def resolve_backend(name: str | None = None) -> str:
    """Map a requested backend to a concrete one; None and "auto" read TACO_BACKEND."""
    if name is None or name.lower() == "auto":
        name = os.environ.get(ENV_VAR, "auto")
    name = name.lower()
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    return "numpy" if name == "auto" else name


@dataclass(frozen=True)
class TacoConfig:
    """Run parameters: trading unit, decay factor, tolerance, safety caps.

    d0 and gamma must be exact rationals (or strings/ints coercible to one);
    epsilon is an absolute profit-spread tolerance. turn_order defaults to the
    identity permutation. Frozen: ``dataclasses.replace`` checks a changed copy.
    """

    epsilon: float
    d0: int | str | Fraction = 1
    gamma: int | str | Fraction = Fraction(9, 10)
    max_steps: int = 10**6
    turn_order: tuple[int, ...] | None = None
    history_cap: int = 10**6

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", positive_float(self.epsilon, "epsilon"))
        check_run_params(self)
        if self.turn_order is not None:
            turn_order = tuple(whole(i, "a turn_order entry") for i in self.turn_order)
            object.__setattr__(self, "turn_order", turn_order)


def check_run_params(config) -> None:
    """Check the run parameters TacoConfig and ExperimentConfig share, each by its
    one rule, and store them on ``config`` coerced. Each config checks its own
    epsilon, which only ExperimentConfig may leave None.
    """
    checked = (
        *check_trading_unit(config.d0, config.gamma),
        whole(config.max_steps, "max_steps", 1), whole(config.history_cap, "history_cap", 2),
    )
    for key, value in zip(("d0", "gamma", "max_steps", "history_cap"), checked):
        object.__setattr__(config, key, value)


def check_trading_unit(d0, gamma):
    """d0 and gamma as exact rationals, refused unless d0 > 0 and 0 < gamma < 1."""
    d0 = exact(d0)
    if d0 <= 0:
        raise ValueError(f"d0 must be positive, got {d0}")
    gamma = exact(gamma)
    if not (0 < gamma < 1):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return d0, gamma


@dataclass(slots=True)
class TraceStep:
    """One executed turn: the playing agent's pre-update profit row, a tuple of floats."""

    step: int
    agent: int
    selection: int
    profit_row: tuple[float, ...]


class _Window(NamedTuple):
    """One constant-d window as the trace keeps it: first step, turns, anchors."""

    g0: int
    steps: int
    log: _fastpath.TurnLog
    net0: list[list[int]] | list[list[float]]
    unit: int | float
    den: int | float


class Trace(Sequence[TraceStep]):
    """A run's turns, read-only, built on access from per-window records.

    ``trace[k]`` is step k+1 (negative indices count from the end), a
    slice is a list of ``TraceStep``s, as a list's slice would be, and
    iteration yields the steps in order. Step k+1 is played by
    ``order[k % n]``. Every read goes through one span reader: for each
    window the span covers, it counts the window's turns before its part
    through the run-length log (a run's rounds at once), expands only that
    part's choices and rebuilds only its rows with ``_fastpath.window_rows``,
    which rebuilds a cycle's rows too, so each is bit for bit the row the
    kernel saw. ``trace[k]`` reads one step, a slice the span from its
    smallest to its largest index, iteration every window in turn. Nothing
    is kept between reads. Each ``TraceStep`` is a new object; its
    ``profit_row`` is a tuple, read-only.
    """

    def __init__(self, b: list[float], C: list[tuple[float, ...]], order: list[int]):
        self._b = b
        self._C = C
        self._order = order
        self._windows: list[_Window] = []
        self._len = 0

    def _append(self, window: _Window) -> None:
        self._windows.append(window)
        self._len = window.g0 + window.steps

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int | slice) -> TraceStep | list[TraceStep]:
        if isinstance(k, slice):
            r = range(*k.indices(self._len))
            if not r:
                return []
            lo, hi = sorted((r[0], r[-1]))
            span = list(self._span(lo, hi + 1))
            return [span[i - lo] for i in r]
        k = operator.index(k)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("trace index out of range")
        return next(self._span(k, k + 1))

    def __iter__(self) -> Iterator[TraceStep]:
        return self._span(0, self._len)

    def _span(self, lo: int, hi: int) -> Iterator[TraceStep]:
        """Steps lo+1..hi, one window's part at a time."""
        order, n = self._order, len(self._order)
        w = bisect.bisect_right(self._windows, lo, key=operator.attrgetter("g0")) - 1
        for win in self._windows[w:]:
            if win.g0 >= hi:
                return
            x, y = max(lo, win.g0), min(hi, win.g0 + win.steps)
            sel = [[0] * len(self._C[0]) for _ in self._C]  # the window's turns before x
            for u, seq, reps in win.log.pieces(0, x - win.g0):
                for t, c in enumerate(seq, win.g0 + u):
                    sel[order[t % n]][c] += reps
            choices = win.log.expand(x - win.g0, y - win.g0)
            args = (win.net0, win.unit, win.den, self._b, self._C, order, x, choices, sel)
            rows = _fastpath.window_rows(*args)
            agents = (order[k % n] for k in range(x, y))
            yield from map(TraceStep, range(x + 1, y + 1), agents, choices, rows)


@dataclass
class TacoOutcome:
    """A finished run: consensus, exact settlements, cycles and the trace.

    ``trace`` holds every executed turn as a lazy ``Trace``: it keeps each
    window's run-length turn log and anchors, and builds a ``TraceStep``
    with its profit row when one is read. ``final_board``, the exact Fraction
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
    return _run(config, agents, whole(interrupt_step, "interrupt_step", 1), backend)


def check_termination(cycle: CycleRecord, epsilon: float) -> bool:
    """True iff every agent's observed profit spread inside the cycle is < epsilon.

    The spread (``cycle.spreads``) is over the cycle's active choices, pooled
    across the profit rows the agent saw at its own turns within the span.
    """
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not all(cycle.agent_turn_profits):
        raise ValueError("agent_turn_profits must be populated for every agent")
    return not any(spread >= epsilon for spread in cycle.spreads)


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
        if not isinstance(a, AgentPrivate):
            raise ValueError(f"agents[{pos}] must be an AgentPrivate, got {type(a).__name__}")
        if a.index != pos:
            raise ValueError(
                f"agents must be listed in index order; agents[{pos}] has index {a.index}"
            )
    # Each agent's row and valuation were checked when it was built, and it is frozen.
    C = [a.cost_row for a in agents]
    m = len(C[0])
    if ragged := [i for i, row in enumerate(C) if len(row) != m]:
        raise ValueError(f"C[{ragged[0]}] has shape ({len(C[ragged[0]])},), expected ({m},)")
    if m < 1:
        raise ValueError("need at least one choice")
    b = [a.valuation for a in agents]
    order = list(range(n)) if config.turn_order is None else permutation(
        config.turn_order, n, "turn_order")
    return n, m, b, C, order


def _run(config, agents, interrupt_step, backend):
    exact_cells = resolve_backend(backend) == "exact"
    n, m, b, C, order = _prepare(config, agents)
    lattice = _LatticeBoard(n, m, config.d0, config.gamma)
    selections: list[int | None] = [None] * n
    hard_cap = config.max_steps if interrupt_step is None else min(config.max_steps, interrupt_step)
    trace = Trace(b, C, order)
    cycles: list[CycleRecord] = []
    terminated = False
    steps = 0
    while steps < hard_cap:
        g0 = steps
        net0, unit, den = lattice.anchors(exact_cells)
        win = _fastpath.run_window(
            net0, unit, den, b, C, order, g0 % n, hard_cap - g0, config.history_cap
        )
        if win.status == "history_cap":
            raise HistoryLimitError(
                f"a window observed more than history_cap={config.history_cap} distinct "
                f"states by step {g0 + win.steps} (the detector stores one per round)"
            )
        trace._append(_Window(g0, win.steps, win.log, net0, unit, den))
        steps = g0 + win.steps
        # Turns are cyclic, so the last n turns hold each agent's last selection.
        for k, c_k in enumerate(win.tail, steps - len(win.tail)):
            selections[order[k % n]] = c_k
        if win.status != "detected":
            _advance_board(lattice, win.selcount, win.steps)
            break
        # The detection turn's update is pending; absorb the rest exactly.
        _advance_board(lattice, win.selcount, win.steps - 1)
        # A cycle never leaves its window: count it from the window's turns.
        s0 = win.s0_rel
        counts = [[0] * m for _ in range(n)]
        profits = [[] for _ in range(n)]
        for k, c_k, row in zip(range(g0 + s0, steps), win.cycle, win.profit_rows):
            counts[order[k % n]][c_k] += 1
            profits[order[k % n]].append(row)
        cyc = CycleRecord(
            start_step=g0 + s0 + 1,
            end_step=steps,
            active_choices=frozenset(win.cycle),
            choice_counts=tuple(map(tuple, counts)),
            agent_turn_profits=profits,
            d_at_detection=lattice.d,
        )
        _check_cycle_structure(cyc, n)
        cycles.append(cyc)
        reduce_trading_unit(lattice)
        if check_termination(cyc, config.epsilon):
            terminated = True
            break
        apply_selection(lattice, order[(steps - 1) % n], win.tail[-1])
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

    def anchors(self, exact: bool):
        """The anchors ``(net0, unit, den)`` of a window starting on this board.

        Agent i on choice j at integer delta k observes the net ``(net0[i][j]
        + unit * k) / den``. Exact: the ints a*(offers - pays), a*p^K and
        b*q^K, so each net is one correctly rounded int division. Otherwise
        those values divided once now, each correctly rounded, and 1.0.
        """
        a, den, offers = self.a, self.unit_den, self.offers
        if exact:
            net0 = [[a * (o - p) for o, p in zip(offers, row)] for row in self.pays]
            return net0, a * self.pk, den
        net0 = [[a * (o - p) / den for o, p in zip(offers, row)] for row in self.pays]
        return net0, a * self.pk / den, 1.0

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
    if len(set(cyc.choice_counts)) > 1:
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
