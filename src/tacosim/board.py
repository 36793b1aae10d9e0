"""Public auction state: offer/pay ledgers, trading unit, cycle records.

All traded quantities are exact rationals, so settlements and the board an
agent observes are exact. ``ExactAmount`` is the stdlib ``Fraction``:
canonical lowest terms, positive denominator, value-based equality and
hashing. The engine runs on an integer lattice of the same values (see
``engine``) and builds this board once per run; the board operations here
serve the display replay of ``experiments.run_example`` and the reference
replay in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

ExactAmount = Fraction


def exact(value: int | str | Fraction) -> Fraction:
    """Coerce an exact input (int, Fraction, or string like "9/10") to Fraction.

    Floats are rejected: 0.9 is not 9/10, and silently accepting the binary
    approximation would make every board value inexact downstream.
    """
    if isinstance(value, float):
        raise TypeError(
            f"exact amounts must be int, Fraction, or string, not float ({value!r}); "
            f"pass '9/10' or Fraction(9, 10) instead"
        )
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact amount")


@dataclass
class PublicBoard:
    """Shared auction state visible to every agent.

    ``offers[i][j]`` is the cumulative amount offered to agent i for choice j,
    ``pays[i][j]`` the cumulative amount agent i has bid on choice j. Profit
    computations only ever need the net ``offers - pays``.
    """

    n: int
    m: int
    offers: list[list[Fraction]]
    pays: list[list[Fraction]]
    d: Fraction
    step: int = 0
    epoch: int = 0
    selections: list[int | None] = field(default_factory=list)

    def net(self) -> list[list[Fraction]]:
        """offers - pays, entrywise."""
        return [
            [self.offers[i][j] - self.pays[i][j] for j in range(self.m)]
            for i in range(self.n)
        ]

    def net_float(self) -> np.ndarray:
        return np.array(
            [[float(self.offers[i][j] - self.pays[i][j]) for j in range(self.m)]
             for i in range(self.n)],
            dtype=np.float64,
        )

    def copy(self) -> "PublicBoard":
        return PublicBoard(
            n=self.n,
            m=self.m,
            offers=[row[:] for row in self.offers],
            pays=[row[:] for row in self.pays],
            d=self.d,
            step=self.step,
            epoch=self.epoch,
            selections=self.selections[:],
        )


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


@dataclass
class CycleRecord:
    """A detected repetition of the public state.

    The cycle spans steps ``start_step..end_step`` inclusive; replaying those
    selections maps the board back onto itself (up to the constant column
    shift of the net matrix). ``agent_turn_profits[i]`` holds the profit rows
    agent i saw at its own turns inside the span.
    """

    start_step: int
    end_step: int
    active_choices: frozenset[int]
    choice_counts: np.ndarray
    agent_turn_profits: list[list[np.ndarray]]
    d_at_detection: Fraction | None = None

    @property
    def length(self) -> int:
        return self.end_step - self.start_step + 1


def span_counts(
    selection_log: list[tuple[int, int]], start_step: int, end_step: int, n: int, m: int
) -> tuple[np.ndarray, frozenset[int]]:
    """Per-(agent, choice) selection counts and active choice set over a span.

    ``selection_log[k]`` is the (agent, choice) pair of step k+1; the span is
    inclusive on both ends.
    """
    counts = [[0] * m for _ in range(n)]
    for agent, choice in selection_log[start_step - 1 : end_step]:
        counts[agent][choice] += 1
    active = frozenset(j for j, col in enumerate(zip(*counts)) if any(col))
    return np.array(counts, dtype=np.int64), active
