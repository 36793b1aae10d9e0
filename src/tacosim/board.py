"""Public auction state: offer/pay ledgers, trading unit, cycle records.

All traded quantities are exact rationals, so settlements and the board an
agent observes are exact. ``ExactAmount`` is the stdlib ``Fraction``:
canonical lowest terms, positive denominator, value-based equality and
hashing. The engine, and the display replay of ``experiments.run_example``,
run on an integer lattice of the same values (see ``engine``).
``PublicBoard`` is only the result type: the lattice builds one when a
run's ``final_board`` or a display row is read, and nothing here mutates it.
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
    """Shared auction state visible to every agent, as exact rationals.

    ``offers[i][j]`` is the cumulative amount offered to agent i for choice j,
    ``pays[i][j]`` the cumulative amount agent i has bid on choice j. Profit
    computations only ever need the net ``offers - pays``. Built from the
    engine's lattice (``_LatticeBoard.to_board``); read-only by convention.
    """

    n: int
    m: int
    offers: list[list[Fraction]]
    pays: list[list[Fraction]]
    d: Fraction
    step: int = 0
    epoch: int = 0
    selections: list[int | None] = field(default_factory=list)

    # Nothing in the package calls this; the benchmark tracer wraps it by name
    # (board.net_float), so it stays until the tracer drops it (ROADMAP item 6).
    def net_float(self) -> np.ndarray:
        return np.array(
            [[float(self.offers[i][j] - self.pays[i][j]) for j in range(self.m)]
             for i in range(self.n)],
            dtype=np.float64,
        )


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
