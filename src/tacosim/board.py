"""Public auction state: offer/pay ledgers, trading unit, cycle records.

All traded quantities are exact rationals, so settlements and the board an
agent observes are exact. ``ExactAmount`` is the stdlib ``Fraction``:
canonical lowest terms, positive denominator, value-based equality and
hashing. The engine, and the display replay of ``example.run_example``,
run on an integer lattice of the same values (see ``engine``).
``PublicBoard`` is only the result type: the lattice builds one when a
run's ``final_board`` is read, and nothing here mutates it.

``float_tuple`` reads every vector input of the package (cost rows,
valuations, ETAs) as Python floats. Lists and tuples convert directly; any
other input, an ndarray included, is first checked one-dimensional by
``shape_of``, numpy's shape computed without numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

ExactAmount = Fraction


def exact(value: int | str | Fraction) -> Fraction:
    """Coerce an exact input (int, Fraction, or string like "9/10") to Fraction.

    Floats are rejected: 0.9 is not 9/10, and silently accepting the binary
    approximation would make every board value inexact downstream. A
    Fraction, being immutable, is returned as it is.
    """
    if isinstance(value, float):
        raise TypeError(
            f"exact amounts must be int, Fraction, or string, not float ({value!r}); "
            f"pass '9/10' or Fraction(9, 10) instead"
        )
    if isinstance(value, (int, Fraction)):
        return value if type(value) is Fraction else Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"exact amount {value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact amount")


def float_tuple(values) -> tuple[float, ...]:
    """A one-dimensional sequence of numbers (a list, a tuple, or any sized
    iterable, an ndarray included) as a tuple of Python floats; TypeError
    for any other shape."""
    if not isinstance(values, (tuple, list)) and len(shape_of(values)) != 1:
        raise TypeError("expected a one-dimensional sequence of numbers")
    return tuple(map(float, values))


def shape_of(value) -> tuple[int, ...]:
    """numpy's shape of nested sequences, as far as they are regular: () for
    a str, bytes, scalar or 0-d array, (len,) above ragged elements."""
    if isinstance(value, (str, bytes)):
        return ()
    try:
        n = len(value)
    except TypeError:
        return ()
    inner = {shape_of(v) for v in value}
    return (n, *inner.pop()) if len(inner) == 1 else (n,)


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

    # Nothing in the package calls this, and it is the one numpy import left
    # in it: the benchmark tracer wraps it by name (board.net_float), so it
    # waits for the tracer's span change (ROADMAP item 4) to be deleted.
    def net_float(self):  # -> numpy.ndarray of float64, n x m
        import numpy as np

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
    shift of the net matrix). ``choice_counts[i][j]`` counts agent i's turns
    on choice j inside the span; ``agent_turn_profits[i]`` holds the rows
    (tuples of m floats) agent i saw at its turns there, and ``spreads[i]``,
    computed on first read, the max minus the min of those rows' profits at
    the active choices, pooled: what the termination test and the spread
    metric compare.
    """

    start_step: int
    end_step: int
    active_choices: frozenset[int]
    choice_counts: tuple[tuple[int, ...], ...]
    agent_turn_profits: list[list[tuple[float, ...]]]
    d_at_detection: Fraction | None = None

    @property
    def length(self) -> int:
        return self.end_step - self.start_step + 1

    @functools.cached_property
    def spreads(self) -> list[float]:
        active = sorted(self.active_choices)
        return [_profit_spread(rows, active) for rows in self.agent_turn_profits]


def _profit_spread(rows: list[tuple[float, ...]], active: list[int]) -> float:
    """Max minus min of the profits at the active choices, pooled across rows."""
    vals = [r[j] for r in rows for j in active]
    return max(vals) - min(vals)
