"""Public auction state: offer/pay ledgers, trading unit, cycle records.

All traded quantities are exact rationals, so settlements and the board an
agent observes are exact. ``ExactAmount`` is the stdlib ``Fraction``:
canonical lowest terms, positive denominator, value-based equality and
hashing. The engine, and the display replay of ``example.run_example``,
run on an integer lattice of the same values (see ``engine``).
``PublicBoard`` is only the result type: the lattice builds one when a
run's ``final_board`` is read, and nothing here mutates it.

The input rules: ``floats`` reads a vector input as Python floats, by one rule:
each entry a finite real as ``math.isfinite`` reads it, positive where asked,
refused at the first fault as ``C has shape (2, 3), expected (2, 2)`` (numpy's shape, by
``shape_of``) or ``b[1] = 0.0, expected a positive finite real``.
``permutation`` checks an order, ``whole`` a count, and ``positive_float`` every
tolerance, scale, range bound and valuation that a record holds as a float.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

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


def whole(value, what: str, least: int | None = None) -> int:
    """A count or index as ``int(value)``, refused if that truncates it or is below ``least``."""
    # int() of an infinite or NaN float raises its own OverflowError or ValueError.
    i = None if isinstance(value, float) and not math.isfinite(value) else int(value)
    if not isinstance(value, str) and i != value:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if least is not None and i < least:
        raise ValueError(f"{what} must be at least {least}, got {i}")
    return i


def positive_float(value, what: str) -> float:
    """A finite real as ``math.isfinite`` reads it (no str), as its float, refused unless > 0."""
    try:
        if math.isfinite(value) and (held := float(value)) > 0:
            return held
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{what} must be a positive finite real, got {value}")


def positive_finite(value, what: str):
    """``value`` unconverted: an int or Fraction above 0 as it is, others by ``positive_float``."""
    if not (isinstance(value, (int, Fraction)) and value > 0):
        positive_float(value, what)
    return value


def floats(value, what: str, shape: tuple[int | None, ...], positive: bool = False) -> tuple:
    """``value`` as Python floats: a tuple for ``(n,)``, of row tuples for ``(n, m)``, n None
    a free length; a row not a list or tuple must be 1-D. Refused at its first fault."""
    try:
        return _fits(_row(value) if len(shape) == 1 else tuple(map(_row, value)), shape, positive)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(_fault(value, what, shape, positive)) from None


def _fits(values, shape: tuple[int | None, ...], positive: bool):
    """``values`` if they have ``shape`` and, if ``positive``, are above 0."""
    rows = (values,) if len(shape) == 1 else values
    if (shape[0] in (None, len(values)) and (len(shape) == 1 or {*map(len, rows)} <= {shape[1]})
            and (not positive or min(chain(*rows), default=1.0) > 0)):
        return values
    raise ValueError("not of the shape or sign asked")


def _fault(value, what: str, shape: tuple[int | None, ...], positive: bool) -> str | None:
    """The refusal of ``value``'s first fault, None if none: its shape, a row's, or an entry."""
    if shape:  # a regular value of too few dimensions is refused whole, a ragged one by row
        got, dims = shape_of(value), len(shape)
        ragged = 0 < len(got) < dims and len({*map(shape_of, value)}) > 1
        if len(got) != dims and not ragged or any(e not in (None, g) for g, e in zip(got, shape)):
            return f"{what} has shape {got}, expected {str(shape).replace('None', 'any')}"
        faults = (_fault(v, f"{what}[{i}]", shape[1:], positive) for i, v in enumerate(value))
        return next(filter(None, faults), None)
    try:  # the entry alone, by the same check
        _fits(_row((value,)), (1,), positive)
    except (TypeError, ValueError, OverflowError):
        shown = float(value) if isinstance(value, float) else value  # inf, not np.float64(inf)
        return f"{what} = {shown!r}, expected a {'positive ' * positive}finite real"


def _row(values) -> tuple[float, ...]:
    if isinstance(values, (tuple, list)) or len(shape_of(values)) == 1:
        if all(map(math.isfinite, values)):
            return tuple(map(float, values))
    raise ValueError("not a 1-D row of finite entries")


def permutation(values, n: int, what: str) -> list[int]:
    """``values`` as a list, refused unless it is a permutation of 0..n-1."""
    if sorted(values) != list(range(n)):
        raise ValueError(f"{what} must be a permutation of 0..{n - 1}, got {values}")
    return list(values)


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
    # waits for the tracer's retirement (ROADMAP item 11) to be deleted.
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
