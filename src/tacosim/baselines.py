"""Comparison mechanisms: plurality voting, random dictator, utilitarian,
egalitarian. Each maps a full cost matrix to one chosen option.

Unlike the auction, these mechanisms read the whole cost matrix centrally;
they exist to benchmark outcome quality, not to model decentralization.

A trial runs every mechanism and metric on one small instance, so they read
it as Python floats (``ChoiceProblem._floats``, built once per instance)
and repeat numpy's operations in numpy's order: the same IEEE results, and
the same random draws, without per-call array dispatch.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .agent import AgentPrivate


def _sum(x: list[float]) -> float:
    """Sum floats in np.add.reduce's order, so bit for bit numpy's sum.

    numpy adds a pairwise sum of the run to the identity 0.0 (Higham, "The
    accuracy of floating point summation", 1993): below 8 terms in sequence;
    up to 128 terms in 8 interleaved accumulators, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), with the tail added after; above
    that it splits at a multiple of 8 below the half and sums both parts.
    """
    if len(x) < 8:
        s = 0.0
        for v in x:
            s += v
        return s
    return 0.0 + _pairwise(x, 0, len(x))


def _pairwise(x: list[float], lo: int, n: int) -> float:
    # x[lo : lo + n] with n >= 8; a halving never leaves fewer than 64 terms.
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = x[lo : lo + 8]
        end = lo + n - n % 8
        for k in range(lo + 8, end, 8):
            r0 += x[k]
            r1 += x[k + 1]
            r2 += x[k + 2]
            r3 += x[k + 3]
            r4 += x[k + 4]
            r5 += x[k + 5]
            r6 += x[k + 6]
            r7 += x[k + 7]
        s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for v in x[end : lo + n]:
            s += v
        return s
    half = n // 2
    half -= half % 8
    return _pairwise(x, lo, half) + _pairwise(x, lo + half, n - half)


class _Floats(NamedTuple):
    """An instance as Python floats, with its utilitarian option and total."""

    rows: list[list[float]]
    b: list[float]
    util: int
    util_total: float

    def col(self, j: int) -> list[float]:
        """Option j's costs, one per agent (a new list)."""
        return [row[j] for row in self.rows]


@dataclass
class ChoiceProblem:
    """One generated instance: cost matrix, valuations, optional labels.

    C and b are read-only copies: the mechanisms and metrics read them once,
    as floats, so an instance does not change after it is made.
    """

    n: int
    m: int
    C: np.ndarray
    b: np.ndarray
    option_labels: list[str] | None = None

    def __post_init__(self) -> None:
        self.C = np.array(self.C, dtype=np.float64)
        self.b = np.array(self.b, dtype=np.float64)
        self.C.setflags(write=False)
        self.b.setflags(write=False)
        if self.C.shape != (self.n, self.m):
            raise ValueError(f"C has shape {self.C.shape}, expected ({self.n}, {self.m})")
        if self.b.shape != (self.n,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({self.n},)")
        if not (self.b > 0).all():
            raise ValueError("valuations b must be positive elementwise")
        if not (np.isfinite(self.C).all() and np.isfinite(self.b).all()):
            raise ValueError("C and b must be finite")
        if self.option_labels is not None and len(self.option_labels) != self.m:
            raise ValueError("option_labels length must equal m")

    @functools.cached_property
    def _floats(self) -> _Floats:
        """C and b as floats, built on first use.

        The column sums repeat numpy's ``C.sum(axis=0)``: row by row from 0.0.
        """
        rows = self.C.tolist()
        sums = [0.0] * self.m
        for row in rows:
            sums = list(map(operator.add, sums, row))
        util = sums.index(min(sums))
        return _Floats(rows, self.b.tolist(), util, _sum([row[util] for row in rows]))

    def agents(self) -> list[AgentPrivate]:
        """Split the instance into per-agent private views for the auction."""
        return [
            AgentPrivate(index=i, valuation=float(self.b[i]), cost_row=self.C[i].copy())
            for i in range(self.n)
        ]


def voting(problem: ChoiceProblem, rng: np.random.Generator) -> int:
    """Plurality: each agent votes its own cheapest option, most votes wins.

    Personal ties go to the lowest option index; ties between winning options
    are broken uniformly at random (rng is consumed only in that case).
    """
    votes = [0] * problem.m
    for row in problem._floats.rows:
        votes[row.index(min(row))] += 1
    top = max(votes)
    winners = [j for j, v in enumerate(votes) if v == top]
    if len(winners) == 1:
        return winners[0]
    return winners[int(rng.integers(len(winners)))]


def random_dictator(problem: ChoiceProblem, rng: np.random.Generator) -> int:
    """A uniformly chosen agent imposes its own cheapest option."""
    row = problem._floats.rows[int(rng.integers(problem.n))]
    return row.index(min(row))


def utilitarian(problem: ChoiceProblem) -> int:
    """Option minimizing the total cost across agents (lowest index on ties)."""
    return problem._floats.util


def egalitarian(problem: ChoiceProblem) -> int:
    """Option minimizing the worst single-agent cost (lowest index on ties)."""
    worst = list(map(max, zip(*problem._floats.rows)))
    return worst.index(min(worst))
