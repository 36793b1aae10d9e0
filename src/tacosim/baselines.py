"""Comparison mechanisms: plurality voting, random dictator, utilitarian,
egalitarian. Each maps a full cost matrix to one chosen option.

Unlike the auction, these mechanisms read the whole cost matrix centrally;
they exist to benchmark outcome quality, not to model decentralization.

A trial runs every mechanism and metric on one small instance, so they read
it as the Python floats ``ChoiceProblem`` holds and repeat numpy's
operations in numpy's order: the same IEEE results, and the same random
draws, without per-call array dispatch.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

from .agent import AgentPrivate
from .board import _prechecked, floats


def _sum(x: Sequence[float]) -> float:
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


def _pairwise(x: Sequence[float], lo: int, n: int) -> float:
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


class ChoiceProblem:
    """One generated instance: cost matrix, valuations, optional labels.

    Held once, as the Python floats every mechanism, metric and agent reads:
    ``rows`` (C, one tuple per agent), ``valuations`` (b) and ``col_sums``
    (numpy's ``C.sum(axis=0)``, row by row from 0.0). C and b may be given as
    nested lists or tuples, or any sized iterables such as ndarrays; every
    field is a tuple, so an instance never changes.
    """

    def __init__(self, n: int, m: int, C, b, option_labels: list[str] | None = None):
        self.n, self.m, self.option_labels = n, m, option_labels
        self.rows = floats(C, "C", (n, m))
        self.valuations = floats(b, "b", (n,), positive=True)
        self.col_sums = _col_sums(self.rows, m)
        if option_labels is not None and len(option_labels) != m:
            raise ValueError("option_labels length must equal m")

    def col(self, j: int) -> tuple[float, ...]:
        """Option j's costs, one per agent."""
        return tuple([row[j] for row in self.rows])

    @property
    def _utilitarian(self) -> tuple[int, float]:  # kept by hand: cached_property locks
        """The cheapest option in total (lowest index on ties) and that total."""
        if "_util" not in self.__dict__:
            util = self.col_sums.index(min(self.col_sums))
            self.__dict__["_util"] = util, _sum(self.col(util))
        return self.__dict__["_util"]

    def agents(self) -> list[AgentPrivate]:
        """Split the instance into per-agent private views for the auction; ``floats``
        checked each row and valuation by ``AgentPrivate``'s rules."""
        return [_prechecked(AgentPrivate, index=i, valuation=b_i, cost_row=row)
                for i, (b_i, row) in enumerate(zip(self.valuations, self.rows))]


def _col_sums(rows: tuple[tuple[float, ...], ...], m: int) -> tuple[float, ...]:
    """numpy's ``C.sum(axis=0)``: each column's entries added row by row from 0.0."""
    sums = [0.0] * m
    for row in rows:
        sums = list(map(operator.add, sums, row))
    return tuple(sums)


def voting(problem: ChoiceProblem, rng) -> int:
    """Plurality: each agent votes its own cheapest option, most votes wins.

    Personal ties go to the lowest option index; ties between winning options
    are broken uniformly at random (rng is consumed only in that case).
    """
    votes = [0] * problem.m
    for row in problem.rows:
        votes[row.index(min(row))] += 1
    top = max(votes)
    if votes.count(top) == 1:
        return votes.index(top)
    winners = [j for j, v in enumerate(votes) if v == top]
    return winners[int(rng.integers(len(winners)))]


def random_dictator(problem: ChoiceProblem, rng) -> int:
    """A uniformly chosen agent imposes its own cheapest option."""
    row = problem.rows[int(rng.integers(problem.n))]
    return row.index(min(row))


def utilitarian(problem: ChoiceProblem) -> int:
    """Option minimizing the total cost across agents (lowest index on ties)."""
    return problem._utilitarian[0]


def egalitarian(problem: ChoiceProblem) -> int:
    """Option minimizing the worst single-agent cost (lowest index on ties)."""
    worst = list(map(max, zip(*problem.rows)))
    return worst.index(min(worst))
