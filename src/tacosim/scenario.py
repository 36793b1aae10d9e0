"""Instance generators.

The waypoint-merging scenario turns an aircraft-sequencing problem into a
discrete choice problem: every arrival ordering is one option, and its cost
vector comes from solving the ordering's chain-constrained quadratic program
exactly. All n! orderings are solved by one depth-first walk that extends each
prefix's pooled PAVA blocks once; every column is bit-identical to solving its
ordering alone with `solve_ordering`. A random-matrix generator and the
two-agent running example cover the remaining experiment families.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .baselines import ChoiceProblem, _col_sums
from .board import _prechecked, floats, permutation, positive_float, whole
from .errors import ResourceLimitError

MAX_AGENTS = 7  # n! orderings: 5040 options at the cap, 40320 above it


@dataclass(frozen=True)
class WaypointScenario:
    """Aircraft merging at a shared waypoint.

    e[i] is aircraft i's estimated arrival time, k[i] > 0 its urgency weight,
    and D > 0 the minimum separation between consecutive arrivals. A speed
    adjustment x shifts arrival i to e[i] + x[i] at cost k[i] * x[i]**2.
    """

    e: tuple[float, ...]
    k: tuple[float, ...]
    D: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", floats(self.e, "e", (None,)))
        object.__setattr__(self, "k", floats(self.k, "k", (self.n,), positive=True))
        object.__setattr__(self, "D", positive_float(self.D, "separation D"))

    @property
    def n(self) -> int:
        return len(self.e)


def pava(targets, weights) -> tuple[float, ...]:
    """Weighted isotonic regression by pool-adjacent-violators.

    Returns the unique nondecreasing minimizer of sum w_t * (v_t - targets_t)^2,
    one float per target. Merged blocks take the weighted mean of their targets.
    """
    t = floats(targets, "targets", (None,))
    blocks = []  # (mean, weight, size), the last block on top
    for mean, wsum in zip(t, floats(weights, "weights", (len(t),), positive=True)):
        size = 1
        while blocks and blocks[-1][0] > mean:
            below_mean, below_w, below_size = blocks.pop()
            wm = below_w + wsum
            mean = (below_mean * below_w + mean * wsum) / wm
            wsum = wm
            size += below_size
        blocks.append((mean, wsum, size))
    return tuple(mean for mean, _, size in blocks for _ in range(size))


def solve_ordering(scenario: WaypointScenario, order) -> tuple[float, ...]:
    """Cheapest adjustment vector x for a fixed arrival ordering, one float
    per agent.

    order[t] is the agent arriving in position t. Substituting
    v_t = e[order[t]] + x[order[t]] - t*D turns the chained separation
    constraints into "v nondecreasing", a weighted isotonic regression on
    targets e[order[t]] - t*D with weights k[order[t]].
    """
    n = scenario.n
    order = permutation(tuple(whole(i, "an order entry") for i in order), n, "order")
    e, k, D = scenario.e, scenario.k, scenario.D
    v = pava([e[i] - t * D for t, i in enumerate(order)], [k[i] for i in order])
    x = [0.0] * n
    for t, i in enumerate(order):
        x[i] = (v[t] + t * D) - e[i]
    return tuple(x)


@functools.cache
def _orderings(n: int) -> tuple[tuple, tuple[str, ...]]:
    """Lexicographic orderings of n agents as the walk reads them, and their labels: the
    length of the prefix each shares with the one before it, then its (position, agent)
    pairs past that prefix, and all of them, last position first."""
    orders = list(itertools.permutations(range(n)))
    depths = [0] + [next(t for t in range(n) if prev[t] != cur[t])
                    for prev, cur in zip(orders, orders[1:])]
    walk = tuple((d, tuple(enumerate(o))[d:], tuple(enumerate(o))[::-1])
                 for o, d in zip(orders, depths))
    return walk, tuple("order(" + ",".join(map(str, order)) + ")" for order in orders)


def enumerate_options(scenario: WaypointScenario, b) -> ChoiceProblem:
    """One option per arrival ordering, in lexicographic order; m = n!.

    The caller supplies the valuation vector b; option j's cost for agent i is
    k[i] * x[i]**2 under ordering j's optimal adjustment, computed with the
    float operations of `solve_ordering` and `k * x**2`, so bit-identically.
    Above MAX_AGENTS agents it raises ResourceLimitError.
    """
    n = scenario.n
    if n > MAX_AGENTS:
        raise ResourceLimitError(
            f"n={n} yields {math.factorial(n)} orderings, above the n<={MAX_AGENTS} cap"
        )
    e, k = scenario.e, scenario.k
    shift = [t * scenario.D for t in range(n)]
    walk, labels = _orderings(n)
    m = len(labels)
    cols, stacks = [], [None] * (n + 1)  # stacks[t]: pooled blocks of the first t positions
    for depth, pushes, back in walk:
        stack = stacks[depth]
        for t, i in pushes:  # push, pooling adjacent violators; no stack is mutated
            mean, wsum, size = e[i] - shift[t], k[i], 1
            while stack is not None and stack[0] > mean:
                below_mean, below_w, below_size, stack = stack
                wm = below_w + wsum
                mean = (below_mean * below_w + mean * wsum) / wm
                wsum = wm
                size += below_size
            stack = stacks[t + 1] = (mean, wsum, size, stack)
        # Each block holds its positions' fitted value: walk them last first.
        col, size = [0.0] * n, 0
        for t, i in back:
            if not size:
                v, _, size, stack = stack
            size -= 1
            x = (v + shift[t]) - e[i]
            col[i] = k[i] * (x * x)
        cols.append(col)
    rows = tuple(zip(*cols))
    # The rows are floats of a checked scenario, so only k*x*x overflowing is left to
    # refuse; a column's sum is finite only if each of its entries is.
    if all(map(math.isfinite, sums := _col_sums(rows, m))):
        return _prechecked(ChoiceProblem, n=n, m=m, option_labels=list(labels), rows=rows,
                           valuations=floats(b, "b", (n,), positive=True), col_sums=sums)
    return ChoiceProblem(n=n, m=m, C=rows, b=b, option_labels=list(labels))


def random_problem(n: int, m: int, rng) -> ChoiceProblem:
    """Uniform(0,1) cost matrix and valuations; C is drawn first, then b.

    rng is a ``numpy.random.Generator`` or an ``experiments`` stream, which
    draws the same numbers. Exact zero draws for b are redrawn, in order, to
    keep valuations strictly positive.
    """
    C = rng.random((n, m))
    b = floats(rng.random(n), "b", (n,))
    while zeros := b.count(0.0):
        redraws = iter(floats(rng.random(zeros), "b", (zeros,)))
        b = tuple(next(redraws) if v == 0.0 else v for v in b)
    return ChoiceProblem(n=n, m=m, C=C, b=b)


def random_waypoint_problem(
    n: int,
    rng,
    D: float = 1.0,
    k_range: tuple[float, float] = (0.5, 2.0),
    b_range: tuple[float, float] = (0.5, 1.5),
) -> ChoiceProblem:
    """Sampled waypoint instance with the documented default ranges.

    ETAs are Uniform(0, n*D), so arrivals genuinely conflict. Degenerate
    instances whose best ordering needs no adjustment at all (total cost 0,
    where the optimality gap is undefined) are resampled; n < 2 is rejected.
    rng is drawn as in ``random_problem``.
    """
    if n < 2:
        raise ValueError(f"a waypoint instance needs n >= 2 agents, got n={n}")
    while True:
        # WaypointScenario and enumerate_options take the draws as floats once.
        e = rng.uniform(0.0, n * D, size=n)
        k = rng.uniform(k_range[0], k_range[1], size=n)
        b = rng.uniform(b_range[0], b_range[1], size=n)
        problem = enumerate_options(WaypointScenario(e=e, k=k, D=D), b)
        if min(problem.col_sums) > 0:
            return problem


def example2_fixture() -> ChoiceProblem:
    """The two-agent, two-option running example used by the golden trace."""
    return ChoiceProblem(
        n=2,
        m=2,
        C=[[10.0, 4.0], [7.0, 9.0]],
        b=[0.8, 1.2],
        option_labels=["option-1", "option-2"],
    )
