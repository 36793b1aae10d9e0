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

from .baselines import ChoiceProblem
from .board import float_tuple
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
        try:
            e, k = float_tuple(self.e), float_tuple(self.k)
        except TypeError:
            e = k = None
        if e is None or len(k) != len(e):
            raise ValueError("e and k must be equal-length vectors")
        for name, value in (("e", e), ("k", k), ("D", float(self.D))):
            object.__setattr__(self, name, value)
        if not all(map((0.0).__lt__, k)):
            raise ValueError("urgency weights k must be positive")
        if not self.D > 0:
            raise ValueError(f"separation D must be positive, got {self.D}")

    @property
    def n(self) -> int:
        return len(self.e)


def pava(targets, weights) -> tuple[float, ...]:
    """Weighted isotonic regression by pool-adjacent-violators.

    Returns the unique nondecreasing minimizer of sum w_t * (v_t - targets_t)^2,
    one float per target. Merged blocks take the weighted mean of their targets.
    """
    try:
        t, w = float_tuple(targets), float_tuple(weights)
    except TypeError:
        t = w = None
    if t is None or len(t) != len(w):
        raise ValueError("targets and weights must be equal-length vectors")
    if not all(map((0.0).__lt__, w)):
        raise ValueError("weights must be positive")
    stack = None
    for ti, wi in zip(t, w):
        stack = _pool(stack, ti, wi)
    return tuple(_block_values(stack))


def _pool(stack, target: float, weight: float):
    """Push a target onto a PAVA stack of (mean, weight, size, below) blocks,
    pooling adjacent violators; the stack it extends is never mutated."""
    mean, wsum, size = target, weight, 1
    while stack is not None and stack[0] > mean:
        below_mean, below_w, below_size, stack = stack
        wm = below_w + wsum
        mean = (below_mean * below_w + mean * wsum) / wm
        wsum = wm
        size += below_size
    return (mean, wsum, size, stack)


def _block_values(stack) -> list[float]:
    """Per-position fitted values of a block stack, first position first."""
    blocks = []
    while stack is not None:
        blocks.append(stack)
        stack = stack[3]
    return [mean for mean, _, size, _ in reversed(blocks) for _ in range(size)]


def solve_ordering(scenario: WaypointScenario, order) -> tuple[float, ...]:
    """Cheapest adjustment vector x for a fixed arrival ordering, one float
    per agent.

    order[t] is the agent arriving in position t. Substituting
    v_t = e[order[t]] + x[order[t]] - t*D turns the chained separation
    constraints into "v nondecreasing", a weighted isotonic regression on
    targets e[order[t]] - t*D with weights k[order[t]].
    """
    n = scenario.n
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {order}")
    e, k, D = scenario.e, scenario.k, scenario.D
    v = pava([e[i] - t * D for t, i in enumerate(order)], [k[i] for i in order])
    x = [0.0] * n
    for t, i in enumerate(order):
        x[i] = (v[t] + t * D) - e[i]
    return tuple(x)


@functools.cache
def _orderings(n: int) -> tuple[tuple, tuple[str, ...]]:
    """Lexicographic orderings of n agents, each with the length of the prefix
    it shares with the one before it, and their option labels."""
    orders = list(itertools.permutations(range(n)))
    depths = [0] + [next(t for t in range(n) if prev[t] != cur[t])
                    for prev, cur in zip(orders, orders[1:])]
    labels = tuple("order(" + ",".join(map(str, order)) + ")" for order in orders)
    return tuple(zip(orders, depths)), labels


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
    rows = [[0.0] * len(labels) for _ in range(n)]
    stacks = [None] * (n + 1)  # stacks[t]: pooled blocks of the first t positions
    for col, (order, depth) in enumerate(walk):
        stack = stacks[depth]
        for t in range(depth, n):
            i = order[t]
            stack = stacks[t + 1] = _pool(stack, e[i] - shift[t], k[i])
        # Each block holds its positions' fitted value: walk them last first.
        t = n
        while stack is not None:
            v, _, size, stack = stack
            for t in range(t - 1, t - 1 - size, -1):
                i = order[t]
                x = (v + shift[t]) - e[i]
                rows[i][col] = k[i] * (x * x)
    return ChoiceProblem(n=n, m=len(labels), C=rows, b=b, option_labels=list(labels))


def random_problem(n: int, m: int, rng) -> ChoiceProblem:
    """Uniform(0,1) cost matrix and valuations; C is drawn first, then b.

    rng is a ``numpy.random.Generator`` or an ``experiments`` stream, which
    draws the same numbers. Exact zero draws for b are redrawn, in order, to
    keep valuations strictly positive.
    """
    C = rng.random((n, m))
    b = float_tuple(rng.random(n))
    while 0.0 in b:
        redraws = iter(float_tuple(rng.random(b.count(0.0))))
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
        # WaypointScenario and ChoiceProblem take the draws as floats once.
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
