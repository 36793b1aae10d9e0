"""Outcome metrics: optimality gap, Gini index, effective-cost accounting,
the analytic worst-case step bound and its text report, and the per-cycle
profit-spread monitor.

The metrics run on Python floats. Every sum goes through ``_sum``, which
adds in numpy's pairwise order, and every other operation is the IEEE
operation numpy would do, so each value is bit for bit the numpy result
and the CSV bytes do not depend on which of the two computed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .baselines import ChoiceProblem, _sum
from .board import exact, floats, positive_finite, whole
from .engine import TacoOutcome, check_trading_unit
from .errors import MetricUndefinedError


def optimality_gap(costs, utilitarian_costs) -> float:
    """(total cost / total cost of the utilitarian option) - 1."""
    c = floats(costs, "costs", (None,))
    return _gap(_sum(c), _sum(floats(utilitarian_costs, "utilitarian_costs", (len(c),))))


def _gap(total: float, best: float) -> float:
    if not best > 0:
        raise MetricUndefinedError(
            f"optimality gap undefined: utilitarian total must be positive, got {best}"
        )
    return total / best - 1.0


def gini(costs) -> float:
    """Mean pairwise absolute difference normalized by twice the total.

    Defined for cost vectors with positive total; intended for nonnegative
    costs (settled costs can dip negative, in which case the usual [0, 1-1/n]
    range no longer applies).
    """
    c = floats(costs, "costs", (None,))
    return _gini(c, _sum(c))


def _gini(c: tuple[float, ...], total: float) -> float:
    if not total > 0:
        raise MetricUndefinedError(
            f"gini undefined: total cost must be positive, got {total}"
        )
    # numpy's |c[:, None] - c[None, :]|, summed in row-major order.
    diff = _sum([abs(u - v) for u in c for v in c])
    return diff / (2.0 * len(c) * total)


def effective_costs(
    problem: ChoiceProblem, outcome: TacoOutcome, mode: str = "settled"
) -> tuple[float, ...]:
    """Per-agent cost of the consensus choice, before or after transfers.

    raw ignores the settlement; settled subtracts each agent's valuation-
    weighted net receipt (equal to minus its final profit for the consensus
    choice). A problem with another agent count than the run's is refused.
    """
    _same_agents(problem.n, "the problem", outcome)
    raw = problem.col(outcome.consensus_choice)
    if mode == "raw":
        return raw
    if mode == "settled":  # float(p)'s bits, without Rational.__float__'s int() calls
        b, settlements = problem.valuations, outcome.settlements
        return tuple([c - b_i * (p.numerator / p.denominator)
                      for c, b_i, p in zip(raw, b, settlements)])
    raise ValueError(f"mode must be 'raw' or 'settled', got {mode!r}")


def _same_agents(n: int, what: str, outcome: TacoOutcome) -> None:
    if n != (run_n := len(outcome.settlements)):
        raise ValueError(f"{what}: n = {n}, but the outcome's run had n = {run_n}")


@dataclass(frozen=True)
class TerminationBound:
    """Worst-case step budget: cycle_count full cycles, per-cycle step count
    and total reported as natural logs (the counts overflow any float for
    realistic n, m)."""

    cycle_count: int
    log_per_cycle: float
    log_total: float


def termination_bound(n: int, m: int, gamma, epsilon: float, d0, b_max: float) -> TerminationBound:
    """Analytic bound on reductions and steps until guaranteed termination.

    cycle_count is the number of trading-unit reductions after which the
    profit-spread bound falls below epsilon: the smallest r with
    (m+1) * d0 * gamma^r * (n-1) * b_max <= epsilon, exact (see
    ``_reductions``). Each constant-d window can visit at most
    n * ((m+1)(n-1))^(n*m) states. The inputs pass a run's own checks, with
    epsilon and b_max unconverted (``board.positive_finite``): the bound is exact.
    """
    n = whole(n, "n")
    if n < 2:
        raise ValueError("the bound is defined for n >= 2 (no trading with one agent)")
    m = whole(m, "m", 1)
    d0, g = check_trading_unit(d0, gamma)
    epsilon, b_max = positive_finite(epsilon, "epsilon"), positive_finite(b_max, "b_max")
    basis = (m + 1) * d0 * (n - 1) * Fraction(b_max)
    count = _reductions(basis / Fraction(epsilon), g)
    log_per_cycle = math.log(n) + n * m * math.log((m + 1) * (n - 1))
    log_total = math.log(count) + log_per_cycle if count > 0 else -math.inf
    return TerminationBound(cycle_count=count, log_per_cycle=log_per_cycle, log_total=log_total)


def _reductions(ratio: Fraction, g: Fraction) -> int:
    """The smallest r >= 0 with ratio * g^r <= 1, for 0 < g < 1.

    r is ceil(q) for q = log(ratio) / log(1/g). Decimal logs with a bound on
    their error bracket q, at twice the digits while the bracket holds an
    integer. Only an integer q stays in every bracket, and then ratio =
    (1/g)^q has numerator g.denominator^q: so the exact product ratio * g^r
    is taken only when g.denominator^r is no longer than ratio's numerator,
    and costs no more than the inputs' size.
    """
    if ratio <= 1:
        return 0
    r, top, digits = 0, math.inf, 16
    while r < top:
        if r + 1 == top and r * (g.denominator.bit_length() - 1) < ratio.numerator.bit_length():
            return r if ratio * g**r <= 1 else top
        digits *= 2
        bracket = _decimal_bracket(ratio, g, digits)
        if bracket:
            r, top = max(r, math.ceil(bracket[0])), min(top, math.ceil(bracket[1]))
    return r


def _decimal_bracket(ratio: Fraction, g: Fraction, digits: int) -> tuple[Decimal, Decimal] | None:
    """Bounds on log(ratio) / log(1/g) from logs correctly rounded to
    ``digits`` digits, or None if log(1/g) is not resolved at that precision.

    Each ln, difference and quotient is off by at most half a unit in the
    last digit, 10**(1 - digits) / 2 relative; ``tol`` is twenty times that.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        tol = Decimal(10) ** (2 - digits)
        x, ex = _decimal_log(ratio, tol)
        y, ey = _decimal_log(1 / g, tol)
        if y <= ey:
            return None
        return (x - ex) / (y + ey) * (1 - tol), (x + ex) / (y - ey) * (1 + tol)


def _decimal_log(x: Fraction, tol: Decimal) -> tuple[Decimal, Decimal]:
    """log(x) of a rational >= 1 in the current decimal context, and a bound on its error."""
    a, b = Decimal(x.numerator).ln(), Decimal(x.denominator).ln()
    return a - b, (a + b) * tol


def bound_report(n: int, m: int, gamma, epsilon: float, d0, b_max: float) -> str:
    """Human-readable rendering of the analytic termination bound, of the whole n and m."""
    bound = termination_bound(n, m, gamma, epsilon, d0, b_max)
    n, m = whole(n, "n"), whole(m, "m")
    lines = [
        f"n = {n}, m = {m}, gamma = {exact(gamma)}, epsilon = {epsilon}, "
        f"d0 = {exact(d0)}, b_max = {b_max}",
        f"trading-unit reductions until guaranteed tolerance: {bound.cycle_count}",
    ]
    digits = bound.log_per_cycle / math.log(10)
    if digits < 18:
        per_cycle = n * ((m + 1) * (n - 1)) ** (n * m)
        lines.append(f"per-cycle step bound: {per_cycle}")
        lines.append(f"total step bound: {bound.cycle_count * per_cycle}")
    else:
        lines.append(
            f"per-cycle step bound: ~10^{digits:.2f} (ln = {bound.log_per_cycle:.4f})"
        )
        if bound.cycle_count > 0:
            lines.append(
                f"total step bound: ~10^{bound.log_total / math.log(10):.2f} "
                f"(ln = {bound.log_total:.4f})"
            )
        else:
            lines.append("total step bound: 0")
    return "\n".join(lines) + "\n"


def cycle_spread_ratio(outcome: TacoOutcome, valuations) -> float:
    """Worst observed-spread-to-bound ratio over all detected cycles.

    For each cycle and agent, the observed spread (profits over active
    choices at the agent's own turns) is divided by its analytic ceiling
    (p+1) * d * (n-1) * b_i with p active choices and the pre-reduction d.
    Sound runs never exceed 1. Returns 0.0 when no cycle was detected or
    every bound is vacuous (single agent). Refused for another n than the run's.
    """
    b = floats(valuations, "valuations", (None,), positive=True)
    _same_agents(len(b), "valuations", outcome)
    return _spread_ratio(outcome, b)


def _spread_ratio(outcome: TacoOutcome, b: tuple[float, ...]) -> float:
    n = len(b)
    worst = 0.0
    for cyc in outcome.cycle_records:
        d = cyc.d_at_detection  # float(d)'s bits, without Rational.__float__'s int() calls
        scale = (len(cyc.active_choices) + 1) * (d.numerator / d.denominator) * (n - 1)
        for b_i, spread in zip(b, cyc.spreads):
            bound = scale * b_i
            if bound == 0.0:
                if spread > 0.0:
                    return math.inf
                continue
            worst = max(worst, spread / bound)
    return worst


@dataclass
class TrialResult:
    """One mechanism's outcome on one instance, with both cost accountings.

    Metrics that are undefined for a trial (e.g. Gini of a nonpositive
    settled total) are NaN. Baselines trade nothing, so their settled fields
    equal the raw ones and the cycle fields are zero.
    """

    mechanism: str
    chosen_option: int
    raw_costs: tuple[float, ...]
    settled_costs: tuple[float, ...]
    steps: int
    rounds: int
    cycles_detected: int
    og_raw: float
    og_settled: float
    gini_raw: float
    gini_settled: float
    max_cycle_spread_ratio: float


def _nan_safe(metric, *args) -> float:
    try:
        return float(metric(*args))
    except MetricUndefinedError:
        return math.nan


def taco_trial_result(problem: ChoiceProblem, outcome: TacoOutcome) -> TrialResult:
    """TACo's row of a trial; the problem's valuations were checked when it was built."""
    settled = effective_costs(problem, outcome, "settled")
    raw = problem.col(outcome.consensus_choice)
    util_total, raw_total, settled_total = problem._utilitarian[1], _sum(raw), _sum(settled)
    return TrialResult(
        mechanism="taco",
        chosen_option=outcome.consensus_choice,
        raw_costs=raw,
        settled_costs=settled,
        steps=outcome.steps,
        rounds=outcome.rounds,
        cycles_detected=outcome.cycles_detected,
        og_raw=_nan_safe(_gap, raw_total, util_total),
        og_settled=_nan_safe(_gap, settled_total, util_total),
        gini_raw=_nan_safe(_gini, raw, raw_total),
        gini_settled=_nan_safe(_gini, settled, settled_total),
        max_cycle_spread_ratio=_spread_ratio(outcome, problem.valuations),
    )


def baseline_trial_result(problem: ChoiceProblem, mechanism: str, choice: int) -> TrialResult:
    raw = problem.col(choice)
    total = _sum(raw)
    og, gi = _nan_safe(_gap, total, problem._utilitarian[1]), _nan_safe(_gini, raw, total)
    return TrialResult(
        mechanism=mechanism,
        chosen_option=int(choice),
        raw_costs=raw,
        settled_costs=raw,
        steps=0,
        rounds=0,
        cycles_detected=0,
        og_raw=og,
        og_settled=og,
        gini_raw=gi,
        gini_settled=gi,
        max_cycle_spread_ratio=0.0,
    )
