"""Outcome metrics: gaps, Gini, transfers, the analytic bound, spread monitor."""

import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from _oracles import b_of
from tacosim.baselines import ChoiceProblem
from tacosim.engine import TacoConfig, run_interrupted, run_taco
from tacosim.errors import MetricUndefinedError
from tacosim.metrics import (
    baseline_trial_result,
    cycle_spread_ratio,
    effective_costs,
    gini,
    optimality_gap,
    taco_trial_result,
    termination_bound,
)
from tacosim.scenario import example2_fixture


def _golden_outcome():
    config = TacoConfig(epsilon=1e-6, d0=1, gamma="9/10")
    return run_taco(config, example2_fixture().agents())


def test_optimality_gap_values():
    assert optimality_gap([4.0, 9.0], [4.0, 9.0]) == 0.0
    assert optimality_gap([2.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)
    assert optimality_gap([5.5, 5.5], [5.0, 5.0]) == pytest.approx(0.1)
    with pytest.raises(MetricUndefinedError):
        optimality_gap([1.0, 2.0], [0.0, 0.0])


def test_gini_values():
    assert gini([3.0, 3.0, 3.0]) == 0.0
    assert gini([1.0, 3.0]) == pytest.approx(0.25)
    assert gini([0.0, 1.0]) == pytest.approx(0.5)
    with pytest.raises(MetricUndefinedError):
        gini([0.0, 0.0])
    with pytest.raises(MetricUndefinedError):
        gini([2.0, -2.0])


def test_gini_scale_invariance_and_range():
    rng = np.random.default_rng(55)
    for _ in range(30):
        c = rng.random(int(rng.integers(2, 7))) + 1e-6
        g = gini(c)
        assert gini(c * 17.5) == pytest.approx(g)
        assert 0.0 <= g <= 1.0 - 1.0 / c.shape[0] + 1e-12


def test_effective_costs_golden():
    problem = example2_fixture()
    outcome = _golden_outcome()
    np.testing.assert_allclose(effective_costs(problem, outcome, "raw"), [4.0, 9.0])
    settled = effective_costs(problem, outcome, "settled")
    np.testing.assert_allclose(settled, [4.8, 7.8])
    # The settled total differs from raw exactly by the valuation-weighted
    # transfers, which do not net out across agents unless valuations match.
    transfer = float(np.dot(b_of(problem), [float(p) for p in outcome.settlements]))
    assert type(settled) is tuple
    assert sum(settled) == pytest.approx(13.0 - transfer)
    with pytest.raises(ValueError):
        effective_costs(problem, outcome, "weird")


def test_taco_trial_result_golden():
    res = taco_trial_result(example2_fixture(), _golden_outcome())
    assert res.mechanism == "taco"
    assert res.chosen_option == 1
    assert (res.steps, res.rounds, res.cycles_detected) == (5, 3, 1)
    np.testing.assert_allclose(res.raw_costs, [4.0, 9.0])
    np.testing.assert_allclose(res.settled_costs, [4.8, 7.8])
    assert res.og_raw == pytest.approx(0.0)
    assert res.og_settled == pytest.approx(12.6 / 13.0 - 1.0)
    assert res.gini_raw == pytest.approx(10.0 / 52.0)
    assert res.gini_settled == pytest.approx(6.0 / 50.4)
    # Both agents take exactly one turn inside the detected two-step cycle,
    # so every within-cycle spread is zero.
    assert res.max_cycle_spread_ratio == 0.0


def test_baseline_trial_result_and_nan_policy():
    problem = ChoiceProblem(
        n=2, m=2, C=np.array([[0.0, 5.0], [0.0, 5.0]]), b=np.ones(2)
    )
    res = baseline_trial_result(problem, "voting", 0)
    assert res.mechanism == "voting"
    assert (res.steps, res.rounds, res.cycles_detected) == (0, 0, 0)
    np.testing.assert_array_equal(res.raw_costs, res.settled_costs)
    assert math.isnan(res.og_raw) and math.isnan(res.og_settled)
    assert math.isnan(res.gini_raw) and math.isnan(res.gini_settled)
    ok = baseline_trial_result(example2_fixture(), "utilitarian", 1)
    assert ok.og_raw == 0.0 and ok.og_settled == 0.0
    assert ok.gini_raw == pytest.approx(10.0 / 52.0)


def test_termination_bound_worked_case():
    tb = termination_bound(n=2, m=2, gamma="9/10", epsilon=0.1, d0=1, b_max=1.2)
    assert tb.cycle_count == 35
    assert tb.log_per_cycle == pytest.approx(math.log(162))
    assert tb.log_total == pytest.approx(math.log(5670))


def test_termination_bound_zero_count():
    tb = termination_bound(n=2, m=2, gamma="9/10", epsilon=3.0, d0=1, b_max=1.0)
    assert tb.cycle_count == 0
    assert tb.log_total == -math.inf


def test_termination_bound_epsilon_shift():
    # Loosening epsilon to epsilon/gamma must remove exactly one reduction,
    # whenever at least one was needed. Exact rationals everywhere, so the
    # property is tested as stated, not up to float rounding.
    rng = np.random.default_rng(66)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 8))
        gamma = Fraction(int(rng.integers(1, 99)), 100)
        d0 = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        b_max = Fraction(int(rng.integers(1, 40)), 10)
        eps = Fraction(int(rng.integers(1, 1000)), 1000)
        a = termination_bound(n, m, gamma, eps, d0, b_max).cycle_count
        b = termination_bound(n, m, gamma, eps / gamma, d0, b_max).cycle_count
        if a >= 1:
            assert b == a - 1
        else:
            assert b == 0


@pytest.mark.parametrize("gamma, k", [
    (Fraction(99999, 100000), 7_000_000),
    (Fraction(10**12 - 1, 10**12), 70_000_000_000_000),
])
def test_termination_bound_on_a_boundary_near_gamma_one(gamma, k):
    # Epsilon a few floats either side of the bound after k reductions: the
    # count turns from k + 1 to k among them, so each lies within float
    # rounding of a boundary, where no float logarithm settles it. A 50-digit
    # decimal power of gamma is the reference; the count must not take the
    # exact power, which has over a hundred million bits.
    basis = 3 * Fraction(1.2)
    with localcontext() as ctx:
        ctx.prec = 50
        eps = float(Decimal(1.2) * 3 * (Decimal(gamma.numerator) / gamma.denominator) ** k)
    counts = []
    for _ in range(7):
        eps = math.nextafter(eps, 0.0)
    start = time.perf_counter()
    for _ in range(14):
        eps = math.nextafter(eps, 1.0)
        with localcontext() as ctx:
            ctx.prec = 80
            above = Decimal(basis.numerator) / basis.denominator / Decimal(eps) * (
                Decimal(gamma.numerator) / gamma.denominator
            ) ** k > 1
        got = termination_bound(2, 2, gamma, eps, 1, 1.2).cycle_count
        assert got == k + above
        counts.append(got)
    assert time.perf_counter() - start < 1.0
    assert counts[0] == k + 1 and counts[-1] == k


def test_termination_bound_gamma_within_a_float_of_one():
    # 1 - gamma below the smallest float: the count passes 10**400. log(1/gamma)
    # is 10**-400 to 400 digits and the bound over epsilon is 36 to 16, so the
    # count is ln(36) * 10**400 to float precision; loosening epsilon to
    # epsilon/gamma still removes exactly one reduction.
    gamma = Fraction(10**400 - 1, 10**400)
    count = termination_bound(2, 2, gamma, 0.1, 1, 1.2).cycle_count
    assert count / 10**400 == pytest.approx(math.log(36), rel=1e-14)
    assert termination_bound(2, 2, gamma, Fraction(0.1) / gamma, 1, 1.2).cycle_count == count - 1


def test_termination_bound_validation():
    with pytest.raises(ValueError):
        termination_bound(1, 2, "9/10", 0.1, 1, 1.0)
    with pytest.raises(ValueError):
        termination_bound(2, 0, "9/10", 0.1, 1, 1.0)
    with pytest.raises(ValueError):
        termination_bound(2, 2, 1, 0.1, 1, 1.0)
    with pytest.raises(ValueError):
        termination_bound(2, 2, "9/10", 0.0, 1, 1.0)
    with pytest.raises(ValueError):
        termination_bound(2, 2, "9/10", 0.1, 0, 1.0)
    with pytest.raises(ValueError):
        termination_bound(2, 2, "9/10", 0.1, 1, 0.0)


def test_cycle_spread_ratio_no_cycles_is_zero():
    config = TacoConfig(epsilon=1e-6, d0=1, gamma="9/10")
    outcome = run_interrupted(config, example2_fixture().agents(), 1)
    assert outcome.cycles_detected == 0
    assert cycle_spread_ratio(outcome, b_of(example2_fixture())) == 0.0


def test_cycle_spread_ratio_golden_within_bound():
    ratio = cycle_spread_ratio(_golden_outcome(), b_of(example2_fixture()))
    assert 0.0 <= ratio <= 1.0
