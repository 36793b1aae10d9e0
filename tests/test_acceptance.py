"""Acceptance gate: eleven end-to-end checks, one reported line each.

Each test ends in a single criterion(...) call whose recorded line is printed
in the terminal summary. The three Monte Carlo artifacts (decay sweep,
interruption sweep, scalability grid) are session-scoped so the suite pays
for them once.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from _oracles import C_of, brute_ordering
from _replay import verify_run
from tacosim import experiments
from tacosim.baselines import ChoiceProblem
from tacosim.engine import TacoConfig, run_taco
from tacosim.example import run_example
from tacosim.experiments import (
    ExperimentConfig,
    run_interrupt,
    run_scalability,
    run_sweep_gamma,
)
from tacosim.metrics import bound_report, termination_bound
from tacosim.scenario import WaypointScenario, random_problem, solve_ordering

GAMMAS = (Fraction(3, 10), Fraction(6, 10), Fraction(9, 10), Fraction(99, 100))

# The worked two-agent run, step by step: board matrices the playing agent
# observed (exact rationals) and the full profit matrix at that state.
GOLDEN_OFFERS = [
    [[0, 0], [0, 0]],
    [[0, 1], [0, 1]],
    [[1, 1], [1, 1]],
    [[1, 2], [1, 2]],
    [[1, 3], [1, 3]],
]
GOLDEN_PAYS = [
    [[0, 0], [0, 0]],
    [[0, 2], [0, 0]],
    [[0, 2], [2, 0]],
    [[0, 4], [2, 0]],
    [[0, 4], [2, 2]],
]
GOLDEN_PROFITS = [
    [[-10.0, -4.0], [-7.0, -9.0]],
    [[-10.0, -4.8], [-7.0, -7.8]],
    [[-9.2, -4.8], [-8.2, -7.8]],
    [[-9.2, -5.6], [-8.2, -6.6]],
    [[-9.2, -4.8], [-8.2, -7.8]],
]
GOLDEN_SELECTIONS = [[1, None], [1, 0], [1, 0], [1, 1], [1, 1]]


@pytest.fixture(scope="session")
def sweep_suite():
    cfg = ExperimentConfig(trials=1000, workers=4)
    return run_sweep_gamma(cfg, GAMMAS)


@pytest.fixture(scope="session")
def interrupt_suite():
    cfg = ExperimentConfig(trials=1000, mechanisms=("taco",), workers=4)
    return run_interrupt(cfg, [0, 50, 20, 5])


@pytest.fixture(scope="session")
def scalability_suite():
    cfg = ExperimentConfig(
        scenario="random", trials=100, epsilon=0.1, d0=1,
        mechanisms=("taco",), workers=4,
    )
    return run_scalability(cfg, [3, 5, 7, 10], [3, 10, 30, 100])


def _vals(rows, key, **match):
    out = []
    for r in rows:
        if r.get("status") != "ok":
            continue
        if any(r.get(k) != v for k, v in match.items()):
            continue
        v = r.get(key, "")
        if v == "" or v is None:
            continue
        out.append(float(v))
    return out


def _median(rows, key, **match):
    return float(np.median(_vals(rows, key, **match)))


def test_criterion_01_golden_example_replay(criterion):
    t0 = time.perf_counter()
    run = run_example()
    elapsed = time.perf_counter() - t0
    ok = run.outcome.steps == 5 and run.detected_spans == [(4, 5)]
    ok = ok and run.outcome.consensus_choice == 1
    ok = ok and run.outcome.terminated_naturally
    for snap, offers, pays, profits, sels in zip(
        run.steps, GOLDEN_OFFERS, GOLDEN_PAYS, GOLDEN_PROFITS, GOLDEN_SELECTIONS
    ):
        ok = ok and snap.offers == offers and snap.pays == pays
        ok = ok and float(np.abs(snap.profits - np.array(profits)).max()) <= 1e-12
        ok = ok and snap.selections == sels
    ok = ok and elapsed < 1.0
    criterion(
        1, "golden-example-replay", ok,
        f"5 exact steps, consensus option 2, {elapsed * 1000:.0f} ms",
    )


def test_criterion_02_bound_calculator(criterion):
    tb = termination_bound(n=2, m=2, gamma="9/10", epsilon=0.1, d0=1, b_max=1.2)
    report = bound_report(n=2, m=2, gamma="9/10", epsilon=0.1, d0=1, b_max=1.2)
    ok = tb.cycle_count == 35
    ok = ok and "reductions until guaranteed tolerance: 35" in report
    ok = ok and "per-cycle step bound: 162" in report
    ok = ok and "total step bound: 5670" in report
    rng = np.random.default_rng(777)
    shifts_ok = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        gamma = Fraction(int(rng.integers(10, 99)), 100)
        d0 = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 30)))
        b_max = Fraction(int(rng.integers(5, 30)), 10)
        # Keep epsilon below the starting spread so at least one reduction
        # is needed; the loosened tolerance must then need exactly one fewer.
        basis = (m + 1) * d0 * (n - 1) * b_max
        eps = basis * gamma ** int(rng.integers(1, 9)) / 2
        a = termination_bound(n, m, gamma, eps, d0, b_max).cycle_count
        b = termination_bound(n, m, gamma, eps / gamma, d0, b_max).cycle_count
        if a >= 1 and b == a - 1:
            shifts_ok += 1
    ok = ok and shifts_ok == 20
    criterion(
        2, "bound-calculator", ok,
        f"35 reductions x 162 steps = 5670; tolerance shift exact in {shifts_ok}/20 cases",
    )


def test_criterion_03_cycle_spread_ceiling(criterion, sweep_suite):
    ratios = _vals(sweep_suite.rows, "max_cycle_spread_ratio",
                   mechanism="taco", gamma="9/10")
    ok = len(ratios) == 1000 and max(ratios) <= 1.0 + 1e-9
    criterion(
        3, "cycle-spread-ceiling", ok,
        f"max spread/bound ratio {max(ratios):.6f} over {len(ratios)} trials",
    )


def test_criterion_04_window_invariants_replay(criterion):
    rng = np.random.default_rng(4242)
    cycles = 0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 9))
        problem = random_problem(n, m, rng)
        config = TacoConfig(
            epsilon=1e-3 * float(C_of(problem).mean()), d0=1, gamma="7/10"
        )
        outcome = run_taco(config, problem.agents())
        report = verify_run(problem, config, outcome, tol=1e-9)
        cycles += report["cycles"]
    criterion(
        4, "window-invariants-replay", True,
        f"500 runs replayed exactly, {cycles} cycles checked",
    )


def test_criterion_05_guaranteed_termination(criterion, sweep_suite):
    rows = sweep_suite.rows
    steps_all = _vals(rows, "steps", mechanism="taco")
    med = _median(rows, "steps", mechanism="taco", gamma="9/10")
    ok = sweep_suite.failures == 0
    ok = ok and len(steps_all) == 4000
    ok = ok and 15.0 <= med <= 300.0
    ok = ok and max(steps_all) <= 10_000
    criterion(
        5, "guaranteed-termination", ok,
        f"0 cap failures, median steps {med:.1f} at decay 9/10, max {max(steps_all):.0f}",
    )


BASELINES = ("voting", "random_dictator", "utilitarian", "egalitarian")


def _sign_test(better, worse):
    """The exact two-sided sign-test p-value of better against worse; ties are dropped."""
    n = better + worse
    return min(1.0, 2 * sum(math.comb(n, k) for k in range(min(better, worse) + 1)) / 2**n)


def _paired_counts(rows, key):
    """TACo against each baseline on key, trial by trial: {baseline: (better, tie, worse, p)}.

    Lower is better. A trial in which either value is undefined is skipped.
    """
    by_trial = {}
    for r in rows:
        v = r.get(key)
        if r.get("status") == "ok" and v not in (None, "") and not math.isnan(float(v)):
            by_trial.setdefault(r["trial"], {})[r["mechanism"]] = float(v)
    out = {}
    for base in BASELINES:
        pairs = [(t["taco"], t[base]) for t in by_trial.values() if "taco" in t and base in t]
        better = sum(a < b for a, b in pairs)
        worse = sum(a > b for a, b in pairs)
        out[base] = (better, len(pairs) - better - worse, worse, _sign_test(better, worse))
    return out


def _paired_line(rows):
    """TACo's better/tie/worse counts and sign-test p against each baseline, per metric."""
    parts = []
    for key in ("gini_settled", "og_settled"):
        counts = _paired_counts(rows, key).items()
        parts.append(f"{key} " + ", ".join(
            f"{base} {b}/{t}/{w} p={p:.2g}" for base, (b, t, w, p) in counts
        ))
    return "TACo better/tie/worse: " + "; ".join(parts)


def _mechanism_ordering(rows):
    """Criterion 06's check on one 1000-trial sweep: (verdict, medians and paired counts)."""
    og_taco = _median(rows, "og_raw", mechanism="taco")
    og_vote = _median(rows, "og_raw", mechanism="voting")
    og_dict = _median(rows, "og_raw", mechanism="random_dictator")
    og_util = _vals(rows, "og_raw", mechanism="utilitarian")
    gini_taco = _median(rows, "gini_settled", mechanism="taco")
    gini_dict = _median(rows, "gini_settled", mechanism="random_dictator")
    ok = og_taco <= og_vote and og_taco <= og_dict
    ok = ok and len(og_util) == 1000 and max(map(abs, og_util)) == 0.0
    ok = ok and gini_taco <= gini_dict
    return ok, (
        f"median gap {og_taco:.4f} vs voting {og_vote:.4f} / dictator {og_dict:.4f}; "
        f"settled Gini {gini_taco:.4f} vs dictator {gini_dict:.4f}; {_paired_line(rows)}"
    )


def test_criterion_06_mechanism_ordering(criterion, sweep_suite):
    rows = [r for r in sweep_suite.rows if r.get("gamma") == "9/10"]
    ok, detail = _mechanism_ordering(rows)
    # "Significantly more fairly", paired: TACo's settled Gini beats each
    # baseline in more trials than it loses, by an exact sign test.
    for better, _, worse, p in _paired_counts(rows, "gini_settled").values():
        ok = ok and better > worse and p < 1e-6
    criterion(6, "mechanism-ordering", ok, detail)


def test_criterion_07_interruption_tradeoff(criterion, interrupt_suite):
    rows = interrupt_suite.rows
    # Ordered from natural termination to the earliest interruption.
    cuts = [0, 50, 20, 5]
    steps = [_median(rows, "steps", interrupt_step=c) for c in cuts]
    ok = all(a > b for a, b in zip(steps, steps[1:]))
    metrics_detail = []
    for key in ("og_raw", "og_settled", "gini_raw", "gini_settled"):
        series = [_median(rows, key, interrupt_step=c) for c in cuts]
        ok = ok and all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
        metrics_detail.append(f"{key} {series[0]:.3f}->{series[-1]:.3f}")
    criterion(
        7, "interruption-tradeoff", ok,
        "median steps " + "/".join(f"{s:.0f}" for s in steps)
        + "; " + ", ".join(metrics_detail),
    )


def test_criterion_08_decay_insensitivity(criterion, sweep_suite):
    rows = sweep_suite.rows
    worst = 0.0
    for key in ("og_raw", "og_settled", "gini_raw", "gini_settled"):
        meds = [
            _median(rows, key, mechanism="taco", gamma=str(g))
            for g in (Fraction(3, 10), Fraction(6, 10), Fraction(9, 10))
        ]
        for i in range(len(meds)):
            for j in range(i + 1, len(meds)):
                worst = max(worst, abs(meds[i] - meds[j]))
    ok = worst < 0.05
    criterion(
        8, "decay-insensitivity", ok,
        f"largest pairwise median difference {worst:.5f} (< 0.05)",
    )


def test_criterion_09_scalability_shape(criterion, scalability_suite):
    rows = scalability_suite.rows
    n_list, m_list = [3, 5, 7, 10], [3, 10, 30, 100]
    means = {
        (n, m): float(np.mean(_vals(rows, "rounds", n=n, m=m)))
        for n in n_list
        for m in m_list
    }
    ok = scalability_suite.failures == 0
    for m in m_list:
        series = [means[(n, m)] for n in n_list]
        ok = ok and all(a < b for a, b in zip(series, series[1:]))
    sub = means[(5, 100)] < 10 * means[(5, 10)]
    ok = ok and sub
    criterion(
        9, "scalability-shape", ok,
        f"rounds(5,100)={means[(5, 100)]:.2f} < 10*rounds(5,10)={10 * means[(5, 10)]:.2f}; "
        "means strictly increase in agent count at every m",
    )


def test_criterion_10_ordering_solver_oracle(criterion):
    rng = np.random.default_rng(10_000)
    t0 = time.perf_counter()
    worst_x = worst_obj = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        D = float(rng.random() + 0.5)
        e = rng.uniform(0.0, n * D, size=n)
        k = rng.uniform(0.5, 2.0, size=n)
        order = tuple(rng.permutation(n))
        x = np.array(solve_ordering(WaypointScenario(e=e, k=k, D=D), order))
        want_x, want_obj = brute_ordering(e, k, D, order)
        worst_x = max(worst_x, float(np.abs(x - want_x).max()))
        worst_obj = max(worst_obj, abs(float(np.sum(k * x**2)) - want_obj))
    elapsed = time.perf_counter() - t0
    ok = worst_x <= 1e-9 and worst_obj <= 1e-9 and elapsed < 10.0
    criterion(
        10, "ordering-solver-oracle", ok,
        f"1000 instances, max minimizer gap {worst_x:.2e}, "
        f"max objective gap {worst_obj:.2e}, {elapsed:.2f} s",
    )


def test_criterion_11_ordering_under_option_relabelling(criterion, sweep_suite, monkeypatch):
    # Criterion 06's sweep again, each trial's options permuted by its own
    # seeded permutation; every mechanism keeps its usual stream, and each
    # instance keeps the tolerance of its unpermuted costs.
    make_instance = experiments.make_instance

    def relabelled(cfg, rng, trial):
        problem, eps = make_instance(cfg, rng, trial)
        perm = np.random.default_rng(np.random.SeedSequence([9, trial])).permutation(problem.m)
        rows = [[row[j] for j in perm.tolist()] for row in problem.rows]
        return ChoiceProblem(problem.n, problem.m, rows, problem.valuations), eps

    monkeypatch.setattr(experiments, "make_instance", relabelled)
    t0 = time.perf_counter()
    relabelled_rows = experiments.run_montecarlo(ExperimentConfig(trials=1000)).rows
    elapsed = time.perf_counter() - t0
    ok, after = _mechanism_ordering(relabelled_rows)
    _, before = _mechanism_ordering([r for r in sweep_suite.rows if r.get("gamma") == "9/10"])
    criterion(
        11, "ordering-under-relabelling", ok,
        f"relabelled: {after}; as drawn: {before}; {elapsed:.2f} s",
    )
