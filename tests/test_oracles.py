"""The float metrics, baselines, cycle checks and output against their oracles.

Each shipped function repeats numpy's operations in numpy's order, so the
comparisons here are bit for bit (``float.hex`` or ``tobytes``), including
the undefined-metric policy (``MetricUndefinedError``, NaN in a trial
result) and the random draws of the baselines. The typed records write the
CSV and summary bytes of the dict-row path they replaced.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import _oracles as ref
from _oracles import C_of, b_of, tie_prone_instances
from _replay import span_counts
from tacosim import _fastpath, baselines, engine, metrics
from tacosim._rng import Stream
from tacosim.baselines import ChoiceProblem, _sum
from tacosim.engine import TacoConfig, check_termination, run_interrupted, run_taco
from tacosim.errors import MetricUndefinedError
from tacosim.experiments import ExperimentConfig, make_instance, run_interrupt, run_scalability
from tacosim.report import summarize, write_csv
from tacosim.scenario import WaypointScenario


def _bits(x) -> str:
    return float(x).hex()


def _outcome_of(fn, *args):
    """A metric's value as bits, or the message of its MetricUndefinedError."""
    try:
        return _bits(fn(*args))
    except MetricUndefinedError as err:
        return ("undefined", str(err))


def _vectors(rng, n):
    """Cost vectors of length n: spread magnitudes, zeros, and zero or negative totals."""
    yield rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
    yield np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-6, 7, n)
    yield rng.integers(0, 6, n) * 0.1
    yield rng.integers(-2, 3, n) * 0.5
    yield -np.abs(rng.random(n))
    yield np.zeros(n)
    yield np.full(n, -0.0)
    yield rng.choice([0.1, 0.2, 0.3, 0.7], n)


def test_sum_is_numpy_add_reduce():
    rng = np.random.default_rng(3)
    for n in list(range(0, 40)) + [127, 128, 129, 143, 144, 145, 255, 256, 300, 1000]:
        for _ in range(20):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            assert _bits(_sum(x.tolist())) == _bits(np.add.reduce(x))
    assert _bits(_sum([-0.0, -0.0])) == _bits(np.sum(np.array([-0.0, -0.0])))
    assert _bits(_sum([-0.0] * 9)) == _bits(np.sum(np.full(9, -0.0)))


def test_metrics_match_numpy_on_random_vectors():
    rng = np.random.default_rng(4)
    for n in range(1, 13):
        for _ in range(30):
            for c in _vectors(rng, n):
                u = next(_vectors(rng, n))
                assert _outcome_of(metrics.gini, c) == _outcome_of(ref.gini, c)
                assert _outcome_of(metrics.gini, c.tolist()) == _outcome_of(ref.gini, c)
                assert _outcome_of(metrics.optimality_gap, c, u) == _outcome_of(
                    ref.optimality_gap, c, u
                )
                assert _outcome_of(metrics.optimality_gap, c, c) == _outcome_of(
                    ref.optimality_gap, c, c
                )


def test_instance_mean_and_column_sums_match_numpy():
    # make_instance's mean(C) is _sum over the rows in C order, divided by
    # n*m, and ChoiceProblem.col_sums is C.sum(axis=0) row by row: both bit
    # for bit numpy's, on waypoint instances (n = 2..7; 7 x 5040 at the cap)
    # and on random ones up to 7 x 1000.
    shapes = [("waypoint", n, 0, 12 if n < 7 else 2) for n in range(2, 8)]
    shapes += [("random", n, m, 12) for n, m in ((3, 3), (5, 20), (10, 100), (7, 1000))]
    checked = 0
    for scenario, n, m, trials in shapes:
        cfg = ExperimentConfig(scenario=scenario, n=n, m=m or 24)
        for trial in range(trials):
            problem, eps = make_instance(cfg, Stream((13, n, trial, 0)))
            assert _bits(eps) == _bits(cfg.epsilon_rel * C_of(problem).mean()), (n, m, trial)
            assert np.array(problem.col_sums).tobytes() == C_of(problem).sum(axis=0).tobytes()
            assert type(problem.col_sums) is tuple
            checked += 1
    assert checked == 5 * 12 + 2 + 4 * 12


def _assert_same_result(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            # The shipped cost vectors are tuples of Python floats.
            assert type(a) is tuple and all(type(x) is float for x in a), f.name
            assert b.dtype == np.float64, f.name
            assert np.array(a, dtype=np.float64).tobytes() == b.tobytes(), f.name
        elif isinstance(b, float):
            assert _bits(a) == _bits(b), f.name
        else:
            assert a == b and type(a) is type(b), f.name


def _problems(rng, count):
    """Small instances whose settled or raw totals can be zero or negative."""
    for k in range(count):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 6))
        if k % 3 == 0:
            C = rng.integers(-2, 4, (n, m)) * 0.5
        elif k % 3 == 1:
            C = rng.choice([0.1, 0.2, 0.3, 0.7], (n, m))
        else:
            C = rng.random((n, m))
        b = rng.choice([0.1, 0.3, 0.7, 1.1, 1.3], n)
        yield ChoiceProblem(n=n, m=m, C=C, b=b)


def test_trial_results_match_numpy():
    rng = np.random.default_rng(5)
    config = TacoConfig(epsilon=0.05, d0="1/10", gamma="1/2")
    nan_fields = 0
    for problem in _problems(rng, 300):
        outcome = run_taco(config, problem.agents())
        for mode in ("raw", "settled"):
            got = metrics.effective_costs(problem, outcome, mode)
            assert type(got) is tuple and all(type(x) is float for x in got)
            want = ref.effective_costs(problem, outcome, mode).tobytes()
            assert np.array(got, dtype=np.float64).tobytes() == want
        want = ref.taco_trial_result(problem, outcome)
        _assert_same_result(metrics.taco_trial_result(problem, outcome), want)
        nan_fields += math.isnan(want.gini_settled) + math.isnan(want.og_raw)
        for j in range(problem.m):
            _assert_same_result(
                metrics.baseline_trial_result(problem, "voting", j),
                ref.baseline_trial_result(problem, "voting", j),
            )
    assert nan_fields > 0  # the undefined-metric policy was exercised


def test_baselines_match_numpy_and_draw_the_same():
    rng = np.random.default_rng(6)
    ties = 0
    for k, problem in enumerate(_problems(rng, 600)):
        assert baselines.utilitarian(problem) == ref.utilitarian(problem)
        assert baselines.egalitarian(problem) == ref.egalitarian(problem)
        for mech in ("voting", "random_dictator"):
            mine = np.random.default_rng(k)
            theirs = np.random.default_rng(k)
            assert getattr(baselines, mech)(problem, mine) == getattr(ref, mech)(problem, theirs)
            assert mine.bit_generator.state == theirs.bit_generator.state
        votes = np.bincount(C_of(problem).argmin(axis=1), minlength=problem.m)
        ties += int((votes == votes.max()).sum() > 1)
    assert ties > 50  # voting's random tie-break was exercised


def test_utilitarian_sums_columns_in_numpys_order():
    # Columns that permute one vector tie in exact arithmetic, so only the
    # rounding of each column sum picks the option; with n >= 8, numpy's
    # C.sum(axis=0) (row by row) and a pairwise sum often pick differently.
    rng = np.random.default_rng(12)
    order_matters = 0
    for _ in range(200):
        n = int(rng.integers(8, 13))
        base = rng.choice([0.1, 0.2, 0.3, 0.7], n)
        C = np.stack([rng.permutation(base) for _ in range(6)], axis=1)
        problem = ChoiceProblem(n=n, m=6, C=C, b=np.ones(n))
        assert baselines.utilitarian(problem) == ref.utilitarian(problem)
        for j in range(6):
            _assert_same_result(
                metrics.baseline_trial_result(problem, "utilitarian", j),
                ref.baseline_trial_result(problem, "utilitarian", j),
            )
        pairwise = min(range(6), key=lambda j: (_sum(C[:, j].tolist()), j))
        order_matters += pairwise != ref.utilitarian(problem)
    assert order_matters > 50


def _spreads(cyc):
    active = sorted(cyc.active_choices)
    return [
        float(np.ptp(np.concatenate([np.asarray(row)[active] for row in rows])))
        for rows in cyc.agent_turn_profits
    ]


@pytest.mark.parametrize("backend", ("numpy", "exact"))
def test_cycle_checks_match_numpy_on_reproducer(monkeypatch, backend):
    repeats = []
    find_repeat = _fastpath._find_repeat

    def recorded(first, more, t, log, m):
        s = find_repeat(first, more, t, log, m)
        # The kernel's log goes on growing: keep a copy. A turn's agent is a
        # function of its phase u % n, so the oracle counts phases as agents.
        log = _fastpath.TurnLog(log.choices[:], log.runs[:], log.n)
        players = [u % log.n for u in range(t)]
        repeats.append((first, tuple(more), t, log, players, log.expand(0, t), m, s))
        return s

    monkeypatch.setattr(_fastpath, "_find_repeat", recorded)
    cycles = 0
    for config, problem in tie_prone_instances():
        n, m = problem.n, problem.m
        outcome = run_taco(config, problem.agents(), backend=backend)
        assert _bits(metrics.cycle_spread_ratio(outcome, b_of(problem))) == _bits(
            ref.cycle_spread_ratio(outcome, b_of(problem))
        )
        log = [(ts.agent, ts.selection) for ts in outcome.trace]
        for cyc in outcome.cycle_records:
            cycles += 1
            # The engine's counts, as exact ints, against the trace's.
            counts, active = span_counts(log, cyc.start_step, cyc.end_step, n, m)
            assert cyc.choice_counts == counts
            assert {type(c) for row in cyc.choice_counts for c in row} == {int}
            assert cyc.active_choices == active
            # The termination test at the configured epsilon and at every
            # agent's spread and its neighbours, where >= flips.
            for s in _spreads(cyc) + [config.epsilon]:
                for eps in (np.nextafter(s, 0.0), s, np.nextafter(s, np.inf)):
                    if eps > 0:
                        assert check_termination(cyc, eps) == ref.check_termination(cyc, eps)
            engine._check_cycle_structure(cyc, n)
            assert ref.cycle_structure_ok(cyc, n)
            # One agent's counts off, the first's or the last's: the check
            # compares the rows pairwise, so both ends are pinned.
            for who in (0, n - 1):
                counts = list(cyc.choice_counts)
                row = list(counts[who])
                row[sorted(active)[0]] += 1
                counts[who] = tuple(row)
                bad = dataclasses.replace(cyc, choice_counts=tuple(counts))
                assert not ref.cycle_structure_ok(bad, n)
                with pytest.raises(AssertionError):
                    engine._check_cycle_structure(bad, n)
    assert cycles > 1000
    assert len(repeats) >= cycles
    for first, more, t, log, players, choices, m, s in repeats:
        assert s == ref.find_repeat(first, more, t, players, choices, log.n, m)
        # Every earlier start, repeat or not, as a candidate on its own.
        for cand in range(max(1, t - 40), t):
            assert find_repeat(cand, (), t, log, m) == (
                ref.find_repeat(cand, (), t, players, choices, log.n, m)
            )


def test_summary_matches_the_multi_pass_summary(tmp_path):
    # The dict-row path of _oracles (rows of _fmt strings, DictWriter, the
    # float(str) summary) on the same sweeps gives the same CSV and summary.
    capped = ExperimentConfig(trials=12, base_seed=5, backend="numpy", max_steps=60)
    res = run_interrupt(capped, [0, 3, 40], tmp_path / "capped")
    assert res.failures > 0
    # n = 9 reaches numpy's 8-lane summation; n = 2 records are padded.
    grid_cfg = ExperimentConfig(trials=2, base_seed=6, d0=1, epsilon=0.1, backend="numpy")
    grid = run_scalability(grid_cfg, [2, 9], [2, 3], tmp_path / "grid")
    pooled = run_scalability(
        dataclasses.replace(grid_cfg, workers=2), [2, 9], [2, 3], tmp_path / "pooled"
    )
    assert pooled.records == grid.records
    assert pooled.csv_path.read_bytes() == grid.csv_path.read_bytes()
    assert pooled.summary_text.replace("workers = 2", "workers = 1") == grid.summary_text
    for run in (res, grid):
        rows = ref.string_rows(run.records, run.columns)
        ref.write_csv(tmp_path / "ref.csv", rows, ref.columns_for(rows))
        assert run.csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    rng = np.random.default_rng(8)
    for run, keys in ((res, ("interrupt_step",)), (grid, ("n", "m")), (res, ())):
        rows = ref.string_rows(run.records, run.columns)
        for order in (range(len(rows)), rng.permutation(len(rows))):
            records = [run.records[k] for k in order]
            srows = [rows[k] for k in order]
            assert summarize(records, keys, ["h = 1"]) == ref.summarize(srows, keys, ["h = 1"])
            write_csv(tmp_path / "got.csv", records, run.columns)
            ref.write_csv(tmp_path / "ref.csv", srows, ref.columns_for(srows))
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_interrupted_outcomes_match_numpy():
    # Interrupted runs settle mid-window, so settled costs move off the raw ones.
    rng = np.random.default_rng(9)
    config = TacoConfig(epsilon=1e-3, d0="1/7", gamma="3/4")
    for problem in _problems(rng, 60):
        for cut in (1, 3, 17):
            outcome = run_interrupted(config, problem.agents(), cut)
            _assert_same_result(
                metrics.taco_trial_result(problem, outcome),
                ref.taco_trial_result(problem, outcome),
            )


def test_termination_count_matches_the_product_loop():
    # The count from bracketed logarithms is the loop's on a grid, and on
    # bounds that land exactly on epsilon (n = 2, m = 1, d0 = 1/2 and
    # b_max = 1 give a bound of 1, and epsilon is a power of gamma), where
    # the bracket holds an integer and the exact check decides.
    grid = itertools.product(
        (2, 3, 5), (1, 2, 4), ("1/2", "7/8", "9/10", "99/100"),
        (0.3, 1e-3, 1e-9), ("1", "1/3", "7/2"), (0.5, 1.2),
    )
    for n, m, gamma, eps, d0, b_max in grid:
        got = metrics.termination_bound(n, m, gamma, eps, d0, b_max).cycle_count
        assert got == ref.termination_count(n, m, gamma, eps, d0, b_max)
    for k in range(70):
        for gamma, eps in (("1/2", 2.0**-k), ("1/4", 4.0**-k), ("3/4", 0.75**k)):
            got = metrics.termination_bound(2, 1, gamma, eps, "1/2", 1).cycle_count
            assert got == ref.termination_count(2, 1, gamma, eps, "1/2", 1)


def test_termination_bound_takes_exact_inputs_beyond_any_float():
    # An int or Fraction epsilon or b_max is finite however large: no
    # float conversion, which would overflow, on the way to the exact count.
    huge = Fraction(10**400)
    assert metrics.termination_bound(2, 2, "9/10", huge, 1, 1.2).cycle_count == 0
    assert metrics.termination_bound(2, 2, "9/10", 10**400, 1, 1.2).cycle_count == 0
    got = metrics.termination_bound(2, 2, "9/10", 0.1, 1, huge).cycle_count
    assert got == ref.termination_count(2, 2, "9/10", 0.1, 1, huge)


def test_all_orderings_at_once_match_one_ordering_at_a_time():
    # ref.solve_orderings forms every ordering's targets as one array; each row
    # must be ref.solve_ordering's bytes for that ordering.
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            D = float(rng.choice([0.7, 1.0, 1.3]))
            scenario = WaypointScenario(
                e=rng.uniform(0.0, n * D, size=n), k=rng.uniform(0.5, 2.0, size=n), D=D
            )
            X = ref.solve_orderings(scenario)
            assert X.shape == (math.factorial(n), n)
            for perm, x in zip(itertools.permutations(range(n)), X):
                assert x.tobytes() == ref.solve_ordering(scenario, perm).tobytes(), (n, perm)
