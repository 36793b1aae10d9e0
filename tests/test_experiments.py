"""Experiment driver: seeding, records, CSV schema, pairing, summaries, worked example."""

import concurrent.futures
import csv
import dataclasses
import io
import math
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _oracles import C_of, b_of, summary_stats
from tacosim import _rng, baselines, experiments, report
from tacosim.agent import AgentPrivate
from tacosim.engine import TacoConfig, run_interrupted
from tacosim.example import run_example
from tacosim.experiments import (
    MECHANISMS,
    ExperimentConfig,
    make_instance,
    run_interrupt,
    run_montecarlo,
    run_scalability,
    run_sweep_gamma,
)
from tacosim.metrics import TrialResult, bound_report, termination_bound
from tacosim.report import _result_cells, _stats, _widen, config_lines, record_columns, write_csv
from tacosim.scenario import WaypointScenario, example2_fixture, solve_ordering


def _quick_cfg(**kw):
    base = dict(
        scenario="random",
        n=3,
        m=4,
        trials=4,
        epsilon=0.1,
        d0=1,
        backend="numpy",
        mechanisms=MECHANISMS,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="exotic")
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mechanisms=("taco", "bogus"))
    with pytest.raises(ValueError):
        ExperimentConfig(mechanisms=())
    with pytest.raises(ValueError):
        ExperimentConfig(b_min=2.0, b_max=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(gamma=1)
    with pytest.raises(ValueError):
        ExperimentConfig(base_seed=-1)
    # Sizes below one and infinite ranges, named, before any trial draws.
    refused = [
        (dict(scenario="random", n=0), "the random scenario needs n >= 1, got n=0"),
        (dict(scenario="random", m=0), "m must be at least 1, got 0"),
        (dict(n=1), "the waypoint scenario needs n >= 2, got n=1"),
        (dict(scenario="example2", n=-1), "the example2 scenario needs n >= 1, got n=-1"),
        (dict(k_max=math.inf), "k_max must be a positive finite real, got inf"),
        (dict(k_min=math.nan), "k_min must be a positive finite real, got nan"),
        (dict(b_max=math.inf), "b_max must be a positive finite real, got inf"),
        (dict(b_min=-math.inf), "b_min must be a positive finite real, got -inf"),
        (dict(separation=math.inf), "separation must be a positive finite real, got inf"),
        (dict(separation=1e308),
         "separation must keep n * separation finite, got 4 * 1e+308"),
        (dict(n=7, separation=3e307),
         "separation must keep n * separation finite, got 7 * 3e+307"),
        (dict(k_min=2.0, k_max=1.0), "urgency range must satisfy 0 < k_min <= k_max"),
        (dict(b_min=2.0, b_max=1.0), "valuation range must satisfy 0 < b_min <= b_max"),
    ]
    # Every positive real a record holds as a float takes one rule: a str, None
    # or a value no float holds leaked TypeError or OverflowError, or was held.
    bad = (math.inf, math.nan, 0.0, -1, 10**400, Fraction(10**400), "0.5", None)
    keys = ("epsilon", "epsilon_rel", "separation", "k_min", "k_max", "b_min", "b_max")
    refused += [(dict({key: v}), f"{key} must be a positive finite real, got {v}")
                for key in keys for v in bad if (key, v) != ("epsilon", None)]  # None: derived
    for kwargs, message in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**kwargs)
    for v in (*bad, "0.1"):
        with pytest.raises(ValueError, match=f"^epsilon must be a positive finite real, got "
                                             f"{re.escape(str(v))}$"):
            TacoConfig(epsilon=v)
    ExperimentConfig(n=2, m=1, separation=1e307, k_max=1e308, b_max=1e308)
    # Held as floats, so a Python int shows as a float, as the CLI parses it.
    cfg = ExperimentConfig(epsilon=1, epsilon_rel=Fraction(1, 2), separation=np.float64(2.0),
                           k_min=1, k_max=Fraction(3, 2), b_min=True, b_max=2)
    assert all(type(getattr(cfg, key)) is float for key in keys)
    assert {"epsilon = 1.0", "k_min = 1.0", "k_max = 1.5", "b_min = 1.0"} <= {*config_lines(cfg)}


@pytest.mark.parametrize("record, change, message", [
    (AgentPrivate(index=0, valuation=1.0, cost_row=[10.0, 4.0]), dict(valuation=0.0),
     "valuation must be a positive finite real, got 0.0"),
    (TacoConfig(epsilon=0.1), dict(d0=0), "d0 must be positive, got 0"),
    (ExperimentConfig(), dict(trials=0), "trials must be at least 1, got 0"),
], ids=["AgentPrivate", "TacoConfig", "ExperimentConfig"])
def test_a_built_record_cannot_change_and_a_changed_copy_is_checked(record, change, message):
    # An assigned field skipped its check: a config given scenario "bogus" ran
    # example2, one given trials 0 failed in the summary with max() of nothing.
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(record, field.name))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(record, **change)


def _typed_fields(record):
    return [(f.name, type(getattr(record, f.name)), getattr(record, f.name))
            for f in dataclasses.fields(record)]


@pytest.mark.parametrize("scenario, epsilon", [
    ("waypoint", None), ("random", None), ("random", 0.25), ("example2", 0.5),
])
def test_records_built_without_a_recheck_equal_checked_ones(monkeypatch, scenario, epsilon):
    # ChoiceProblem.agents and each trial's TacoConfig skip their records'
    # checks, as their values passed the same rules already: each must equal,
    # field for field and type for type, the record the checks build, and be
    # as frozen. Steps 0 and 5 reach run_taco and run_interrupted.
    cfg = ExperimentConfig(scenario=scenario, n=3, m=4, trials=3, epsilon=epsilon,
                           mechanisms=("taco",))
    calls = []
    for name in ("run_taco", "run_interrupted"):
        def spy(config, agents, *rest, real=getattr(experiments, name), **kw):
            calls.append((config, agents))
            return real(config, agents, *rest, **kw)
        monkeypatch.setattr(experiments, name, spy)
    run_interrupt(cfg, [0, 5])
    assert len(calls) == 6
    for (config, agents), trial in zip(calls, [0, 1, 2] * 2):
        problem, eps = make_instance(cfg, _rng.Stream((cfg.base_seed, trial, 0)))
        checked = [AgentPrivate(index=i, valuation=b_i, cost_row=row)
                   for i, (b_i, row) in enumerate(zip(problem.valuations, problem.rows))]
        assert list(map(_typed_fields, agents)) == list(map(_typed_fields, checked))
        assert agents == checked == problem.agents()
        want = TacoConfig(epsilon=eps, d0=cfg.d0, gamma=cfg.gamma,
                          max_steps=cfg.max_steps, history_cap=cfg.history_cap)
        assert _typed_fields(config) == _typed_fields(want)
        assert config == want and repr(config) == repr(want)
        for record in (config, agents[0]):
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.index = 1
    with pytest.raises(ValueError, match="^epsilon must be a positive finite real, got 0$"):
        dataclasses.replace(calls[0][0], epsilon=0)


def test_config_lines_defaults():
    lines = config_lines(ExperimentConfig())
    assert "d0 = 1/50" in lines
    assert "epsilon = none" in lines
    assert "mechanisms = " + ",".join(MECHANISMS) in lines
    assert "scenario = waypoint" in lines


def test_make_instance_deterministic():
    cfg = _quick_cfg()
    a, eps_a = make_instance(cfg, _rng.Stream((42, 0, 0)))
    b, eps_b = make_instance(cfg, _rng.Stream((42, 0, 0)))
    np.testing.assert_array_equal(C_of(a), C_of(b))
    np.testing.assert_array_equal(b_of(a), b_of(b))
    assert eps_a == eps_b == 0.1
    c, _ = make_instance(cfg, _rng.Stream((42, 1, 0)))
    assert not np.array_equal(C_of(a), C_of(c))


def test_make_instance_epsilon_resolution():
    rel = _quick_cfg(epsilon=None, epsilon_rel=1e-3)
    problem, eps = make_instance(rel, _rng.Stream((42, 0, 0)))
    assert eps == pytest.approx(1e-3 * float(C_of(problem).mean()))
    fixture_cfg = ExperimentConfig(scenario="example2", epsilon=0.5)
    problem, eps = make_instance(fixture_cfg, _rng.Stream((42, 0, 0)))
    assert (problem.n, problem.m) == (2, 2) and eps == 0.5
    waypoint_cfg = ExperimentConfig(scenario="waypoint", n=3)
    problem, _ = make_instance(waypoint_cfg, _rng.Stream((42, 0, 0)))
    assert problem.m == 6  # one option per arrival ordering


def test_seed_column_deterministic():
    assert _rng.seed_words((42, 0), 1) == _rng.seed_words((42, 0), 1)
    assert _rng.seed_words((42, 0), 1) != _rng.seed_words((42, 1), 1)


@pytest.mark.parametrize("base", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_seed_path_entropy_is_the_int_list(base):
    # numpy's SeedSequence of the path as an int list: its words, its
    # generator's draws and the seed column.
    for path in ((base, 0), (base, 7, 0), (base, 5, 100, 3, 2)):
        want = np.random.SeedSequence(list(path)).generate_state(4)
        assert _rng.seed_words(path, 4) == want.tolist()
    path = (base, 7)
    want = np.random.default_rng(np.random.SeedSequence([base, 7, 1])).random(3)
    assert _rng.Stream(path + (1,)).random(3) == want.tolist()
    want = np.random.SeedSequence([base, 7]).generate_state(1)
    assert _rng.seed_words(path, 1) == want.tolist()


@pytest.mark.parametrize("scenario", ["waypoint", "random"])
def test_make_instance_takes_a_numpy_generator_or_a_stream(scenario):
    # The same seed path gives the same instance through either generator.
    cfg = ExperimentConfig(scenario=scenario, n=3, m=5)
    for trial in range(20):
        numpy_rng = np.random.default_rng(np.random.SeedSequence([42, trial, 0]))
        a, eps_a = make_instance(cfg, numpy_rng)
        b, eps_b = make_instance(cfg, _rng.Stream((42, trial, 0)))
        assert (a.rows, a.valuations, eps_a) == (b.rows, b.valuations, eps_b)
        assert type(a.rows[0][0]) is type(b.valuations[0]) is float


def test_summary_statistics_are_numpys():
    rng = np.random.default_rng(24)
    inf, nan = math.inf, math.nan
    cases = [
        [], [nan, inf, -inf], [2.5], [3.0, -1.0], [0.7] * 9, [0.0, -0.0, 0.0],
        [5, 3, 9, 1, 100, 7, 7, 2],  # ints, as in the steps, rounds and cycles columns
        [1.0, inf, 0.25, -inf, nan, 4.0, 1e-300],
        (rng.random(1000) * rng.choice([-1e3, 1.0, 1e6], 1000)).tolist(),
        rng.lognormal(0.0, 3.0, 777).tolist(),
    ]
    for values in cases:
        got, want = _stats(values), summary_stats(values)
        assert got == want, values[:8]
        if got is not None:  # equal, and the same sign of zero
            assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]
    assert report._quantiles([nan]) == "n=0"
    assert report._quantiles([2, 4]) == (
        "median=3 q1=2.5 q3=3.5 max=4 mean=3 std=1.41421 n=2"
    )


def test_make_instance_refuses_a_nonfinite_relative_epsilon():
    cfg = ExperimentConfig(epsilon_rel=1e308)
    problem, _ = make_instance(ExperimentConfig(), _rng.Stream((42, 3, 0)))
    with pytest.raises(ValueError) as err:
        make_instance(cfg, _rng.Stream((42, 3, 0)), 3)
    mean = float(C_of(problem).mean())
    assert str(err.value) == (
        f"trial 3: epsilon_rel * mean(C) = 1e+308 * {mean!r} = inf "
        "is not a positive finite tolerance"
    )


def test_run_montecarlo_rows_and_files(tmp_path):
    cfg = _quick_cfg()
    res = run_montecarlo(cfg, tmp_path)
    assert len(res.rows) == cfg.trials * len(MECHANISMS)
    assert res.failures == 0
    assert res.columns == record_columns(cfg.n)
    assert res.columns[-1] == "interrupt_step"
    assert res.csv_path.exists() and res.summary_path.exists()
    assert "cap_failures = 0" in res.summary_text
    assert "[taco]" in res.summary_text
    for row in res.rows:
        assert row["status"] == "ok"
        assert row["gamma"] == "9/10"
        assert row["d0"] == "1"
        assert row["interrupt_step"] == 0
        if row["mechanism"] == "taco":
            assert row["steps"] >= 1 and row["cycles"] >= 1
        else:
            assert row["steps"] == 0 and row["rounds"] == 0
            for i in range(cfg.n):
                assert row[f"raw_cost_{i + 1}"] == row[f"settled_cost_{i + 1}"]
    # Same trial, same seed column on every mechanism row.
    by_trial = {}
    for row in res.rows:
        by_trial.setdefault(row["trial"], set()).add(row["seed"])
    assert all(len(seeds) == 1 for seeds in by_trial.values())


def test_run_montecarlo_deterministic_and_worker_invariant(tmp_path):
    cfg = _quick_cfg()
    first = run_montecarlo(cfg, tmp_path / "a")
    again = run_montecarlo(cfg, tmp_path / "b")
    assert first.rows == again.rows
    two = run_montecarlo(_quick_cfg(workers=2), tmp_path / "c")
    assert two.rows == first.rows
    assert (tmp_path / "a" / "montecarlo.csv").read_bytes() == (
        tmp_path / "c" / "montecarlo.csv"
    ).read_bytes()


_CELL = {name: i for i, name in enumerate(report.HEAD_COLUMNS)}


def _assert_seeded_by_path(records, cfg_of, path_of):
    """Each record's seed cell is numpy's SeedSequence(path).generate_state(1)[0],
    and its instance and tie-breaks come from numpy's streams of path + (k,):
    k = 0 for the instance, 1 for voting, 2 for the random dictator."""
    for r in records:
        path = list(path_of(r))
        rng = lambda k: np.random.default_rng(np.random.SeedSequence(path + [k]))
        assert r[_CELL["seed"]] == int(np.random.SeedSequence(path).generate_state(1)[0])
        problem, _ = make_instance(cfg_of(r), rng(0))
        want = {
            "utilitarian": baselines.utilitarian(problem),
            "voting": baselines.voting(problem, rng(1)),
            "random_dictator": baselines.random_dictator(problem, rng(2)),
        }
        if r[_CELL["mechanism"]] in want:
            assert r[_CELL["chosen_option"]] == want[r[_CELL["mechanism"]]], r


def test_seed_batches_keep_every_trials_records():
    # Points are seeded _BATCH at a time. At trial counts on and around those
    # batches, serial and pooled, every trial keeps the same records.
    batch = experiments._BATCH
    by_trial = {}
    for trials in (1, 2 * batch - 1, 2 * batch, 2 * batch + 1, 4 * batch + 1):
        serial, pooled = (
            run_montecarlo(_quick_cfg(trials=trials, workers=w)).records for w in (1, 2)
        )
        assert serial == pooled
        for r in serial:
            assert by_trial.setdefault((r[0], r[2]), r) == r
    assert len(by_trial) == (4 * batch + 1) * len(MECHANISMS)
    _assert_seeded_by_path(by_trial.values(), lambda r: _quick_cfg(), lambda r: (42, r[0]))


def test_multiword_seed_paths(tmp_path):
    # A base seed of 2**32 or more is two words of the path (base, n, m, trial).
    base = 2**32 + 5
    cfg = _quick_cfg(trials=3, base_seed=base)
    res = run_scalability(cfg, [2, 3], [2, 5], tmp_path / "a")
    pooled = run_scalability(dataclasses.replace(cfg, workers=2), [2, 3], [2, 5])
    assert pooled.records == res.records
    _assert_seeded_by_path(
        res.records,
        lambda r: dataclasses.replace(cfg, n=r[_CELL["n"]], m=r[_CELL["m"]]),
        lambda r: (base, r[_CELL["n"]], r[_CELL["m"]], r[0]),
    )


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that maps in-process and records
    its max_workers and the chunk sizes it was given."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append([max_workers])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        self.made[-1].append([len(c) for c in chunks])
        return map(fn, chunks)


@pytest.mark.parametrize(
    "trials, workers, pool_size", [(3, 64, 3), (2, 2, 2), (40, 5, 5), (100, 2, 2)]
)
def test_the_pool_starts_no_more_workers_than_chunks(monkeypatch, trials, workers, pool_size):
    # The pool starts all of its workers at its first task, so it is capped at
    # the number of chunks; the configured count stays in the summary header.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    cfg = _quick_cfg(trials=trials, workers=workers, mechanisms=("utilitarian",))
    res = run_montecarlo(cfg)
    [(made, sizes)] = _RecordingPool.made
    assert made == pool_size
    size = max(1, trials // (workers * 8))
    assert sizes[:-1] == [size] * (len(sizes) - 1) and 0 < sizes[-1] <= size
    assert sum(sizes) == trials
    assert res.records == run_montecarlo(dataclasses.replace(cfg, workers=1)).records
    assert f"workers = {workers}" in res.summary_text


def test_run_sweep_gamma_pairs_instances(tmp_path):
    cfg = _quick_cfg(trials=3, mechanisms=("taco", "utilitarian"))
    res = run_sweep_gamma(cfg, ["1/2", "9/10"], tmp_path)
    assert len(res.rows) == 2 * 3 * 2
    assert "[gamma=1/2 taco]" in res.summary_text
    assert "gamma_list = 1/2,9/10" in res.summary_text
    util = {}
    for row in res.rows:
        assert row["gamma"] in ("1/2", "9/10")
        if row["mechanism"] == "utilitarian":
            util.setdefault(row["trial"], []).append(row)
    for rows in util.values():
        assert len(rows) == 2
        a, b = rows
        assert a["seed"] == b["seed"]
        assert a["chosen_option"] == b["chosen_option"]
        assert a["raw_cost_1"] == b["raw_cost_1"]
    with pytest.raises(ValueError):
        run_sweep_gamma(cfg, [])


def test_run_interrupt(tmp_path):
    cfg = _quick_cfg(trials=2, mechanisms=("taco",))
    res = run_interrupt(cfg, [0, 3], tmp_path)
    assert len(res.rows) == 4
    assert "interrupt_steps = 0,3" in res.summary_text
    assert "[interrupt_step=3 taco]" in res.summary_text
    for row in res.rows:
        if row["interrupt_step"] == 3:
            assert row["steps"] <= 3
        else:
            assert row["interrupt_step"] == 0
    with pytest.raises(ValueError):
        run_interrupt(cfg, [])
    with pytest.raises(ValueError):
        run_interrupt(cfg, [-1])


def test_run_scalability_forces_random_scenario(tmp_path):
    cfg = ExperimentConfig(
        scenario="waypoint", trials=2, base_seed=7, epsilon=0.1, d0=1,
        backend="numpy", mechanisms=("taco",),
    )
    res = run_scalability(cfg, [2], [3], tmp_path)
    assert len(res.rows) == 2
    for row in res.rows:
        assert (row["n"], row["m"]) == (2, 3)
    assert "[n=2 m=3 taco]" in res.summary_text
    for n_list, m_list in (([], [3]), ([0], [3]), ([-1], [3]), ([2], [0]), ([2], [-1])):
        with pytest.raises(ValueError):
            run_scalability(cfg, n_list, m_list, tmp_path)


@pytest.mark.parametrize("run, message", [
    (lambda cfg: dataclasses.replace(cfg, mechanisms=("taco", "voting", "taco")),
     "the mechanism list holds taco twice"),
    (lambda cfg: run_sweep_gamma(cfg, ["9/10", "1/2", "0.9"]), "the gamma list holds 9/10 twice"),
    (lambda cfg: run_interrupt(cfg, [0, 5, 0]), "the interruption step list holds 0 twice"),
    (lambda cfg: run_scalability(cfg, [3, 2, 3], [2]), "the n list holds 3 twice"),
    (lambda cfg: run_scalability(cfg, [3], [2, 2]), "the m list holds 2 twice"),
])
def test_a_repeated_list_entry_is_refused_before_any_trial(monkeypatch, run, message):
    # Entries are compared by value. A repeated one would run its trials
    # twice and count each of them twice in its summary.
    executed = []
    monkeypatch.setattr(experiments, "_execute", lambda points, w: executed.append(w))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(_quick_cfg(trials=2, mechanisms=("taco",)))
    assert executed == []


@pytest.mark.parametrize("run, message", [
    (lambda cfg: dataclasses.replace(cfg, mechanisms="taco"), "mechanism list .* 'taco'"),
    (lambda cfg: run_sweep_gamma(cfg, "9/10"), "gamma list .* '9/10'"),
    (lambda cfg: run_interrupt(cfg, "50"), "interruption step list .* '50'"),
    (lambda cfg: run_scalability(cfg, "23", "45"), "n list .* '23'"),
])
def test_a_bare_string_list_is_refused_before_any_trial(monkeypatch, run, message):
    # Read one character at a time, "50" would run steps 5 and 0 and "23"
    # the grid n in {2, 3}; "9/10" would fail on "/" and "taco" on "t".
    executed = []
    monkeypatch.setattr(experiments, "_execute", lambda points, w: executed.append(w))
    with pytest.raises(ValueError, match=f"^the {message}$") as caught:
        run(_quick_cfg(trials=2, mechanisms=("taco",)))
    assert "not the string" in str(caught.value)
    assert executed == []


_PAIR = WaypointScenario(e=[0.0, 0.0], k=[1.0, 1.0], D=2.0)


@pytest.mark.parametrize("run, message", [
    (lambda cfg: dataclasses.replace(cfg, n=2.9), "n must be a whole number, got 2.9"),
    (lambda cfg: dataclasses.replace(cfg, m=2.5), "m must be a whole number, got 2.5"),
    (lambda cfg: dataclasses.replace(cfg, trials=1.5), "trials must be a whole number, got 1.5"),
    (lambda cfg: dataclasses.replace(cfg, base_seed=7.8),
     "base_seed must be a whole number, got 7.8"),
    (lambda cfg: dataclasses.replace(cfg, workers=1.5), "workers must be a whole number, got 1.5"),
    (lambda cfg: dataclasses.replace(cfg, max_steps=2.5),
     "max_steps must be a whole number, got 2.5"),
    (lambda cfg: dataclasses.replace(cfg, history_cap=2.5),
     "history_cap must be a whole number, got 2.5"),
    (lambda cfg: run_interrupt(cfg, [0, 2.5]),
     "an interruption step must be a whole number, got 2.5"),
    (lambda cfg: run_scalability(cfg, [2.5], [3]), "an n list entry must be a whole number, got 2.5"),
    (lambda cfg: run_scalability(cfg, [2], [3.9]), "an m list entry must be a whole number, got 3.9"),
    (lambda cfg: TacoConfig(epsilon=0.1, max_steps=2.5), "max_steps must be a whole number, got 2.5"),
    (lambda cfg: TacoConfig(epsilon=0.1, turn_order=(1.7, 0.2)),
     "a turn_order entry must be a whole number, got 1.7"),
    (lambda cfg: run_interrupted(TacoConfig(epsilon=0.1), example2_fixture().agents(), 2.5),
     "interrupt_step must be a whole number, got 2.5"),
    (lambda cfg: solve_ordering(_PAIR, (1, 0.5)), "an order entry must be a whole number, got 0.5"),
    (lambda cfg: termination_bound(2.5, 2, "9/10", 0.1, 1, 1.2), "n must be a whole number, got 2.5"),
    (lambda cfg: termination_bound(2, 3.5, "9/10", 0.1, 1, 1.2), "m must be a whole number, got 3.5"),
    (lambda cfg: TacoConfig(epsilon=0.1, max_steps=math.inf), "max_steps must be a whole number, got inf"),
    (lambda cfg: TacoConfig(epsilon=0.1, max_steps=math.nan), "max_steps must be a whole number, got nan"),
])
def test_a_count_with_a_fraction_is_refused_before_any_trial(monkeypatch, run, message):
    # int() would truncate each of these: trials=1.5 ran one trial, the
    # interruption step 2.5 ran step 2, turn_order (1.7, 0.2) was (1, 0).
    executed = []
    monkeypatch.setattr(experiments, "_execute", lambda points, w: executed.append(w))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(_quick_cfg(trials=2, mechanisms=("taco",)))
    assert executed == []


def test_whole_valued_counts_are_still_accepted():
    cfg = _quick_cfg(trials=np.int64(3), max_steps=1e6, base_seed="7", workers=True)
    got = (cfg.trials, cfg.max_steps, cfg.base_seed, cfg.workers)
    assert got == (3, 10**6, 7, 1) and {type(v) for v in got} == {int}
    config = TacoConfig(epsilon=0.1, history_cap=1e6, turn_order=(np.int64(1), 0.0))
    assert (config.history_cap, config.turn_order) == (10**6, (1, 0))
    assert solve_ordering(_PAIR, (np.int64(1), 0.0)) == solve_ordering(_PAIR, (1, 0))
    cfg = _quick_cfg(trials=1, mechanisms=("taco",))
    rows = run_interrupt(cfg, [np.int64(3), 1e6]).rows
    assert [type(r["interrupt_step"]) for r in rows] == [int, int]
    rows = run_scalability(cfg, [np.int64(3)], [2.0]).rows
    assert [(type(r["n"]), r["n"], r["m"]) for r in rows] == [(int, 3, 2)]
    bound_args = ("9/10", 0.1, 1, 1.2)
    assert termination_bound(3, 2.0, *bound_args) == termination_bound(3, 2, *bound_args)
    assert bound_report(3.0, 2.0, *bound_args) == bound_report(3, 2, *bound_args)


def test_cap_rows_are_reported(tmp_path):
    cfg = ExperimentConfig(
        scenario="example2", trials=1, epsilon=1e-6, d0=1, max_steps=3,
        backend="numpy", mechanisms=("taco",),
    )
    res = run_montecarlo(cfg, tmp_path)
    assert res.failures == 1
    row = res.rows[0]
    assert row["status"] == "cap"
    assert row["steps"] == 3
    assert "cap_failures = 1" in res.summary_text
    # The cap row carries no metrics; the CSV writer must blank them out.
    text = res.csv_path.read_text().splitlines()
    assert len(text) == 2
    header = text[0].split(",")
    data = text[1].split(",")
    assert data[header.index("og_raw")] == ""
    assert data[header.index("status")] == "cap"


def test_history_cap_rows_keep_the_sweep(tmp_path):
    # 13 of these 20 default waypoint trials record more than 60 states in one
    # window. Each becomes a TACo row with status history_cap; the sweep keeps
    # every row, and the pool writes the same bytes as the serial run.
    csvs = []
    for workers in (1, 2):
        cfg = ExperimentConfig(trials=20, history_cap=60, workers=workers)
        res = run_montecarlo(cfg, tmp_path / f"w{workers}")
        assert len(res.rows) == 20 * len(MECHANISMS)
        taco = [r["status"] for r in res.rows if r["mechanism"] == "taco"]
        assert taco.count("history_cap") == 13 and taco.count("ok") == 7
        assert all(r["status"] == "ok" for r in res.rows if r["mechanism"] != "taco")
        assert res.failures == 13
        assert "cap_failures = 13" in res.summary_text
        csvs.append(res.csv_path.read_bytes())
    assert csvs[0] == csvs[1]


def _record(**cells):
    """A record of a cells["n"]-agent instance: the given cells, None elsewhere."""
    return tuple(map(cells.get, record_columns(cells["n"])))


def test_write_csv_roundtrip(tmp_path):
    record = _record(
        trial=0, seed=11, mechanism="taco", n=2, m=2, gamma="9/10", epsilon=0.1,
        d0="1", status="ok", steps=5, og_settled=1 / 3, interrupt_step=0,
    )
    columns = record_columns(2)
    path = tmp_path / "out.csv"
    write_csv(path, [record], columns)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 1
    assert back[0]["mechanism"] == "taco"
    assert back[0]["steps"] == "5"
    assert back[0]["epsilon"] == "0.1" and back[0]["og_settled"] == repr(1 / 3)
    assert back[0]["og_raw"] == ""  # a None cell writes an empty cell
    assert list(back[0]) == columns


def _csv_writer_bytes(records, columns) -> bytes:
    """The reference writer: csv.writer's default dialect on the same records."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows(records)
    return fh.getvalue().encode()


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path):
    # Every kind of cell: metric floats and blanks, widened cost blocks of a
    # two-n grid, cap and history_cap rows, and interruption steps.
    sweeps = {
        "montecarlo": run_montecarlo(ExperimentConfig(trials=20, base_seed=5), tmp_path / "a"),
        "scalability": run_scalability(_quick_cfg(trials=3), [2, 4], [3], tmp_path / "b"),
        "cap": run_montecarlo(ExperimentConfig(trials=6, max_steps=30), tmp_path / "c"),
        "history_cap": run_montecarlo(ExperimentConfig(trials=8, history_cap=60), tmp_path / "d"),
        "interrupt": run_interrupt(ExperimentConfig(trials=4), [0, 20, 5], tmp_path / "e"),
    }
    # Consecutive points that share a trial index, so one memo spans them.
    one = ExperimentConfig(trials=1)
    sweeps |= {
        "sweep_gamma": run_sweep_gamma(one, ["9/10", "1/2"], tmp_path / "f"),
        "interrupt_1": run_interrupt(one, [0, 20, 5], tmp_path / "g"),
        "scalability_1": run_scalability(_quick_cfg(trials=1), [2, 4], [3], tmp_path / "h"),
    }
    for name, res in sweeps.items():
        assert res.csv_path.read_bytes() == _csv_writer_bytes(res.records, res.columns), name
    statuses = {r["status"] for res in sweeps.values() for r in res.rows}
    assert statuses == {"ok", "cap", "history_cap"}
    assert any(r["raw_cost_4"] is None for r in sweeps["scalability"].rows)
    assert {r["interrupt_step"] for r in sweeps["interrupt"].rows} == {0, 20, 5}

    # One point's cells that compare equal but print differently.
    columns = record_columns(2)
    twins = [
        _record(trial=0, n=2, mechanism="taco", epsilon=0.0, og_raw=-0.0, raw_cost_1=-0.0,
                raw_cost_2=0.0, steps=1, rounds=1.0, cycles=True, interrupt_step=True),
        _record(trial=0, n=2, mechanism="voting", epsilon=-0.0, og_raw=0.0, raw_cost_1=0.0,
                raw_cost_2=-0.0, steps=True, rounds=1, cycles=1.0, interrupt_step=1),
    ]
    path = tmp_path / "twins.csv"
    write_csv(path, twins, columns)
    assert path.read_bytes() == _csv_writer_bytes(twins, columns)

    # A one-shot stream of fresh tuples: each record's floats are freed once it
    # is written, so their ids come back in later records of the same trial.
    def fresh():
        for k in range(300):
            yield (0, k, k / 7, -k / 7, k * 0.5, (k % 3) / 3, str(k / 11), k % 2 == 0)

    columns = [f"c{i}" for i in range(8)]
    write_csv(path, fresh(), columns)
    assert path.read_bytes() == _csv_writer_bytes(fresh(), columns)


def test_columns_for_scales_with_n():
    cols = record_columns(5)
    assert "raw_cost_5" in cols and "settled_cost_5" in cols
    assert "raw_cost_6" not in cols
    assert cols[-1] == "interrupt_step"
    # A record of n = 3 is padded with blank cells in both cost blocks.
    small = _record(n=3, trial=0, mechanism="taco", status="ok", raw_cost_3="0.5",
                    settled_cost_1="0.25", interrupt_step=7)
    row = dict(zip(cols, _widen(small, 5)))
    assert row["raw_cost_3"] == "0.5" and row["settled_cost_1"] == "0.25"
    assert [row[f"raw_cost_{i}"] for i in (4, 5)] == [None, None]
    assert [row[f"settled_cost_{i}"] for i in (4, 5)] == [None, None]
    assert row["interrupt_step"] == 7
    # A grid over n pads its smaller records the same way.
    res = run_scalability(_quick_cfg(trials=1, mechanisms=("taco",)), [2, 3], [2])
    assert res.columns == record_columns(3)
    assert all(len(r) == len(res.columns) for r in res.records)
    assert [(r["n"], r["raw_cost_3"], r["settled_cost_3"]) for r in res.rows][0] == (2, None, None)


def test_record_cells_are_plain_python_values(tmp_path):
    cfg = _quick_cfg(trials=3)
    sweeps = {
        "random": run_montecarlo(_quick_cfg(), tmp_path),
        "waypoint": run_montecarlo(ExperimentConfig(trials=3)),
        "capped": run_montecarlo(ExperimentConfig(trials=6, max_steps=30)),
        "sweep_gamma": run_sweep_gamma(cfg, ["1/2", "9/10"]),
        "interrupt": run_interrupt(cfg, [0, 2]),
        "scalability": run_scalability(cfg, [2, 4], [3]),
    }
    assert sweeps["capped"].failures > 0
    for name, res in sweeps.items():
        for record in res.records:
            assert len(record) == len(res.columns)
            for cell in record:
                # np.float64 is a float, but csv.writer would write its repr.
                assert type(cell) in (int, float, str, type(None))
        assert all(list(row) == res.columns for row in res.rows)
        # Cost cells are floats; a capped row's and a widened record's are blank.
        max_n = max(r["n"] for r in res.rows)
        for row in res.rows:
            for i in range(1, max_n + 1):
                want = float if row["status"] == "ok" and i <= row["n"] else type(None)
                assert type(row[f"raw_cost_{i}"]) is want, name
                assert type(row[f"settled_cost_{i}"]) is want, name


def test_rows_are_read_only_views_of_the_records():
    cfg = _quick_cfg(trials=3)
    sweeps = {
        "montecarlo": run_montecarlo(cfg),
        "cap": run_montecarlo(ExperimentConfig(trials=6, max_steps=30)),
        "sweep_gamma": run_sweep_gamma(cfg, ["1/2", "9/10"]),
        "interrupt": run_interrupt(cfg, [0, 2]),
        "scalability": run_scalability(cfg, [2, 4], [3]),
    }
    assert sweeps["cap"].failures > 0
    assert any(r["raw_cost_4"] is None for r in sweeps["scalability"].rows)
    for name, res in sweeps.items():
        assert len(res.rows) == len(res.records), name
        for row, record in zip(res.rows, res.records):
            assert row == dict(zip(res.columns, record)), name
            assert list(row) == res.columns, name
        row = res.rows[0]
        assert row.get("nope") is None and "status" in row
        with pytest.raises(TypeError):
            row["trial"] = 0
        copy = dict(row)
        copy["trial"] = -1
        assert row["trial"] == res.records[0][0]
        assert pickle.loads(pickle.dumps(res)).rows == res.rows, name


def test_rows_hold_no_copy_of_the_records():
    res = run_montecarlo(_quick_cfg(trials=100))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = res.rows
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == len(res.records) == 100 * len(MECHANISMS)
    # A row that copied its record into a dict held about 840 bytes.
    assert held / len(res.records) < 128
    # Every record of a config shares one gamma and one d0 string.
    assert res.records[0][5] is res.records[-1][5]
    assert res.records[0][7] is res.records[-1][7]


def test_records_keep_their_cost_floats_not_their_text():
    # The bytes that a default montecarlo's records keep once the sweep is
    # done: the cost cells are the instance's floats, not repr strings.
    tracemalloc.start()
    try:
        records = run_montecarlo(ExperimentConfig(trials=100)).records
        kept = tracemalloc.get_traced_memory()[0]
        del records
        kept -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # About 2,580 bytes a trial with repr strings, about 1,960 with floats.
    assert kept / 100 < 2300


def test_nan_metric_writes_an_empty_cell(tmp_path):
    # A settled total of zero leaves og and gini of the settled costs undefined.
    result = TrialResult(
        mechanism="taco", chosen_option=1, raw_costs=(1.0, 2.0),
        settled_costs=(1.5, -1.5), steps=4, rounds=2, cycles_detected=1,
        og_raw=0.0, og_settled=math.nan, gini_raw=1 / 6, gini_settled=math.nan,
        max_cycle_spread_ratio=0.5,
    )
    cells = _result_cells(result)
    assert cells == (1, 4, 2, 1, "ok", 0.0, None, 1 / 6, None, 0.5, 1.0, 2.0, 1.5, -1.5)
    # The cost cells are the result's own floats.
    assert all(a is b for a, b in zip(cells[-4:], result.raw_costs + result.settled_costs))
    record = (0, 11, "taco", 2, 3, "9/10", 0.1, "1") + cells + (0,)
    path = tmp_path / "nan.csv"
    write_csv(path, [record], record_columns(2))
    with open(path, newline="") as fh:
        back = next(csv.DictReader(fh))
    assert back["og_settled"] == "" and back["gini_settled"] == ""
    assert back["og_raw"] == "0.0" and back["gini_raw"] == repr(1 / 6)
    assert [back[f"{k}_cost_{i}"] for k in ("raw", "settled") for i in (1, 2)] == [
        "1.0", "2.0", "1.5", "-1.5"]
    assert "nan" not in path.read_text()


def test_run_example_golden():
    run = run_example()
    assert run.detected_spans == [(4, 5)]
    assert run.outcome.steps == 5
    first, last = run.steps[0], run.steps[-1]
    assert first.offers == [[0, 0], [0, 0]] and first.pays == [[0, 0], [0, 0]]
    np.testing.assert_allclose(first.profits, [[-10.0, -4.0], [-7.0, -9.0]])
    assert first.selections == [1, None]
    assert last.step == 5
    assert last.offers == [[1, 3], [1, 3]]
    assert last.pays == [[Fraction(0), Fraction(4)], [Fraction(2), Fraction(2)]]
    np.testing.assert_allclose(last.profits, [[-9.2, -4.8], [-8.2, -7.8]])
    assert last.selections == [1, 1]
    assert run.outcome.settlements == [Fraction(-1), Fraction(1)]


def test_bound_report_small_and_large():
    small = bound_report(2, 2, "9/10", 0.1, 1, 1.2)
    assert "reductions until guaranteed tolerance: 35" in small
    assert "per-cycle step bound: 162" in small
    assert "total step bound: 5670" in small
    large = bound_report(10, 100, "9/10", 0.1, 1, 1.5)
    assert "~10^" in large
