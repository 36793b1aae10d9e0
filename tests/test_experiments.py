"""Experiment driver: seeding, records, CSV schema, pairing, summaries, worked example."""

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
from tacosim import _rng, experiments
from tacosim.example import run_example
from tacosim.experiments import (
    MECHANISMS,
    ExperimentConfig,
    _seed_column,
    _stream,
    _widen,
    config_lines,
    make_instance,
    record_columns,
    run_interrupt,
    run_montecarlo,
    run_scalability,
    run_sweep_gamma,
    write_csv,
)
from tacosim.metrics import TrialResult, _stats, bound_report


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
        (dict(k_max=math.inf), "k_max must be finite"),
        (dict(k_min=math.nan), "k_min must be finite"),
        (dict(b_max=math.inf), "b_max must be finite"),
        (dict(b_min=-math.inf), "b_min must be finite"),
        (dict(separation=math.inf), "separation must be finite"),
        (dict(separation=1e308), "separation must keep n * separation finite"),
        (dict(n=7, separation=3e307), "separation must keep n * separation finite"),
    ]
    for kwargs, message in refused:
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(**kwargs)
    ExperimentConfig(n=2, m=1, separation=1e307, k_max=1e308, b_max=1e308)


def test_config_lines_defaults():
    lines = config_lines(ExperimentConfig())
    assert "d0 = 1/50" in lines
    assert "epsilon = none" in lines
    assert "mechanisms = " + ",".join(MECHANISMS) in lines
    assert "scenario = waypoint" in lines


def test_make_instance_deterministic():
    cfg = _quick_cfg()
    a, eps_a = make_instance(cfg, _stream((42, 0), 0))
    b, eps_b = make_instance(cfg, _stream((42, 0), 0))
    np.testing.assert_array_equal(C_of(a), C_of(b))
    np.testing.assert_array_equal(b_of(a), b_of(b))
    assert eps_a == eps_b == 0.1
    c, _ = make_instance(cfg, _stream((42, 1), 0))
    assert not np.array_equal(C_of(a), C_of(c))


def test_make_instance_epsilon_resolution():
    rel = _quick_cfg(epsilon=None, epsilon_rel=1e-3)
    problem, eps = make_instance(rel, _stream((42, 0), 0))
    assert eps == pytest.approx(1e-3 * float(C_of(problem).mean()))
    fixture_cfg = ExperimentConfig(scenario="example2", epsilon=0.5)
    problem, eps = make_instance(fixture_cfg, _stream((42, 0), 0))
    assert (problem.n, problem.m) == (2, 2) and eps == 0.5
    waypoint_cfg = ExperimentConfig(scenario="waypoint", n=3)
    problem, _ = make_instance(waypoint_cfg, _stream((42, 0), 0))
    assert problem.m == 6  # one option per arrival ordering


def test_seed_column_deterministic():
    assert _seed_column((42, 0)) == _seed_column((42, 0))
    assert _seed_column((42, 0)) != _seed_column((42, 1))


@pytest.mark.parametrize("base", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_seed_path_entropy_is_the_int_list(base):
    # numpy's SeedSequence of the path as an int list: its words, its
    # generator's draws and the seed column.
    for path in ((base, 0), (base, 7, 0), (base, 5, 100, 3, 2)):
        want = np.random.SeedSequence(list(path)).generate_state(4)
        assert _rng.seed_words(path, 4) == want.tolist()
    path = (base, 7)
    want = np.random.default_rng(np.random.SeedSequence([base, 7, 1])).random(3)
    assert _stream(path, 1).random(3) == want.tolist()
    assert _seed_column(path) == int(np.random.SeedSequence([base, 7]).generate_state(1)[0])


@pytest.mark.parametrize("scenario", ["waypoint", "random"])
def test_make_instance_takes_a_numpy_generator_or_a_stream(scenario):
    # The same seed path gives the same instance through either generator.
    cfg = ExperimentConfig(scenario=scenario, n=3, m=5)
    for trial in range(20):
        numpy_rng = np.random.default_rng(np.random.SeedSequence([42, trial, 0]))
        a, eps_a = make_instance(cfg, numpy_rng)
        b, eps_b = make_instance(cfg, _stream((42, trial), 0))
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
    assert experiments._quantiles([nan]) == "n=0"
    assert experiments._quantiles([2, 4]) == (
        "median=3 q1=2.5 q3=3.5 max=4 mean=3 std=1.41421 n=2"
    )


def test_make_instance_refuses_a_nonfinite_relative_epsilon():
    cfg = ExperimentConfig(epsilon_rel=1e308)
    problem, _ = make_instance(ExperimentConfig(), _stream((42, 3), 0))
    with pytest.raises(ValueError) as err:
        make_instance(cfg, _stream((42, 3), 0), 3)
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
    for name, res in sweeps.items():
        assert res.csv_path.read_bytes() == _csv_writer_bytes(res.records, res.columns), name
    statuses = {r["status"] for res in sweeps.values() for r in res.rows}
    assert statuses == {"ok", "cap", "history_cap"}
    assert any(r["raw_cost_4"] is None for r in sweeps["scalability"].rows)
    assert {r["interrupt_step"] for r in sweeps["interrupt"].rows} == {0, 20, 5}


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
    plain = run_montecarlo(_quick_cfg(), tmp_path)
    capped = run_montecarlo(ExperimentConfig(trials=6, max_steps=30))
    assert capped.failures > 0
    for res in (plain, capped):
        for record in res.records:
            assert len(record) == len(res.columns)
            for cell in record:
                # np.float64 is a float, but csv.writer would write its repr.
                assert type(cell) in (int, float, str, type(None))
        assert all(list(row) == res.columns for row in res.rows)


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


def test_nan_metric_writes_an_empty_cell(tmp_path):
    # A settled total of zero leaves og and gini of the settled costs undefined.
    result = TrialResult(
        mechanism="taco", chosen_option=1, raw_costs=(1.0, 2.0),
        settled_costs=(1.5, -1.5), steps=4, rounds=2, cycles_detected=1,
        og_raw=0.0, og_settled=math.nan, gini_raw=1 / 6, gini_settled=math.nan,
        max_cycle_spread_ratio=0.5,
    )
    cells = experiments._result_cells(result, ("1.0", "2.0"), ("1.5", "-1.5"))
    assert cells == (1, 4, 2, 1, "ok", 0.0, None, 1 / 6, None, 0.5, "1.0", "2.0", "1.5", "-1.5")
    record = (0, 11, "taco", 2, 3, "9/10", 0.1, "1") + cells + (0,)
    path = tmp_path / "nan.csv"
    write_csv(path, [record], record_columns(2))
    with open(path, newline="") as fh:
        back = next(csv.DictReader(fh))
    assert back["og_settled"] == "" and back["gini_settled"] == ""
    assert back["og_raw"] == "0.0" and back["gini_raw"] == repr(1 / 6)
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
