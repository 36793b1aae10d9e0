"""The benchmark's tracer wraps functions by name; keep those names.

``tacobench/spans.py`` replaces module attributes of ``tacosim`` with timing
wrappers, so renaming one of them breaks every traced benchmark run. This
installs the tracer, runs one multi-cycle auction and one small sweep through
it, and checks that the wrapped names are the ones the engine and the sweep
actually call. Installing the tracer also fails if a name it wraps is gone,
``PublicBoard.net_float`` and ``_fastpath.run_window`` included.
"""

import importlib.util
from pathlib import Path

import numpy as np

import tacosim
from _oracles import C_of
from tacosim import engine, experiments, report
from tacosim.engine import TacoConfig
from tacosim.experiments import ExperimentConfig, run_montecarlo
from tacosim.scenario import random_problem

SPANS = Path(__file__).resolve().parent.parent / "tacobench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("tacobench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_engine_call_path():
    problem = random_problem(3, 4, np.random.default_rng(1))
    config = TacoConfig(epsilon=1e-3 * float(C_of(problem).mean()), d0=1, gamma="7/10")
    tracer = _load_spans().Tracer()
    original = engine.apply_selection
    tracer.install()
    try:
        for backend in ("exact", "numpy"):
            outcome = engine.run_taco(config, problem.agents(), backend=backend)
    finally:
        tracer.uninstall()
    assert engine.apply_selection is original
    assert outcome.cycles_detected >= 2
    names = {span[0] for span in tracer.spans}
    assert {
        "engine.run_taco",
        "fastpath.run_window",
        "board._advance_board",
        "board.reduce_trading_unit",
        "board.apply_selection",
        "board.settle",
    } <= names


def test_tracer_wraps_the_sweep_call_path(tmp_path):
    # The output layer is timed through experiments.write_csv and
    # experiments.summarize: a sweep that called report's functions by
    # another name would read experiments.output_s as 0.
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        tracer.call(lambda: run_montecarlo(ExperimentConfig(trials=3), tmp_path))
    finally:
        tracer.uninstall()
    assert experiments.write_csv is report.write_csv
    assert experiments.summarize is report.summarize
    names = {span[0] for span in tracer.spans}
    assert {
        "scenario.make_instance",
        "engine.run_taco",
        "metrics.taco_trial_result",
        "metrics.baseline_trial_result",
        "baselines.voting",
        "baselines.random_dictator",
        "baselines.utilitarian",
        "baselines.egalitarian",
        "experiments.write_csv",
        "experiments.summarize",
    } <= names
    assert tracer.layer_metrics()["experiments.output_s"] > 0


def test_default_backend_is_numpy(monkeypatch):
    # The benchmark records tacosim.resolve_backend(), called with no argument,
    # as the backend of every result.
    monkeypatch.delenv("TACO_BACKEND", raising=False)
    assert tacosim.resolve_backend() == "numpy"
