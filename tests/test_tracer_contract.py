"""The benchmark's tracer wraps engine functions by name; keep those names.

``tacobench/spans.py`` replaces module attributes of ``tacosim`` with timing
wrappers, so renaming one of them breaks every traced benchmark run. This
installs the tracer, runs one multi-cycle auction through it, and checks that
the wrapped names are the ones the engine actually calls. Installing the
tracer also fails if a name it wraps is gone, ``PublicBoard.net_float`` and
``_fastpath.run_window`` included.
"""

import importlib.util
from pathlib import Path

import numpy as np

import tacosim
from _oracles import C_of
from tacosim import engine
from tacosim.engine import TacoConfig
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


def test_default_backend_is_numpy(monkeypatch):
    # The benchmark records tacosim.resolve_backend(), called with no argument,
    # as the backend of every result.
    monkeypatch.delenv("TACO_BACKEND", raising=False)
    assert tacosim.resolve_backend() == "numpy"
