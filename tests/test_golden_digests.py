"""Golden output digests: the sha256 of every sweep command's CSV and summary bytes.

The metrics, baselines and summary run on Python floats in numpy's operation
order, so their output is pinned byte for byte here, not only for
determinism. The digests were recorded with the numpy implementations that
``tests/_oracles.py`` keeps. The scalability cells reach numpy's 8-lane
summation (n = 9) and its halving branch (n = 12, a 144-term Gini sum).
The long-window digest pins one run's players, choices, cycle rows,
settlements and final trading unit, so a change to the cycle detector
cannot move where a window ends.
"""

import hashlib
from fractions import Fraction

import pytest

from tacosim.cli import main
from tacosim.engine import TacoConfig, run_taco
from tacosim.experiments import (
    ExperimentConfig,
    run_interrupt,
    run_montecarlo,
    run_scalability,
    run_sweep_gamma,
)
from tacosim.scenario import example2_fixture

GOLDEN = {
    "montecarlo": (
        "3d622a24f6cfcb7e826932b7f48e0fe27665206a6b359d1ef34a7ae97eb3d717",
        "74ba465bed0eb6987022a23714e1db5fb217adf329d8da640f76304f13b58d91",
    ),
    "sweep_gamma": (
        "33a42c404e35a4c1a00a63dd72412f3d7445071120a2303913e93c0fb9577a9a",
        "3f956d6edd98f6dace440bc4bea7f1cefa3af4afad99f211056c80f6848b0384",
    ),
    "interrupt": (
        "71686e995299cb5f363311284e212da12b5fa8c7a2ea65ed6e5f9a082a35ab45",
        "e21b3f3002ead4dcf71fcbbe5321d68e063db76f64547c6fa0ff4a35320e1b3d",
    ),
    "scalability": (
        "97778d80a88b2200e9ef7cc718ce1aa9ee5815c32acb3f7c8ed23b670a3910db",
        "40a35822bceb4f34caaeb8ad402e624b0b1c9c9c093ae071e3abc79a5162aa64",
    ),
}
# `tacosim example --out DIR [ARGS]`: its stdout, and its files as name, NUL,
# bytes. The default run is the 5-step worked example; d0 = 1/200 replays 337
# steps through denominators of 200.
EXAMPLE_STDOUT = "543df1c2d888f59e2e6184f7f01ab9360cb66679b0a17e044c1a64689ffbb149"
EXAMPLE_FILES = "c070702f7c485befdd0ca0b356aade6339ad572714c52c00bb12e1674b8e6302"
EXAMPLE = {
    "default": ((), EXAMPLE_STDOUT, EXAMPLE_FILES),
    "d0_1_200": (
        ("--d0", "1/200"),
        "1be458e8957a60e41b2ae6b637ace8b9fb2bb70668256344c7d931c55c39363c",
        "59871cfb24cc4534f42bd9d305c8ceb583e090aba8b037909174b6b4e6129451",
    ),
}
# The worked example at d0 = 1/20000: one 33,337-step window ending in a
# detected cycle, the shape of the benchmark's long window.
LONG_WINDOW = {
    "numpy": "d3eceef99d138d2bd689cae7e5b1bed5a0cb9d26b962f33873f3af142053dd56",
    "exact": "d3eceef99d138d2bd689cae7e5b1bed5a0cb9d26b962f33873f3af142053dd56",
}

RUNS = {
    "montecarlo": lambda out: run_montecarlo(
        ExperimentConfig(trials=200, base_seed=7, backend="numpy"), out
    ),
    "sweep_gamma": lambda out: run_sweep_gamma(
        ExperimentConfig(trials=25, base_seed=8, backend="numpy"), ["1/2", "3/4", "9/10"], out
    ),
    "interrupt": lambda out: run_interrupt(
        ExperimentConfig(trials=40, base_seed=9, backend="numpy"), [0, 3, 17], out
    ),
    "scalability": lambda out: run_scalability(
        ExperimentConfig(trials=3, base_seed=10, d0=Fraction(1), epsilon=0.1, backend="numpy"),
        [9, 12], [2, 3, 5], out,
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(RUNS))
def test_sweep_output_bytes_are_pinned(command, tmp_path):
    res = RUNS[command](tmp_path)
    assert res.failures == 0
    got = (_sha(res.csv_path.read_bytes()), _sha(res.summary_path.read_bytes()))
    assert got == GOLDEN[command]


@pytest.mark.parametrize("setting", sorted(EXAMPLE))
def test_example_output_bytes_are_pinned(setting, tmp_path, capsys):
    args, stdout_sha, files_sha = EXAMPLE[setting]
    assert main(["example", "--out", str(tmp_path), *args]) == 0
    files = b"".join(
        p.name.encode() + b"\0" + p.read_bytes() for p in sorted(tmp_path.iterdir())
    )
    assert _sha(capsys.readouterr().out.encode()) == stdout_sha
    assert _sha(files) == files_sha


@pytest.mark.parametrize("backend", sorted(LONG_WINDOW))
def test_long_window_outcome_is_pinned(backend):
    config = TacoConfig(epsilon=1e-6, d0="1/20000", gamma="9/10")
    outcome = run_taco(config, example2_fixture().agents(), backend=backend)
    h = hashlib.sha256()
    h.update(bytes(ts.agent for ts in outcome.trace))
    h.update(bytes(ts.selection for ts in outcome.trace))
    for cyc in outcome.cycle_records:
        h.update(f"{cyc.start_step},{cyc.end_step};".encode())
        for rows in cyc.agent_turn_profits:
            for row in rows:
                h.update(row.tobytes())
    facts = (outcome.settlements, outcome.final_d, outcome.steps, outcome.cycles_detected)
    h.update(repr(facts).encode())
    assert h.hexdigest() == LONG_WINDOW[backend]
