"""The package's public names: everything ``__all__`` lists resolves; every
CLI command and the instance types run with numpy blocked."""

import os
import subprocess
import sys
from pathlib import Path

import tacosim


def test_all_names_resolve_under_star_import():
    namespace: dict = {}
    exec("from tacosim import *", namespace)
    assert [name for name in tacosim.__all__ if name not in namespace] == []


# With numpy blocked (an import of it raises ImportError): one auction, every
# CLI command with its files, and the instance types, solvers and one refusal
# on lists and tuples.
_RUN_PATH = """
import contextlib, io, sys, tempfile
from pathlib import Path
sys.modules["numpy"] = None
import tacosim
from tacosim import cli, scenario
tacosim.run_taco(tacosim.TacoConfig(epsilon=1e-6, d0="1/2000"), tacosim.example2_fixture().agents())
tiny = ["--trials", "3"]
commands = [
    ["montecarlo", *tiny], ["sweep-gamma", *tiny, "--gammas", "1/2,9/10"],
    ["interrupt", *tiny, "--steps", "natural,5"],
    ["scalability", *tiny, "--n-list", "2,3", "--m-list", "2,3"],
]
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([*cmd, "--out-dir", f"{out}/{cmd[0]}"]) for cmd in commands]
    codes += [cli.main(["example", "--out", f"{out}/example"]), cli.main(["bound"]),
              cli.main(["show-config"])]
    files = sorted(str(p.relative_to(out)) for p in Path(out).rglob("*.*"))
print(codes)
print(files)
problem = tacosim.ChoiceProblem(n=2, m=2, C=[(1, 2), [3.0, 4.0]], b=(1, 2.5))
print(problem.rows, problem.valuations, problem.agents()[1].cost_row)
print(tacosim.AgentPrivate(index=0, valuation=1.0, cost_row=[1, 2]).cost_row)
waypoint = tacosim.WaypointScenario(e=[0.0, 0.5], k=(1, 1), D=2)
print(tacosim.pava([1.0, 0.0], (3, 1)), tacosim.solve_ordering(waypoint, [0, 1]))
print(scenario.enumerate_options(waypoint, b=[1, 1]).rows)
try:
    tacosim.ChoiceProblem(n=2, m=3, C=[[1.0] * 3] * 2, b="12")
except ValueError as e:
    print(e)
print(sys.modules["numpy"])
"""


def test_numpy_stays_off_the_run_path():
    src = str(Path(tacosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", _RUN_PATH], env=env, capture_output=True, text=True, check=True
    ).stdout
    files = [
        "example/example_summary.txt", "example/example_trace.csv",
        "interrupt/interrupt.csv", "interrupt/interrupt_summary.txt",
        "montecarlo/montecarlo.csv", "montecarlo/montecarlo_summary.txt",
        "scalability/scalability.csv", "scalability/scalability_summary.txt",
        "sweep-gamma/sweep_gamma.csv", "sweep-gamma/sweep_gamma_summary.txt",
    ]
    assert out.split("\n") == [
        "[0, 0, 0, 0, 0, 0, 0]",
        str(files),
        "((1.0, 2.0), (3.0, 4.0)) (1.0, 2.5) (3.0, 4.0)",
        "(1.0, 2.0)",
        "(0.75, 0.75) (-0.75, 0.75)",
        "((0.5625, 1.5625), (0.5625, 1.5625))",
        "b has shape (), expected (2,)",
        "None",
        "",
    ]
