"""The package's public names: everything ``__all__`` lists resolves; numpy
is not loaded on the run path."""

import os
import subprocess
import sys
from pathlib import Path

import tacosim


def test_all_names_resolve_under_star_import():
    namespace: dict = {}
    exec("from tacosim import *", namespace)
    assert [name for name in tacosim.__all__ if name not in namespace] == []


# Importing the package, one auction, a sweep with its files and two CLI
# commands; then the one place that still builds an array, C.
_RUN_PATH = """
import contextlib, io, sys, tempfile
from fractions import Fraction
import tacosim
from tacosim import cli, experiments
tacosim.run_taco(
    tacosim.TacoConfig(epsilon=1e-6, d0=Fraction(1, 2000)),
    tacosim.example2_fixture().agents(),
)
with tempfile.TemporaryDirectory() as out:
    cfg = experiments.ExperimentConfig(trials=20)
    assert experiments.run_montecarlo(cfg, out).csv_path.stat().st_size > 0
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["example"]) == cli.main(["bound"]) == 0
print("numpy" in sys.modules)
C = tacosim.example2_fixture().C
print(C.dtype, C.flags.writeable)
"""


def test_numpy_stays_off_the_run_path():
    src = str(Path(tacosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", _RUN_PATH], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n") == ["False", "float64 False", ""]
