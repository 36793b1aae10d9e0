"""Self-test of the benchmark: every workload at tiny size, in a few seconds each.

Run from the root of a checkout:
    python3 -m pytest -q tacobench/test_selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (the gated ones and the two runnable extras)


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "tacobench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def tiny(workload, trace, *extra, cwd=ROOT):
    return bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", trace, "--size", "tiny", *extra, cwd=cwd)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    assert any(line.startswith("env ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_digest_trips_the_gate(workload, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["tiny"][workload]["summary_sha256"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    proc = tiny(workload, "0", "--reference", str(corrupted))
    assert proc.returncode != 0
    assert "gate failed" in proc.stderr
    assert "metric " not in proc.stdout and '"metrics"' not in proc.stdout


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "tacobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = tiny(WORKLOADS[0], "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
