"""Command-line interface: output formats, exit codes, config precedence."""

import csv
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tacosim
from tacosim import experiments
from tacosim.cli import load_config_file, main
from tacosim.experiments import ExperimentConfig


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_example_stdout_and_files(tmp_path, capsys):
    out_dir = tmp_path / "ex"
    assert main(["example", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "worked two-agent example (agents and options numbered from 1)" in out
    assert "cycle detected: steps 4..5" in out
    assert (
        "terminated at step 5: consensus option 2, settlements [-1,1], final d 9/10"
        in out
    )
    assert "[[0,0],[0,0]]" in out
    assert "[[1,3],[1,3]]" in out and "[[0,4],[2,2]]" in out

    with open(out_dir / "example_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "agent", "selection", "offers", "pays", "profits", "selections"]
    assert len(rows) == 6
    assert rows[1] == [
        "1", "0", "1", "[[0,0],[0,0]]", "[[0,0],[0,0]]",
        "[[-10,-4],[-7,-9]]", "1 -",
    ]
    assert rows[5] == [
        "5", "0", "1", "[[1,3],[1,3]]", "[[0,4],[2,2]]",
        "[[-9.2,-4.8],[-8.2,-7.8]]", "1 1",
    ]
    summary = (out_dir / "example_summary.txt").read_text()
    assert "steps = 5" in summary
    assert "consensus_choice = 1" in summary  # files stay 0-based
    assert "settlements = -1,1" in summary
    assert "final_d = 9/10" in summary
    assert "terminated_naturally = True" in summary


def test_example_without_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["example", "--out", ""]) == 0
    assert not (tmp_path / "results").exists()
    assert "terminated at step 5" in capsys.readouterr().out


def test_example_rejects_bad_parameters(capsys):
    assert main(["example", "--epsilon", "0", "--out", ""]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["example", "--gamma", "1", "--out", ""]) == 1
    assert main(["example", "--d0", "0", "--out", ""]) == 1


def test_bound_defaults(capsys):
    assert main(["bound"]) == 0
    out = capsys.readouterr().out
    assert "trading-unit reductions until guaranteed tolerance: 35" in out
    assert "per-cycle step bound: 162" in out
    assert "total step bound: 5670" in out


@pytest.mark.parametrize("flag, name", [("--epsilon", "epsilon"), ("--b-max", "b_max")])
def test_bound_rejects_an_infinite_value(capsys, flag, name):
    assert main(["bound", flag, "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {name} must be a positive finite real, got inf\n"
    assert captured.out == ""


def test_montecarlo_tiny_and_rerun_identical(tmp_path, capsys):
    args = [
        "montecarlo", "--scenario", "random", "--n", "3", "--m", "4",
        "--trials", "2", "--epsilon", "0.1", "--d0", "1",
        "--backend", "numpy", "--mechanisms", "taco,utilitarian",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "r1")]) == 0
    out = capsys.readouterr().out
    assert "csv_schema_version = 1" in out
    assert "per-trial rows:" in out
    assert main(args + ["--out-dir", str(tmp_path / "r2")]) == 0
    first = (tmp_path / "r1" / "montecarlo.csv").read_bytes()
    again = (tmp_path / "r2" / "montecarlo.csv").read_bytes()
    assert first == again
    rows = _read_rows(tmp_path / "r1" / "montecarlo.csv")
    assert len(rows) == 4
    assert {r["mechanism"] for r in rows} == {"taco", "utilitarian"}


def test_montecarlo_empty_out_dir_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "montecarlo", "--scenario", "random", "--n", "3", "--m", "4",
        "--trials", "1", "--epsilon", "0.1", "--d0", "1",
        "--backend", "numpy", "--mechanisms", "taco", "--out-dir", "",
    ]) == 0
    assert list(tmp_path.iterdir()) == []
    out = capsys.readouterr().out
    assert "csv_schema_version = 1" in out
    assert "per-trial rows:" not in out


def test_step_cap_exit_code(tmp_path, capsys):
    code = main([
        "montecarlo", "--scenario", "example2", "--trials", "1",
        "--epsilon", "1e-6", "--d0", "1", "--max-steps", "3",
        "--backend", "numpy", "--mechanisms", "taco",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "hit the step cap" in captured.err
    assert "cap_failures = 1" in captured.out


def test_history_cap_exit_code(tmp_path, capsys):
    code = main([
        "montecarlo", "--trials", "3", "--history-cap", "2", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "state-history cap" in captured.err
    assert "cap_failures = 3" in captured.out
    rows = _read_rows(tmp_path / "montecarlo.csv")
    assert len(rows) == 15
    assert [r["status"] for r in rows if r["mechanism"] == "taco"] == ["history_cap"] * 3


def test_waypoint_with_fewer_than_two_agents_exits_with_error():
    # One agent used to make the waypoint sampler resample forever; run it in
    # a subprocess so a regression fails on the timeout instead of hanging.
    src = str(Path(tacosim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for n in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "tacosim.cli", "montecarlo", "--n", n,
             "--trials", "1", "--out-dir", ""],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "n >= 2" in proc.stderr
        assert proc.stdout == ""


def test_interrupt_command_defaults_to_taco(tmp_path):
    assert main([
        "interrupt", "--scenario", "random", "--n", "2", "--m", "3",
        "--trials", "1", "--epsilon", "0.1", "--d0", "1",
        "--backend", "numpy", "--steps", "natural,2",
        "--out-dir", str(tmp_path),
    ]) == 0
    rows = _read_rows(tmp_path / "interrupt.csv")
    assert {r["mechanism"] for r in rows} == {"taco"}
    assert {r["interrupt_step"] for r in rows} == {"0", "2"}


def test_sweep_gamma_quick(tmp_path):
    assert main([
        "sweep-gamma", "--scenario", "random", "--n", "2", "--m", "3",
        "--trials", "1", "--epsilon", "0.1", "--d0", "1",
        "--backend", "numpy", "--mechanisms", "taco",
        "--gammas", "1/2,9/10", "--out-dir", str(tmp_path),
    ]) == 0
    rows = _read_rows(tmp_path / "sweep_gamma.csv")
    assert {r["gamma"] for r in rows} == {"1/2", "9/10"}


def test_scalability_command_defaults(tmp_path):
    # The scalability command pins the coarse trading unit and the absolute
    # tolerance the grid is specified with, unless overridden.
    assert main([
        "scalability", "--n-list", "2", "--m-list", "3", "--trials", "2",
        "--backend", "numpy", "--mechanisms", "taco",
        "--out-dir", str(tmp_path),
    ]) == 0
    rows = _read_rows(tmp_path / "scalability.csv")
    assert len(rows) == 2
    for row in rows:
        assert row["d0"] == "1"
        assert row["epsilon"] == "0.1"
        assert (row["n"], row["m"]) == ("2", "3")


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment line\nd0 = 1/4\ntrials = 2\n")
    assert main([
        "scalability", "--config", str(cfg), "--n-list", "2", "--m-list", "3",
        "--backend", "numpy", "--mechanisms", "taco",
        "--out-dir", str(tmp_path / "file_wins"),
    ]) == 0
    rows = _read_rows(tmp_path / "file_wins" / "scalability.csv")
    assert len(rows) == 2 and all(r["d0"] == "1/4" for r in rows)
    assert main([
        "scalability", "--config", str(cfg), "--d0", "1/8",
        "--n-list", "2", "--m-list", "3",
        "--backend", "numpy", "--mechanisms", "taco",
        "--out-dir", str(tmp_path / "flag_wins"),
    ]) == 0
    rows = _read_rows(tmp_path / "flag_wins" / "scalability.csv")
    assert all(r["d0"] == "1/8" for r in rows)


def test_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 3\n")
    assert main(["show-config", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "frobnicate" in err and f"{bad}:1:" in err
    junk = tmp_path / "junk.cfg"
    junk.write_text("no equals sign here\n")
    assert main(["show-config", "--config", str(junk)]) == 1
    assert f"{junk}:1: expected 'key = value'" in capsys.readouterr().err
    zero = tmp_path / "zero.cfg"
    zero.write_text("gamma = 1/0\n")
    assert main(["show-config", "--config", str(zero)]) == 1
    assert capsys.readouterr().err == (
        f"error: {zero}:1: gamma: exact amount '1/0' has a zero denominator\n"
    )


@pytest.mark.parametrize("line, message", [
    ("gamma = abc", "gamma: Invalid literal for Fraction: 'abc'"),
    ("d0 = 1/0", "d0: exact amount '1/0' has a zero denominator"),
    ("trials = many", "trials: invalid literal for int() with base 10: 'many'"),
    ("epsilon = tiny", "epsilon: could not convert string to float: 'tiny'"),
])
def test_bad_config_value_names_its_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# first line\n{line}\n")
    assert main(["show-config", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}:2: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["show-config", "--d0", "abc"],
    ["montecarlo", "--d0", "abc", "--out-dir", ""],
    ["example", "--d0", "abc", "--out", ""],
    ["bound", "--d0", "abc"],
])
def test_bad_flag_value_names_its_flag(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --d0: Invalid literal for Fraction: 'abc'\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["sweep-gamma", "--gammas", "1/2,1/0"], "--gammas: exact amount '1/0' has a zero denominator"),
    (["interrupt", "--steps", "natural,abc"], "--steps: invalid literal for int() with base 10: 'abc'"),
    (["scalability", "--n-list", "2,x"], "--n-list: invalid literal for int() with base 10: 'x'"),
    (["scalability", "--m-list", "y"], "--m-list: invalid literal for int() with base 10: 'y'"),
])
def test_bad_list_flag_item_names_its_flag(capsys, argv, message):
    assert main([*argv, "--trials", "1", "--out-dir", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [
    ("--n-list", "-1"), ("--m-list", "-3"), ("--n-list", "0"), ("--m-list", "0"),
])
def test_scalability_refuses_a_grid_size_below_one_before_any_trial(
    monkeypatch, capsys, flag, value
):
    # A negative size used to end in an OverflowError from the seed path,
    # and a zero one failed only inside the first trial.
    executed = []
    monkeypatch.setattr(experiments, "_execute", lambda points, w: executed.append(w))
    argv = ["scalability", "--n-list", "3", "--m-list", "3", flag, value, "--out-dir", ""]
    assert main(argv) == 1
    assert executed == []
    captured = capsys.readouterr()
    assert captured.err == f"error: n and m list entries must be at least 1, got {value}\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["montecarlo", "--mechanisms", "taco,taco"], "the mechanism list holds taco twice"),
    (["sweep-gamma", "--gammas", "9/10,0.9"], "the gamma list holds 9/10 twice"),
    (["interrupt", "--steps", "natural,0"], "the interruption step list holds 0 twice"),
    (["interrupt", "--steps", "5,5"], "the interruption step list holds 5 twice"),
    (["scalability", "--n-list", "3,3"], "the n list holds 3 twice"),
    (["scalability", "--m-list", "4,4"], "the m list holds 4 twice"),
])
def test_a_repeated_list_entry_is_refused_before_any_trial(monkeypatch, capsys, argv, message):
    # A repeated entry used to run its trials twice: three trials of
    # --mechanisms taco,taco gave quantiles over n=6 and every TACo row twice.
    executed = []
    monkeypatch.setattr(experiments, "_execute", lambda points, w: executed.append(w))
    assert main([*argv, "--trials", "3", "--out-dir", ""]) == 1
    assert executed == []
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_bound_near_gamma_one_is_counted_quickly(capsys):
    # About 7 million reductions: counted from logarithms, not one by one.
    start = time.perf_counter()
    assert main(["bound", "--epsilon", "1e-30", "--gamma", "99999/100000"]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "trading-unit reductions until guaranteed tolerance: 7035814" in out


def test_show_config_defaults(capsys):
    assert main(["show-config"]) == 0
    out = capsys.readouterr().out
    assert "scenario = waypoint" in out
    assert "d0 = 1/50" in out
    assert "epsilon = none" in out
    assert "trials = 1000" in out


def test_show_config_flag_override(capsys):
    assert main(["show-config", "--d0", "1/8", "--mechanisms", "taco"]) == 0
    out = capsys.readouterr().out
    assert "d0 = 1/8" in out
    assert "mechanisms = taco" in out


# A value other than its default for every configuration key, so that reading
# show-config's output back exercises the parser of each key type.
NON_DEFAULT_FLAGS = {
    "scenario": "random", "n": "5", "m": "6", "trials": "7", "base_seed": "8",
    "gamma": "3/10", "d0": "1/7", "epsilon_rel": "0.01", "max_steps": "500",
    "history_cap": "400", "mechanisms": "taco,voting", "separation": "2.5",
    "k_min": "0.25", "k_max": "3.0", "b_min": "0.75", "b_max": "2.25", "workers": "2",
    "backend": "exact", "out_dir": "elsewhere",
}


def test_show_config_output_is_a_valid_config_file(tmp_path, capsys):
    default = ExperimentConfig()
    for epsilon in ("0.125", "none"):
        flags = dict(NON_DEFAULT_FLAGS, epsilon=epsilon)
        assert flags.keys() == default.__dataclass_fields__.keys()
        argv = [arg for key, val in flags.items() for arg in (f"--{key.replace('_', '-')}", val)]
        assert main(["show-config", *argv]) == 0
        text = capsys.readouterr().out
        cfg_file = tmp_path / "echo.cfg"
        cfg_file.write_text(text)
        values = load_config_file(cfg_file)
        assert values["gamma"] == "3/10" or str(values["gamma"]) == "3/10"
        cfg = ExperimentConfig(**values)
        assert cfg == ExperimentConfig(
            scenario="random", n=5, m=6, trials=7, base_seed=8, gamma=Fraction(3, 10),
            d0=Fraction(1, 7), epsilon=None if epsilon == "none" else 0.125,
            epsilon_rel=0.01, max_steps=500, history_cap=400, mechanisms=("taco", "voting"),
            separation=2.5, k_min=0.25, k_max=3.0, b_min=0.75, b_max=2.25, workers=2,
            backend="exact", out_dir="elsewhere",
        )
        changed = [key for key in flags if getattr(cfg, key) != getattr(default, key)]
        assert changed == [key for key in flags if key != "epsilon" or epsilon != "none"]
        assert main(["show-config", "--config", str(cfg_file)]) == 0
        assert capsys.readouterr().out == text


def test_show_config_rejects_unknown_backend(capsys):
    assert main(["show-config", "--backend", "fancy"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown backend 'fancy'")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_montecarlo_rejects_unknown_backend_before_any_trial(tmp_path, capsys, workers):
    assert main([
        "montecarlo", "--backend", "numba", "--trials", "3", "--workers", workers,
        "--out-dir", str(tmp_path),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown backend 'numba'")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


BAD_CAPS = [
    ("--history-cap", "1", "history_cap must be at least 2, got 1"),
    ("--max-steps", "0", "max_steps must be at least 1, got 0"),
    ("--epsilon", "inf", "epsilon must be a positive finite real, got inf"),
    ("--epsilon-rel", "nan", "epsilon_rel must be a positive finite real, got nan"),
    ("--d0", "1/0", "exact amount '1/0' has a zero denominator"),
    ("--m", "0", "m must be at least 1, got 0"),
    ("--n", "0", "the waypoint scenario needs n >= 2, got n=0"),
    ("--k-max", "inf", "k_max must be finite, got inf"),
    ("--b-max", "inf", "b_max must be finite, got inf"),
    ("--separation", "inf", "separation must be finite, got inf"),
    ("--separation", "1e308", "separation must keep n * separation finite, got 4 * 1e+308"),
]


def _bad_cap_error(flag, message):
    # A value that does not parse is reported with its flag; a value out of
    # range is named by the check that refuses it.
    return f"error: {flag}: {message}\n" if flag == "--d0" else f"error: {message}\n"


@pytest.mark.parametrize("flag, value, message", BAD_CAPS)
def test_show_config_rejects_bad_caps(capsys, flag, value, message):
    assert main(["show-config", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == _bad_cap_error(flag, message)
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, message", BAD_CAPS)
@pytest.mark.parametrize("workers", ["1", "2"])
def test_montecarlo_rejects_bad_caps_before_any_trial(
    tmp_path, monkeypatch, capsys, workers, flag, value, message
):
    # These would fail only inside the trials: the engine's checks at the
    # first TACo trial, after instance generation, and a size below one or an
    # infinite range in instance generation itself, as a ZeroDivisionError or
    # an OverflowError traceback. The experiment config refuses them first.
    executed = []
    execute = experiments._execute
    monkeypatch.setattr(
        experiments, "_execute", lambda points, w: executed.append(w) or execute(points, w)
    )
    assert main([
        "montecarlo", flag, value, "--trials", "3", "--workers", workers,
        "--out-dir", str(tmp_path),
    ]) == 1
    assert executed == []
    captured = capsys.readouterr()
    assert captured.err == _bad_cap_error(flag, message)
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_montecarlo_names_epsilon_rel_when_the_instance_tolerance_overflows(capsys):
    # epsilon_rel = 1e308 passes the config check, but times mean(C) it is inf;
    # the error names the setting the user gave, not the engine's epsilon.
    assert main(["montecarlo", "--epsilon-rel", "1e308", "--trials", "2", "--out-dir", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: trial 0: epsilon_rel * mean(C) = 1e+308 * ")
    assert captured.err.endswith(" = inf is not a positive finite tolerance\n")
    assert captured.out == ""


def test_show_config_rejects_unknown_backend_from_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("TACO_BACKEND", "fancy")
    assert main(["show-config"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown backend 'fancy'")
    assert captured.out == ""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_montecarlo_rejects_unknown_environment_backend_before_any_trial(
    tmp_path, monkeypatch, capsys, workers
):
    # "auto" defers to TACO_BACKEND; the name must fail before any trial runs.
    executed = []
    execute = experiments._execute
    monkeypatch.setattr(
        experiments, "_execute", lambda points, w: executed.append(w) or execute(points, w)
    )
    monkeypatch.setenv("TACO_BACKEND", "fancy")
    assert main([
        "montecarlo", "--trials", "3", "--workers", workers, "--out-dir", str(tmp_path),
    ]) == 1
    assert executed == []
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown backend 'fancy'")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_environment_backend_leaves_the_summary_header_as_configured(monkeypatch, capsys):
    monkeypatch.setenv("TACO_BACKEND", "exact")
    assert main(["show-config"]) == 0
    assert "backend = auto" in capsys.readouterr().out


def test_help_and_bad_invocations(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
