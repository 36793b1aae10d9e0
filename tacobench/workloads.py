"""The four benchmark workloads, built through the public tacosim API.

Each workload is a function of the run seed and a size; ``prepare`` builds its
inputs and returns the timed call. The call returns a ``CallResult`` with the
counts the end-to-end metrics need and digests of everything it wrote, so the
gate can compare outputs without keeping them.

Only the two Monte Carlo workloads draw their instances from the seed. The
scalability cell and the long window replay fixed inputs, for the reasons
given in ``tacobench/README.md``.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("montecarlo", "montecarlo_pool", "scalability_large", "long_window")

# Workers of each workload's own call; "montecarlo_pool" is the only one that
# goes through the process pool.
WORKERS = {"montecarlo": 1, "montecarlo_pool": 2, "scalability_large": 1, "long_window": 1}

# Workloads whose instances depend on the seed. The others replay fixed inputs.
SEEDED = ("montecarlo", "montecarlo_pool")

# The default grid's base seed: scalability_large replays its (10, 100) cell.
GRID_SEED = 42

# "full" is the benchmark; "tiny" exists for the self-test.
SIZES = {
    "full": {"mc_trials": 1000, "gate_trials": 100, "exact_trials": 8,
             "cell": (10, 100), "cell_trials": 20, "long_denominator": 60000},
    "tiny": {"mc_trials": 12, "gate_trials": 6, "exact_trials": 2,
             "cell": (5, 20), "cell_trials": 3, "long_denominator": 2000},
}


@dataclass
class CallResult:
    trials: int          # seed points completed: every mechanism ran and rows were written
    steps: int           # TACo steps summed over the outcomes
    failed: int          # trials with a row whose status is not "ok"
    csv_sha256: str      # "" when the workload writes no CSV
    summary_sha256: str  # summary file, or the outcome text for long_window
    csv_bytes: int


def run_seed(seed: int) -> int:
    """The experiments' base seed for a run seed (base seeds are nonnegative)."""
    return seed % 2**32


def prepare(workload: str, seed: int, size: str, out_dir: Path, *, workers: int | None = None,
            trials: int | None = None, backend: str | None = None):
    """Build the workload's inputs and return its timed call (no arguments).

    ``workers`` overrides the workload's own worker count; long_window is one
    ``run_taco`` call and ignores it, as the experiment layer runs a single
    point in-process too. ``trials`` overrides a Monte Carlo sweep's trial
    count, and ``backend`` the long window's engine backend.
    """
    from tacosim import experiments

    sz = SIZES[size]
    if workers is None:
        workers = WORKERS[workload]
    if workload in ("montecarlo", "montecarlo_pool"):
        cfg = experiments.ExperimentConfig(
            trials=trials or sz["mc_trials"], base_seed=run_seed(seed), workers=workers)
        return lambda: _sweep(lambda: experiments.run_montecarlo(cfg, out_dir), cfg, out_dir)
    if workload == "scalability_large":
        n, m = sz["cell"]
        cfg = experiments.ExperimentConfig(
            scenario="random", d0=Fraction(1), epsilon=0.1,
            trials=sz["cell_trials"], base_seed=GRID_SEED, workers=workers)
        return lambda: _sweep(
            lambda: experiments.run_scalability(cfg, [n], [m], out_dir), cfg, out_dir)
    if workload == "long_window":
        from tacosim import engine, scenario

        agents = scenario.example2_fixture().agents()
        config = engine.TacoConfig(
            epsilon=1e-6, d0=Fraction(1, sz["long_denominator"]), gamma=Fraction(9, 10))
        kw = {} if backend is None else {"backend": backend}
        # Looked up at call time so that a tracer's wrapper is seen.
        return lambda: _outcome_result(engine.run_taco(config, agents, **kw))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _sweep(run, cfg, out_dir: Path) -> CallResult:
    result = run()
    mechanisms = len(cfg.mechanisms)
    rows_per_trial: dict[tuple, int] = {}
    failed_trials = set()
    steps = 0
    for row in result.rows:
        key = (row["n"], row["m"], row["trial"])
        rows_per_trial[key] = rows_per_trial.get(key, 0) + 1
        if row.get("status") != "ok":
            failed_trials.add(key)
        elif row["mechanism"] == "taco":
            steps += int(row["steps"])
    complete = sum(1 for c in rows_per_trial.values() if c == mechanisms)
    csv_bytes = result.csv_path.read_bytes()
    summary_bytes = result.summary_path.read_bytes()
    shutil.rmtree(out_dir)
    return CallResult(
        trials=complete,
        steps=steps,
        failed=len(failed_trials),
        csv_sha256=hashlib.sha256(csv_bytes).hexdigest(),
        summary_sha256=hashlib.sha256(summary_bytes).hexdigest(),
        csv_bytes=len(csv_bytes),
    )


def outcome_text(outcome) -> str:
    """The facts two backends must agree on, as canonical text."""
    settlements = ",".join(str(s) for s in outcome.settlements)
    return (
        f"steps={outcome.steps}\nconsensus={outcome.consensus_choice}\n"
        f"settlements={settlements}\ncycles={outcome.cycles_detected}\n"
        f"final_d={outcome.final_d}\n"
    )


def _outcome_result(outcome) -> CallResult:
    text = outcome_text(outcome).encode()
    return CallResult(
        trials=1,
        steps=outcome.steps,
        failed=0 if outcome.terminated_naturally else 1,
        csv_sha256="",
        summary_sha256=hashlib.sha256(text).hexdigest(),
        csv_bytes=0,
    )


def exact_pairs(seed: int, size: str):
    """(config, agents) of the montecarlo instances the exact backend re-runs.

    These are the first trials of the run's own sweep, built the way
    ``experiments`` builds them (instance stream 0 of the trial's seed path).
    """
    import numpy as np
    from tacosim import engine, experiments

    cfg = experiments.ExperimentConfig(base_seed=run_seed(seed))
    pairs = []
    for t in range(SIZES[size]["exact_trials"]):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed, t, 0]))
        problem, eps = experiments.make_instance(cfg, rng)
        pairs.append((engine.TacoConfig(epsilon=eps, d0=cfg.d0, gamma=cfg.gamma),
                      problem.agents()))
    return pairs
