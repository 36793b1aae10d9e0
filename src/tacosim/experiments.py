"""Experiment driver: deterministic seeded trials, CSV emission, summaries.

Every command reduces to a list of points (trial x parameter variation) that
are independent given their seed paths, so they can run in a process pool;
rows are assembled in submission order, which makes output byte-identical
regardless of worker count.

Seeding rule: each point owns a seed path, a tuple of integers starting with
the base seed (montecarlo/sweep/interrupt: (base_seed, trial); scalability:
(base_seed, n, m, trial)). Stream k of a point is
numpy.random.default_rng(SeedSequence(path + (k,))) with k=0 for instance
sampling, k=1 for voting tie-breaks, k=2 for the random dictator. The CSV
"seed" column is SeedSequence(path).generate_state(1)[0].
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import baselines, metrics, scenario
from ._fastpath import resolve_backend
from .agent import profit_row
from .board import apply_selection, exact, new_board, reduce_trading_unit
from .engine import TacoConfig, TacoOutcome, run_interrupted, run_taco
from .errors import HistoryLimitError, NoTerminationError
from .metrics import TrialResult, baseline_trial_result, taco_trial_result

SCHEMA_VERSION = 1

MECHANISMS = ("taco", "voting", "random_dictator", "utilitarian", "egalitarian")
SCENARIOS = ("waypoint", "random", "example2")

# Metrics summarized per mechanism in every summary file.
SUMMARY_METRICS = (
    "og_raw",
    "og_settled",
    "gini_raw",
    "gini_settled",
    "steps",
    "rounds",
    "cycles",
    "max_cycle_spread_ratio",
)

# Row statuses of a TACo trial that hit a safety cap: the step cap, or the
# engine's state-history cap. Such a row carries no metrics.
FAILED_STATUSES = ("cap", "history_cap")


@dataclass
class ExperimentConfig:
    """Flat experiment parameters; every field is a show-config key.

    epsilon is an absolute termination tolerance; when None, each instance
    uses epsilon_rel * mean(C), keeping the tolerance at the instance's cost
    scale. The waypoint scenario ignores m (m = n! options).

    The default trading unit is sized against the waypoint cost scale: units
    comparable to the cost gaps make everyone pile onto one option within a
    couple of rounds, while 1/50 leaves room for actual price negotiation
    (measured median around 73 steps at n=4). Commands that need a different
    unit (the scalability grid, the worked example) override it explicitly.
    """

    scenario: str = "waypoint"
    n: int = 4
    m: int = 24
    trials: int = 1000
    base_seed: int = 42
    gamma: Fraction = Fraction(9, 10)
    d0: Fraction = Fraction(1, 50)
    epsilon: float | None = None
    epsilon_rel: float = 1e-3
    max_steps: int = 10**6
    history_cap: int = 10**6
    mechanisms: tuple[str, ...] = MECHANISMS
    separation: float = 1.0
    k_min: float = 0.5
    k_max: float = 2.0
    b_min: float = 0.5
    b_max: float = 1.5
    workers: int = 1
    backend: str = "auto"
    out_dir: str = "results"

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        self.n = int(self.n)
        self.m = int(self.m)
        self.trials = int(self.trials)
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        self.base_seed = int(self.base_seed)
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be nonnegative, got {self.base_seed}")
        self.gamma = exact(self.gamma)
        if not (0 < self.gamma < 1):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        self.d0 = exact(self.d0)
        if self.d0 <= 0:
            raise ValueError(f"d0 must be positive, got {self.d0}")
        # The engine's own checks (TacoConfig), here so that they fail before
        # any trial runs.
        if self.epsilon is not None:
            self.epsilon = float(self.epsilon)
            if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
                raise ValueError(f"epsilon must be a positive finite real, got {self.epsilon}")
        self.epsilon_rel = float(self.epsilon_rel)
        if not (self.epsilon_rel > 0 and math.isfinite(self.epsilon_rel)):
            raise ValueError(
                f"epsilon_rel must be a positive finite real, got {self.epsilon_rel}"
            )
        self.max_steps = int(self.max_steps)
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        self.history_cap = int(self.history_cap)
        if self.history_cap < 2:
            raise ValueError(f"history_cap must be at least 2, got {self.history_cap}")
        self.mechanisms = tuple(self.mechanisms)
        for mech in self.mechanisms:
            if mech not in MECHANISMS:
                raise ValueError(f"unknown mechanism {mech!r}; expected subset of {MECHANISMS}")
        if not self.mechanisms:
            raise ValueError("at least one mechanism is required")
        self.workers = int(self.workers)
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        # An unknown name fails here, before any trial; "auto" defers to
        # TACO_BACKEND at run time, so that name is checked too.
        resolve_backend(None if self.backend == "auto" else self.backend)
        if not (self.k_min > 0 and self.k_max >= self.k_min):
            raise ValueError("urgency range must satisfy 0 < k_min <= k_max")
        if not (self.b_min > 0 and self.b_max >= self.b_min):
            raise ValueError("valuation range must satisfy 0 < b_min <= b_max")
        if not float(self.separation) > 0:
            raise ValueError(f"separation must be positive, got {self.separation}")


@dataclass
class RunResult:
    rows: list[dict]
    columns: list[str]
    csv_path: Path | None
    summary_path: Path | None
    summary_text: str
    failures: int


@dataclass(frozen=True)
class _Point:
    """One schedulable unit: a single trial under one parameter variation."""

    cfg: ExperimentConfig
    trial: int
    seed_path: tuple[int, ...]
    interrupt_step: int  # 0 = run to natural termination


def make_instance(cfg: ExperimentConfig, rng: np.random.Generator):
    """Sample the trial instance and resolve its absolute epsilon."""
    if cfg.scenario == "waypoint":
        problem = scenario.random_waypoint_problem(
            cfg.n, rng, D=cfg.separation, k_range=(cfg.k_min, cfg.k_max),
            b_range=(cfg.b_min, cfg.b_max),
        )
    elif cfg.scenario == "random":
        problem = scenario.random_problem(cfg.n, cfg.m, rng)
    else:
        problem = scenario.example2_fixture()
    if cfg.epsilon is not None:
        eps = cfg.epsilon
    else:
        eps = cfg.epsilon_rel * float(problem.C.mean())
    return problem, eps


def _seed_column(path: tuple[int, ...]) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def _stream(path: tuple[int, ...], k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(path) + [k]))


def _run_point(point: _Point) -> list[dict]:
    cfg = point.cfg
    problem, eps = make_instance(cfg, _stream(point.seed_path, 0))
    base = {
        "trial": point.trial,
        "seed": _seed_column(point.seed_path),
        "n": problem.n,
        "m": problem.m,
        "gamma": str(cfg.gamma),
        "epsilon": repr(float(eps)),
        "d0": str(cfg.d0),
        "interrupt_step": point.interrupt_step,
    }
    raw_keys = [f"raw_cost_{i + 1}" for i in range(problem.n)]
    settled_keys = [f"settled_cost_{i + 1}" for i in range(problem.n)]
    rows = []
    for mech in cfg.mechanisms:
        row = dict(base)
        row["mechanism"] = mech
        if mech == "taco":
            taco_cfg = TacoConfig(
                epsilon=eps, d0=cfg.d0, gamma=cfg.gamma,
                max_steps=cfg.max_steps, history_cap=cfg.history_cap,
            )
            backend = None if cfg.backend == "auto" else cfg.backend
            try:
                if point.interrupt_step > 0:
                    outcome = run_interrupted(
                        taco_cfg, problem.agents(), point.interrupt_step, backend=backend
                    )
                else:
                    outcome = run_taco(taco_cfg, problem.agents(), backend=backend)
            except NoTerminationError:
                row["status"] = "cap"
                row["steps"] = cfg.max_steps
                rows.append(row)
                continue
            except HistoryLimitError:
                row["status"] = "history_cap"
                rows.append(row)
                continue
            result = taco_trial_result(problem, outcome)
        elif mech == "voting":
            result = baseline_trial_result(
                problem, mech, baselines.voting(problem, _stream(point.seed_path, 1))
            )
        elif mech == "random_dictator":
            result = baseline_trial_result(
                problem, mech, baselines.random_dictator(problem, _stream(point.seed_path, 2))
            )
        elif mech == "utilitarian":
            result = baseline_trial_result(problem, mech, baselines.utilitarian(problem))
        else:
            result = baseline_trial_result(problem, mech, baselines.egalitarian(problem))
        row["status"] = "ok"
        row["chosen_option"] = result.chosen_option
        row["steps"] = result.steps
        row["rounds"] = result.rounds
        row["cycles"] = result.cycles_detected
        row["og_raw"] = _fmt(result.og_raw)
        row["og_settled"] = _fmt(result.og_settled)
        row["gini_raw"] = _fmt(result.gini_raw)
        row["gini_settled"] = _fmt(result.gini_settled)
        row["max_cycle_spread_ratio"] = _fmt(result.max_cycle_spread_ratio)
        row.update(zip(raw_keys, map(_fmt, result.raw_costs.tolist())))
        row.update(zip(settled_keys, map(_fmt, result.settled_costs.tolist())))
        rows.append(row)
    return rows


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else repr(float(x))


def _execute(points: list[_Point], workers: int) -> list[dict]:
    if workers > 1 and len(points) > 1:
        # Imported here: multiprocessing is ~18 ms of a serial sweep's start-up.
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(points) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_run_point, points, chunksize=chunk))
    else:
        nested = [_run_point(p) for p in points]
    return [row for rows in nested for row in rows]


def columns_for(rows: list[dict]) -> list[str]:
    max_n = max((r["n"] for r in rows), default=0)
    cols = [
        "trial", "seed", "mechanism", "n", "m", "gamma", "epsilon", "d0",
        "chosen_option", "steps", "rounds", "cycles", "status",
        "og_raw", "og_settled", "gini_raw", "gini_settled", "max_cycle_spread_ratio",
    ]
    cols += [f"raw_cost_{i + 1}" for i in range(max_n)]
    cols += [f"settled_cost_{i + 1}" for i in range(max_n)]
    cols.append("interrupt_step")
    return cols


def write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _quantiles(values: list[float]) -> str:
    arr = np.array(values, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return "n=0"
    q1, med, q3 = np.percentile(arr, [25, 50, 75], method="linear")
    return (
        f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
        f"max={arr.max():.6g} mean={arr.mean():.6g} std={arr.std(ddof=1) if arr.size > 1 else 0.0:.6g} n={arr.size}"
    )


def _failures(rows) -> int:
    return sum(1 for r in rows if r.get("status") in FAILED_STATUSES)


def summarize(rows: list[dict], group_keys: tuple[str, ...], header_lines: list[str]) -> str:
    """Structured text: quantile lines per (group, mechanism, metric)."""
    lines = [f"csv_schema_version = {SCHEMA_VERSION}"]
    lines += header_lines
    # One pass: groups and their mechanisms in order of first appearance.
    groups: dict[tuple, dict[str, list[dict]]] = {}
    trials = set()
    for r in rows:
        key = tuple(r.get(k) for k in group_keys)
        groups.setdefault(key, {}).setdefault(r["mechanism"], []).append(r)
        trials.add((key, r["trial"]))
    lines.append(f"trials_total = {len(trials)}")
    lines.append(f"cap_failures = {_failures(rows)}")
    for key, by_mech in groups.items():
        tag = " ".join(f"{k}={v}" for k, v in zip(group_keys, key))
        for mech, mrows in by_mech.items():
            section = f"[{mech}]" if not tag else f"[{tag} {mech}]"
            lines.append("")
            lines.append(section)
            group_failures = _failures(mrows)
            if group_failures:
                lines.append(f"cap_failures = {group_failures}")
            ok = [r for r in mrows if r.get("status") == "ok"]
            for metric in SUMMARY_METRICS:
                vals = [float(v) for r in ok if (v := r.get(metric, "")) != "" and v is not None]
                if vals:
                    lines.append(f"{metric}: {_quantiles(vals)}")
    return "\n".join(lines) + "\n"


def _finalize(
    rows: list[dict],
    out_dir: Path | None,
    name: str,
    group_keys: tuple[str, ...],
    header_lines: list[str],
) -> RunResult:
    columns = columns_for(rows)
    summary = summarize(rows, group_keys, header_lines)
    failures = _failures(rows)
    csv_path = summary_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        csv_path = out_dir / f"{name}.csv"
        write_csv(csv_path, rows, columns)
        summary_path = out_dir / f"{name}_summary.txt"
        summary_path.parent.mkdir(parents=True, exist_ok=True)
        summary_path.write_text(summary)
    return RunResult(rows, columns, csv_path, summary_path, summary, failures)


def config_lines(cfg: ExperimentConfig) -> list[str]:
    out = []
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if f.name == "mechanisms":
            val = ",".join(val)
        elif val is None:
            val = "none"
        out.append(f"{f.name} = {val}")
    return out


def run_montecarlo(cfg: ExperimentConfig, out_dir: Path | None = None) -> RunResult:
    """All configured mechanisms on the same per-trial instances."""
    points = [
        _Point(cfg, t, (cfg.base_seed, t), 0) for t in range(cfg.trials)
    ]
    rows = _execute(points, cfg.workers)
    header = ["command = montecarlo"] + config_lines(cfg)
    return _finalize(rows, out_dir, "montecarlo", (), header)


def run_sweep_gamma(cfg: ExperimentConfig, gammas, out_dir: Path | None = None) -> RunResult:
    """Monte Carlo per gamma; trial t sees the identical instance at every gamma."""
    gammas = [exact(g) for g in gammas]
    if not gammas:
        raise ValueError("gamma list must be nonempty")
    points = []
    for g in gammas:
        gcfg = dataclasses.replace(cfg, gamma=g)
        points += [_Point(gcfg, t, (cfg.base_seed, t), 0) for t in range(cfg.trials)]
    rows = _execute(points, cfg.workers)
    header = [
        "command = sweep-gamma",
        "gamma_list = " + ",".join(str(g) for g in gammas),
    ] + config_lines(cfg)
    return _finalize(rows, out_dir, "sweep_gamma", ("gamma",), header)


def run_interrupt(cfg: ExperimentConfig, steps, out_dir: Path | None = None) -> RunResult:
    """Forced-interruption sweep; step 0 means natural termination."""
    steps = [int(s) for s in steps]
    if not steps:
        raise ValueError("interruption step list must be nonempty")
    for s in steps:
        if s < 0:
            raise ValueError(f"interruption steps must be >= 0, got {s}")
    points = []
    for s in steps:
        points += [_Point(cfg, t, (cfg.base_seed, t), s) for t in range(cfg.trials)]
    rows = _execute(points, cfg.workers)
    header = [
        "command = interrupt",
        "interrupt_steps = " + ",".join(str(s) for s in steps),
    ] + config_lines(cfg)
    return _finalize(rows, out_dir, "interrupt", ("interrupt_step",), header)


def run_scalability(cfg: ExperimentConfig, n_list, m_list, out_dir: Path | None = None) -> RunResult:
    """Grid over (n, m) with random Uniform(0,1) instances."""
    n_list = [int(v) for v in n_list]
    m_list = [int(v) for v in m_list]
    if not n_list or not m_list:
        raise ValueError("n and m lists must be nonempty")
    points = []
    for n in n_list:
        for m in m_list:
            cell = dataclasses.replace(cfg, scenario="random", n=n, m=m)
            points += [
                _Point(cell, t, (cfg.base_seed, n, m, t), 0) for t in range(cfg.trials)
            ]
    rows = _execute(points, cfg.workers)
    header = [
        "command = scalability",
        "n_list = " + ",".join(str(v) for v in n_list),
        "m_list = " + ",".join(str(v) for v in m_list),
    ] + config_lines(cfg)
    return _finalize(rows, out_dir, "scalability", ("n", "m"), header)


@dataclass
class ExampleStep:
    """One display row of the worked two-agent run: matrices before the
    update, the full profit matrix, and the selections after the step."""

    step: int
    agent: int
    offers: list[list[Fraction]]
    pays: list[list[Fraction]]
    profits: np.ndarray
    selections: list[int | None]


@dataclass
class ExampleRun:
    steps: list[ExampleStep]
    outcome: TacoOutcome
    detected_spans: list[tuple[int, int]]


def run_example(epsilon: float = 1e-6, d0=1, gamma=Fraction(9, 10)) -> ExampleRun:
    """Run the two-agent fixture on the exact backend and replay it for display.

    The replay rebuilds the board step by step with the board operations,
    reducing the trading unit at the end of each cycle the engine recorded,
    and recomputes every agent's profit row from the rational board.
    """
    problem = scenario.example2_fixture()
    agents = problem.agents()
    config = TacoConfig(epsilon=epsilon, d0=d0, gamma=gamma)
    outcome = run_taco(config, agents, backend="exact")
    cycle_ends = {cyc.end_step for cyc in outcome.cycle_records}
    board = new_board(problem.n, problem.m, config.d0)
    steps: list[ExampleStep] = []
    for ts in outcome.trace:
        offers_pre = [row[:] for row in board.offers]
        pays_pre = [row[:] for row in board.pays]
        profits = np.stack([profit_row(agents[i], board) for i in range(problem.n)])
        board.selections[ts.agent] = ts.selection
        steps.append(
            ExampleStep(ts.step, ts.agent, offers_pre, pays_pre, profits,
                        list(board.selections))
        )
        if ts.step in cycle_ends:
            reduce_trading_unit(board, config.gamma)
        # The terminating turn's update is dropped by the engine, but nothing
        # reads the board after the last step.
        apply_selection(board, ts.agent, ts.selection)
    spans = [(cyc.start_step, cyc.end_step) for cyc in outcome.cycle_records]
    return ExampleRun(steps=steps, outcome=outcome, detected_spans=spans)


def bound_report(n: int, m: int, gamma, epsilon: float, d0, b_max: float) -> str:
    """Human-readable rendering of the analytic termination bound."""
    bound = metrics.termination_bound(n, m, gamma, epsilon, d0, b_max)
    lines = [
        f"n = {n}, m = {m}, gamma = {exact(gamma)}, epsilon = {epsilon}, "
        f"d0 = {exact(d0)}, b_max = {b_max}",
        f"trading-unit reductions until guaranteed tolerance: {bound.cycle_count}",
    ]
    digits = bound.log_per_cycle / math.log(10)
    if digits < 18:
        per_cycle = n * ((m + 1) * (n - 1)) ** (n * m)
        lines.append(f"per-cycle step bound: {per_cycle}")
        lines.append(f"total step bound: {bound.cycle_count * per_cycle}")
    else:
        lines.append(
            f"per-cycle step bound: ~10^{digits:.2f} (ln = {bound.log_per_cycle:.4f})"
        )
        if bound.cycle_count > 0:
            lines.append(
                f"total step bound: ~10^{bound.log_total / math.log(10):.2f} "
                f"(ln = {bound.log_total:.4f})"
            )
        else:
            lines.append("total step bound: 0")
    return "\n".join(lines) + "\n"
