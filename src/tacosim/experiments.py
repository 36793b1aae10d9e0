"""Experiment driver: deterministic seeded trials, CSV emission, summaries.

Every command reduces to a list of points (trial x parameter variation) that
are independent given their seed paths, so they can run in a process pool;
records are assembled in submission order, which makes output byte-identical
regardless of worker count.

A point returns one record per mechanism: a tuple in CSV column order for the
instance's own n (``record_columns``). Ints stay ints, ``gamma`` and ``d0``
are exact rational strings, float cells are Python floats, and a blank cell
(an undefined metric, a capped trial's missing fields) is None. The cost cells
are ``repr`` strings, formatted once per option column of a trial and shared
by every mechanism that picked it. ``write_csv`` joins a record's cells
with "," and ends the line with "\\r\\n", None as an empty cell and any other
cell as its ``str`` (a float's ``repr``): ``csv.writer``'s bytes, as no cell
needs quoting. The summary reads the floats as they are.

Seeding rule: each point owns a seed path, a tuple of integers starting with
the base seed (montecarlo/sweep/interrupt: (base_seed, trial); scalability:
(base_seed, n, m, trial)). Stream k of a point is numpy's
default_rng(SeedSequence(path + (k,))), a PCG64 stream, with k=0 for
instance sampling, k=1 for voting tie-breaks, k=2 for the random dictator.
The CSV "seed" column is SeedSequence(path).generate_state(1)[0]. Both are
computed in Python ints (``_rng``) and tested against numpy, so a CSV does
not depend on the installed numpy: NEP 19 fixes a bit generator's stream
across numpy versions, but not the ``Generator`` methods that turn it into
draws.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import _rng, baselines, engine, scenario
from .board import exact
from .engine import TacoConfig, resolve_backend, run_interrupted, run_taco
from .errors import HistoryLimitError, NoTerminationError
from .metrics import TrialResult, _stats, baseline_trial_result, taco_trial_result

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

# The CSV columns ahead of the two cost blocks (raw_cost_1..n, then
# settled_cost_1..n); interrupt_step is the last column.
HEAD_COLUMNS = (
    "trial", "seed", "mechanism", "n", "m", "gamma", "epsilon", "d0",
    "chosen_option", "steps", "rounds", "cycles", "status",
    "og_raw", "og_settled", "gini_raw", "gini_settled", "max_cycle_spread_ratio",
)
# A column's index in a record; interrupt_step is last at every n.
_AT = {name: i for i, name in enumerate(HEAD_COLUMNS)} | {"interrupt_step": -1}
_N = _AT["n"]
_STATUS = _AT["status"]
_SUMMARY_AT = tuple((metric, _AT[metric]) for metric in SUMMARY_METRICS)


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
        least = 2 if self.scenario == "waypoint" else 1  # a waypoint needs two arrivals
        if self.n < least:
            raise ValueError(f"the {self.scenario} scenario needs n >= {least}, got n={self.n}")
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        self.trials = int(self.trials)
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        self.base_seed = int(self.base_seed)
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be nonnegative, got {self.base_seed}")
        # The engine's own checks (TacoConfig), here so that they fail before
        # any trial runs.
        self.d0, self.gamma, self.epsilon, self.max_steps, self.history_cap = (
            engine.check_run_params(
                self.d0, self.gamma, self.epsilon, self.max_steps, self.history_cap
            )
        )
        self.epsilon_rel = float(self.epsilon_rel)
        if not (self.epsilon_rel > 0 and math.isfinite(self.epsilon_rel)):
            raise ValueError(
                f"epsilon_rel must be a positive finite real, got {self.epsilon_rel}"
            )
        self.mechanisms = _list_entries(tuple(self.mechanisms), "mechanism")
        for mech in self.mechanisms:
            if mech not in MECHANISMS:
                raise ValueError(f"unknown mechanism {mech!r}; expected subset of {MECHANISMS}")
        self.workers = int(self.workers)
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        # An unknown name fails here, before any trial; "auto" defers to
        # TACO_BACKEND, so that name is checked too.
        resolve_backend(self.backend)
        # An infinite range would fail every trial's draws instead.
        for key in ("k_min", "k_max", "b_min", "b_max", "separation"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not math.isfinite(self.n * self.separation):
            raise ValueError(
                f"separation must keep n * separation finite, got {self.n} * {self.separation}"
            )
        if not (self.k_min > 0 and self.k_max >= self.k_min):
            raise ValueError("urgency range must satisfy 0 < k_min <= k_max")
        if not (self.b_min > 0 and self.b_max >= self.b_min):
            raise ValueError("valuation range must satisfy 0 < b_min <= b_max")
        if not float(self.separation) > 0:
            raise ValueError(f"separation must be positive, got {self.separation}")


class Row(Mapping):
    """A read-only view of one record, keyed by its sweep's columns."""

    __slots__ = ("_record", "_at")

    def __init__(self, record: tuple, at: dict[str, int]):
        self._record = record
        self._at = at

    def __getitem__(self, key):
        return self._record[self._at[key]]

    def __iter__(self):
        return iter(self._at)

    def __len__(self):
        return len(self._at)

    def __repr__(self):
        return f"Row({dict(self)})"


@dataclass
class RunResult:
    """A sweep's records and output.

    ``records`` holds one tuple per (trial, mechanism) in ``columns`` order
    (see the module docstring); ``rows`` holds one read-only mapping per
    record, keyed by ``columns``: a view over ``records``, built on first
    access (``dict(row)`` is a mutable copy).
    """

    records: list[tuple]
    columns: list[str]
    csv_path: Path | None
    summary_path: Path | None
    summary_text: str
    failures: int

    @functools.cached_property
    def rows(self) -> list[Row]:
        at = {name: i for i, name in enumerate(self.columns)}
        return [Row(r, at) for r in self.records]


@dataclass(frozen=True)
class _Point:
    """One schedulable unit: a single trial under one parameter variation."""

    cfg: ExperimentConfig
    trial: int
    seed_path: tuple[int, ...]
    interrupt_step: int  # 0 = run to natural termination


def make_instance(cfg: ExperimentConfig, rng, trial: int | None = None):
    """Sample the trial instance and resolve its absolute epsilon.

    A relative tolerance that does not give a positive finite epsilon on
    this instance is refused, naming ``trial`` when given.
    """
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
        return problem, cfg.epsilon
    # numpy's C.mean(): the pairwise sum of C in row-major order, over n*m.
    mean = baselines._sum(list(itertools.chain(*problem.rows))) / (problem.n * problem.m)
    eps = cfg.epsilon_rel * mean
    if not (eps > 0 and math.isfinite(eps)):
        where = "" if trial is None else f"trial {trial}: "
        raise ValueError(
            f"{where}epsilon_rel * mean(C) = {cfg.epsilon_rel!r} * {mean!r} = {eps!r} "
            "is not a positive finite tolerance"
        )
    return problem, eps


def _seed_column(path: tuple[int, ...]) -> int:
    return _rng.seed_words(path, 1)[0]


def _stream(path: tuple[int, ...], k: int) -> _rng.Stream:
    return _rng.Stream(path + (k,))


# A config's gamma and d0 cells: one string per value, shared by its records.
_text = functools.lru_cache(maxsize=64, typed=True)(str)


def _run_point(point: _Point) -> list[tuple]:
    cfg = point.cfg
    path = point.seed_path
    problem, eps = make_instance(cfg, _stream(path, 0), point.trial)
    n = problem.n
    seed = _seed_column(path)
    instance = (n, problem.m, _text(cfg.gamma), eps, _text(cfg.d0))
    tail = (point.interrupt_step,)
    # An option column's cost cells, formatted once per trial. No cost is
    # NaN: C is finite, and a settled cost is a finite cost minus b * p.
    cost_cells = functools.cache(lambda j: tuple(map(repr, problem.col(j))))
    # A baseline's cells depend on its column only.
    baseline_cells: dict[int, tuple] = {}
    records = []
    for mech in cfg.mechanisms:
        if mech == "taco":
            taco_cfg = TacoConfig(
                epsilon=eps, d0=cfg.d0, gamma=cfg.gamma,
                max_steps=cfg.max_steps, history_cap=cfg.history_cap,
            )
            try:
                if point.interrupt_step > 0:
                    outcome = run_interrupted(
                        taco_cfg, problem.agents(), point.interrupt_step, backend=cfg.backend
                    )
                else:
                    outcome = run_taco(taco_cfg, problem.agents(), backend=cfg.backend)
            except NoTerminationError:
                cells = (None, cfg.max_steps, None, None, "cap") + (None,) * (5 + 2 * n)
            except HistoryLimitError:
                cells = (None,) * 4 + ("history_cap",) + (None,) * (5 + 2 * n)
            else:
                result = taco_trial_result(problem, outcome)
                cells = _result_cells(
                    result, cost_cells(result.chosen_option),
                    tuple(map(repr, result.settled_costs)),
                )
        else:
            if mech == "voting":
                choice = baselines.voting(problem, _stream(path, 1))
            elif mech == "random_dictator":
                choice = baselines.random_dictator(problem, _stream(path, 2))
            elif mech == "utilitarian":
                choice = baselines.utilitarian(problem)
            else:
                choice = baselines.egalitarian(problem)
            cells = baseline_cells.get(choice)
            if cells is None:
                result = baseline_trial_result(problem, mech, choice)
                raw = cost_cells(choice)
                cells = baseline_cells[choice] = _result_cells(result, raw, raw)
        records.append((point.trial, seed, mech) + instance + cells + tail)
    return records


def _result_cells(r: TrialResult, raw: tuple[str, ...], settled: tuple[str, ...]) -> tuple:
    """A finished trial's cells from chosen_option through the cost blocks."""
    metrics = (r.og_raw, r.og_settled, r.gini_raw, r.gini_settled, r.max_cycle_spread_ratio)
    # NaN would be written "nan"; an undefined metric is a blank cell.
    return (
        r.chosen_option, r.steps, r.rounds, r.cycles_detected, "ok",
        *[x if x == x else None for x in metrics],
    ) + raw + settled


def _execute(points: list[_Point], workers: int) -> list[tuple]:
    if workers > 1 and len(points) > 1:
        # Imported here: multiprocessing is ~18 ms of a serial sweep's start-up.
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(points) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_run_point, points, chunksize=chunk))
    else:
        nested = map(_run_point, points)
    return [record for records in nested for record in records]


def record_columns(max_n: int) -> list[str]:
    """The CSV columns of a sweep whose largest instance has max_n agents."""
    return [
        *HEAD_COLUMNS,
        *(f"raw_cost_{i + 1}" for i in range(max_n)),
        *(f"settled_cost_{i + 1}" for i in range(max_n)),
        "interrupt_step",
    ]


def _widen(record: tuple, max_n: int) -> tuple:
    """A record of a smaller n, with blank cost cells up to max_n agents."""
    n = record[_N]
    pad = (None,) * (max_n - n)
    split = len(HEAD_COLUMNS) + n
    return record[:split] + pad + record[split:-1] + pad + record[-1:]


def write_csv(path: Path, records: list[tuple], columns: list[str]) -> None:
    """The header, then each record (as wide as columns) as ``csv.writer`` wrote it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(",".join(["" if c is None else str(c) for c in r]) + "\r\n" for r in records)


def _quantiles(values: list[float]) -> str:
    stats = _stats(values)
    if stats is None:
        return "n=0"
    q1, med, q3, top, mean, std, n = stats
    return (
        f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
        f"max={top:.6g} mean={mean:.6g} std={std:.6g} n={n}"
    )


def _failures(records) -> int:
    return sum(1 for r in records if r[_STATUS] in FAILED_STATUSES)


def summarize(records: list[tuple], group_keys: tuple[str, ...], header_lines: list[str]) -> str:
    """Structured text: quantile lines per (group, mechanism, metric)."""
    lines = [f"csv_schema_version = {SCHEMA_VERSION}"]
    lines += header_lines
    at = [_AT[k] for k in group_keys]
    # One pass: groups and their mechanisms in order of first appearance
    # (r[0] is the trial, r[2] the mechanism).
    groups: dict[tuple, dict[str, list[tuple]]] = {}
    trials = set()
    for r in records:
        key = tuple(r[i] for i in at)
        groups.setdefault(key, {}).setdefault(r[2], []).append(r)
        trials.add((key, r[0]))
    lines.append(f"trials_total = {len(trials)}")
    lines.append(f"cap_failures = {_failures(records)}")
    for key, by_mech in groups.items():
        tag = " ".join(f"{k}={v}" for k, v in zip(group_keys, key))
        for mech, mrecords in by_mech.items():
            section = f"[{mech}]" if not tag else f"[{tag} {mech}]"
            lines.append("")
            lines.append(section)
            group_failures = _failures(mrecords)
            if group_failures:
                lines.append(f"cap_failures = {group_failures}")
            ok = [r for r in mrecords if r[_STATUS] == "ok"]
            for metric, i in _SUMMARY_AT:
                vals = [v for r in ok if (v := r[i]) is not None]
                if vals:
                    lines.append(f"{metric}: {_quantiles(vals)}")
    return "\n".join(lines) + "\n"


def _sweep(
    points: list[_Point],
    cfg: ExperimentConfig,
    out_dir: Path | None,
    name: str,
    group_keys: tuple[str, ...],
    header_lines: list[str],
) -> RunResult:
    """Run the points, then write the CSV and summary under out_dir (if any)."""
    records = _execute(points, cfg.workers)
    max_n = max(r[_N] for r in records)
    if any(r[_N] != max_n for r in records):
        records = [_widen(r, max_n) for r in records]
    columns = record_columns(max_n)
    summary = summarize(records, group_keys, header_lines + config_lines(cfg))
    csv_path = summary_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        csv_path = out_dir / f"{name}.csv"
        write_csv(csv_path, records, columns)
        summary_path = out_dir / f"{name}_summary.txt"
        summary_path.write_text(summary)
    return RunResult(records, columns, csv_path, summary_path, summary, _failures(records))


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


def _list_entries(values, what):
    """values, refused if empty or if an entry repeats an earlier one by value.

    A repeated entry would run its trials twice and count them twice.
    """
    if not values:
        raise ValueError(f"the {what} list must be nonempty")
    if dup := [v for k, v in enumerate(values) if v in values[:k]]:
        raise ValueError(f"the {what} list holds {dup[0]} twice")
    return values


def run_montecarlo(cfg: ExperimentConfig, out_dir: Path | None = None) -> RunResult:
    """All configured mechanisms on the same per-trial instances."""
    points = [_Point(cfg, t, (cfg.base_seed, t), 0) for t in range(cfg.trials)]
    return _sweep(points, cfg, out_dir, "montecarlo", (), ["command = montecarlo"])


def run_sweep_gamma(cfg: ExperimentConfig, gammas, out_dir: Path | None = None) -> RunResult:
    """Monte Carlo per gamma; trial t sees the identical instance at every gamma."""
    gammas = _list_entries([exact(g) for g in gammas], "gamma")
    points = []
    for g in gammas:
        gcfg = dataclasses.replace(cfg, gamma=g)
        points += [_Point(gcfg, t, (cfg.base_seed, t), 0) for t in range(cfg.trials)]
    header = ["command = sweep-gamma", "gamma_list = " + ",".join(str(g) for g in gammas)]
    return _sweep(points, cfg, out_dir, "sweep_gamma", ("gamma",), header)


def run_interrupt(cfg: ExperimentConfig, steps, out_dir: Path | None = None) -> RunResult:
    """Forced-interruption sweep; step 0 means natural termination."""
    steps = _list_entries([int(s) for s in steps], "interruption step")
    for s in steps:
        if s < 0:
            raise ValueError(f"interruption steps must be >= 0, got {s}")
    points = [_Point(cfg, t, (cfg.base_seed, t), s) for s in steps for t in range(cfg.trials)]
    header = ["command = interrupt", "interrupt_steps = " + ",".join(str(s) for s in steps)]
    return _sweep(points, cfg, out_dir, "interrupt", ("interrupt_step",), header)


def run_scalability(cfg: ExperimentConfig, n_list, m_list, out_dir: Path | None = None) -> RunResult:
    """Grid over (n, m) with random Uniform(0,1) instances."""
    n_list = _list_entries([int(v) for v in n_list], "n")
    m_list = _list_entries([int(v) for v in m_list], "m")
    for v in n_list + m_list:
        if v < 1:
            raise ValueError(f"n and m list entries must be at least 1, got {v}")
    points = []
    for n in n_list:
        for m in m_list:
            cell = dataclasses.replace(cfg, scenario="random", n=n, m=m)
            points += [
                _Point(cell, t, (cfg.base_seed, n, m, t), 0) for t in range(cfg.trials)
            ]
    header = [
        "command = scalability",
        "n_list = " + ",".join(str(v) for v in n_list),
        "m_list = " + ",".join(str(v) for v in m_list),
    ]
    return _sweep(points, cfg, out_dir, "scalability", ("n", "m"), header)
