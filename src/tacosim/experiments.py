"""Experiment driver: configuration and deterministic seeded trials.

Every command reduces to a list of points (trial x parameter variation) that
are independent given their seed paths, so they can run in a process pool;
records are assembled in submission order, which makes output byte-identical
regardless of worker count. A point's records are laid out, written to CSV
and summarized by ``report``.

Seeding rule: each point owns a seed path, a tuple of integers starting with
the base seed (montecarlo/sweep/interrupt: (base_seed, trial); scalability:
(base_seed, n, m, trial)). Stream k of a point is numpy's
default_rng(SeedSequence(path + (k,))), a PCG64 stream, with k=0 for
instance sampling, k=1 for voting tie-breaks, k=2 for the random dictator.
The CSV "seed" column is SeedSequence(path).generate_state(1)[0], a 32-bit
hash that does not give the path back. Both are computed in Python ints
(``_rng``, ``_BATCH`` points a call) and tested against numpy, so a CSV does
not depend on the installed numpy: NEP 19 fixes a bit generator's stream
across numpy versions, but not the ``Generator`` methods that turn it into
draws.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import _rng, baselines, engine, scenario
from .board import _prechecked, exact, positive_float, whole
from .engine import TacoConfig, resolve_backend, run_interrupted, run_taco
from .errors import HistoryLimitError, NoTerminationError
from .metrics import baseline_trial_result, taco_trial_result
from .report import RunResult, _aligned, _failed_cells, _failures, _result_cells, config_lines
from .report import summarize, write_csv  # wrapped here by tacobench's tracer

MECHANISMS = ("taco", "voting", "random_dictator", "utilitarian", "egalitarian")
SCENARIOS = ("waypoint", "random", "example2")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment parameters; every field is a show-config key, checked once.

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
        object.__setattr__(self, "n", whole(self.n, "n"))
        object.__setattr__(self, "m", whole(self.m, "m", 1))
        least = 2 if self.scenario == "waypoint" else 1  # a waypoint needs two arrivals
        if self.n < least:
            raise ValueError(f"the {self.scenario} scenario needs n >= {least}, got n={self.n}")
        if self.scenario == "waypoint" and self.n > (most := scenario.MAX_AGENTS):
            raise ValueError(f"the waypoint scenario needs n <= {most}, got n={self.n}")
        object.__setattr__(self, "trials", whole(self.trials, "trials", 1))
        object.__setattr__(self, "base_seed", whole(self.base_seed, "base_seed", 0))
        # The engine's own checks (TacoConfig), here so that they fail before
        # any trial runs.
        engine.check_run_params(self)
        if self.epsilon is not None:  # None: derived per instance from epsilon_rel
            object.__setattr__(self, "epsilon", positive_float(self.epsilon, "epsilon"))
        for key in ("epsilon_rel", "separation", "k_min", "k_max", "b_min", "b_max"):
            object.__setattr__(self, key, positive_float(getattr(self, key), key))
        object.__setattr__(self, "mechanisms", _list_entries(self.mechanisms, "mechanism", str))
        for mech in self.mechanisms:
            if mech not in MECHANISMS:
                raise ValueError(f"unknown mechanism {mech!r}; expected subset of {MECHANISMS}")
        object.__setattr__(self, "workers", whole(self.workers, "workers", 1))
        # An unknown name fails here, before any trial; "auto" defers to
        # TACO_BACKEND, so that name is checked too.
        resolve_backend(self.backend)
        # An infinite waypoint span would fail every trial's draws instead.
        if not math.isfinite(self.n * self.separation):
            raise ValueError(
                f"separation must keep n * separation finite, got {self.n} * {self.separation}"
            )
        if self.k_min > self.k_max:
            raise ValueError("urgency range must satisfy 0 < k_min <= k_max")
        if self.b_min > self.b_max:
            raise ValueError("valuation range must satisfy 0 < b_min <= b_max")


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


_BATCH = 32  # points whose seed paths one _rng.seed_words_many call hashes


def _run_chunk(points: list[_Point]) -> list[tuple]:
    """The points' records, in order, seeding _BATCH points at a time; the points share
    their sweep's backend, resolved (TACO_BACKEND read) once, and a config's gamma and
    d0 cells are formatted once per run of points that share it."""
    backend = resolve_backend(points[0].cfg.backend) if points else None
    records = []
    cfg = gamma_d0 = None
    for at in range(0, len(points), _BATCH):
        batch = points[at : at + _BATCH]
        paths = [p.seed_path + k for p in batch for k in ((0,), (1,), (2,), ())]
        words = _rng.seed_words_many(paths, 8)
        for i, point in enumerate(batch):
            if point.cfg is not cfg:
                cfg = point.cfg
                gamma_d0 = str(cfg.gamma), str(cfg.d0)
            records += _run_point(point, words[4 * i : 4 * i + 4], backend, gamma_d0)
    return records


def _run_point(point: _Point, words: list[list[int]], backend: str, gamma_d0) -> list[tuple]:
    """A point's records, from the seed words of path + (0,), (1,), (2,) and of path."""
    cfg = point.cfg
    problem, eps = make_instance(cfg, _rng.Stream(words=words[0]), point.trial)
    n = problem.n
    seed = words[3][0]
    instance = (n, problem.m, gamma_d0[0], eps, gamma_d0[1])
    tail = (point.interrupt_step,)
    # A baseline's cells depend on its column only.
    baseline_cells: dict[int, tuple] = {}
    records = []
    for mech in cfg.mechanisms:
        if mech == "taco":
            # cfg and make_instance's tolerance test applied TacoConfig's rules.
            taco_cfg = _prechecked(
                TacoConfig, epsilon=eps, d0=cfg.d0, gamma=cfg.gamma,
                max_steps=cfg.max_steps, turn_order=None, history_cap=cfg.history_cap,
            )
            try:
                if point.interrupt_step > 0:
                    outcome = run_interrupted(
                        taco_cfg, problem.agents(), point.interrupt_step, backend=backend
                    )
                else:
                    outcome = run_taco(taco_cfg, problem.agents(), backend=backend)
            except NoTerminationError:
                cells = _failed_cells("cap", cfg.max_steps, n)
            except HistoryLimitError:
                cells = _failed_cells("history_cap", None, n)
            else:
                cells = _result_cells(taco_trial_result(problem, outcome))
        else:
            if mech == "voting":
                choice = baselines.voting(problem, _rng.Stream(words=words[1]))
            elif mech == "random_dictator":
                choice = baselines.random_dictator(problem, _rng.Stream(words=words[2]))
            elif mech == "utilitarian":
                choice = baselines.utilitarian(problem)
            else:
                choice = baselines.egalitarian(problem)
            cells = baseline_cells.get(choice)
            if cells is None:
                result = baseline_trial_result(problem, mech, choice)
                cells = baseline_cells[choice] = _result_cells(result)
        records.append((point.trial, seed, mech) + instance + cells + tail)
    return records


def _execute(points: list[_Point], workers: int) -> list[tuple]:
    if workers > 1 and len(points) > 1:
        # Imported here: multiprocessing is ~18 ms of a serial sweep's start-up.
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, len(points) // (workers * 8))
        chunks = [points[at : at + size] for at in range(0, len(points), size)]
        # The pool starts all its workers at once: no more than there are chunks.
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            return [record for records in pool.map(_run_chunk, chunks) for record in records]
    return _run_chunk(points)


def _sweep(
    points: list[_Point],
    cfg: ExperimentConfig,
    out_dir: Path | None,
    name: str,
    group_keys: tuple[str, ...],
    header_lines: list[str],
) -> RunResult:
    """Run the points, then write the CSV and summary under out_dir (if any)."""
    records, columns = _aligned(_execute(points, cfg.workers))
    summary = summarize(records, group_keys, header_lines + config_lines(cfg))
    csv_path = summary_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        csv_path = out_dir / f"{name}.csv"
        write_csv(csv_path, records, columns)
        summary_path = out_dir / f"{name}_summary.txt"
        summary_path.write_text(summary)
    return RunResult(records, columns, csv_path, summary_path, summary, _failures(records))


def _list_entries(values, what, convert):
    """The entries of values, converted, as a tuple; refused if values is a str
    (read one character at a time), if empty, or if an entry repeats an
    earlier one by value: it would run its trials twice and count them twice.
    """
    if isinstance(values, str):
        raise ValueError(f"the {what} list must be a list of entries, not the string {values!r}")
    values = tuple(map(convert, values))
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
    gammas = _list_entries(gammas, "gamma", exact)
    points = []
    for g in gammas:
        gcfg = dataclasses.replace(cfg, gamma=g)
        points += [_Point(gcfg, t, (cfg.base_seed, t), 0) for t in range(cfg.trials)]
    header = ["command = sweep-gamma", "gamma_list = " + ",".join(str(g) for g in gammas)]
    return _sweep(points, cfg, out_dir, "sweep_gamma", ("gamma",), header)


def run_interrupt(cfg: ExperimentConfig, steps, out_dir: Path | None = None) -> RunResult:
    """Forced-interruption sweep; step 0 means natural termination."""
    steps = _list_entries(steps, "interruption step", lambda s: whole(s, "an interruption step", 0))
    points = [_Point(cfg, t, (cfg.base_seed, t), s) for s in steps for t in range(cfg.trials)]
    header = ["command = interrupt", "interrupt_steps = " + ",".join(str(s) for s in steps)]
    return _sweep(points, cfg, out_dir, "interrupt", ("interrupt_step",), header)


def run_scalability(cfg: ExperimentConfig, n_list, m_list, out_dir: Path | None = None) -> RunResult:
    """Grid over (n, m) with random Uniform(0,1) instances."""
    n_list = _list_entries(n_list, "n", lambda v: whole(v, "an n list entry", 1))
    m_list = _list_entries(m_list, "m", lambda v: whole(v, "an m list entry", 1))
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
