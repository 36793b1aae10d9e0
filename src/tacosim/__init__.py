"""Simulation workbench for trading-auction consensus.

A group of agents repeatedly bids on a shared board of offers and payments
until their profits for the surviving options agree to within a tolerance;
the package provides the exact-arithmetic engine and its float fast path,
baseline mechanisms, scenario generators, evaluation metrics, and a CLI for
batch experiments.
"""

from .agent import AgentPrivate
from .baselines import (
    ChoiceProblem,
    egalitarian,
    random_dictator,
    utilitarian,
    voting,
)
from .board import CycleRecord, ExactAmount, PublicBoard, exact
from .engine import (
    TacoConfig,
    TacoOutcome,
    TraceStep,
    check_termination,
    run_interrupted,
    run_taco,
)
from .errors import (
    HistoryLimitError,
    MetricUndefinedError,
    NoTerminationError,
    ResourceLimitError,
    TacoError,
)
from .experiments import (
    ExperimentConfig,
    RunResult,
    run_example,
    run_interrupt,
    run_montecarlo,
    run_scalability,
    run_sweep_gamma,
)
from .metrics import (
    TerminationBound,
    TrialResult,
    baseline_trial_result,
    bound_report,
    cycle_spread_ratio,
    effective_costs,
    gini,
    optimality_gap,
    taco_trial_result,
    termination_bound,
)
from .scenario import (
    WaypointScenario,
    enumerate_options,
    example2_fixture,
    pava,
    random_problem,
    random_waypoint_problem,
    solve_ordering,
)
from ._fastpath import BACKENDS, ENV_VAR, resolve_backend

__version__ = "0.1.0"

__all__ = [
    "AgentPrivate",
    "BACKENDS",
    "ChoiceProblem",
    "CycleRecord",
    "ENV_VAR",
    "ExactAmount",
    "ExperimentConfig",
    "HistoryLimitError",
    "MetricUndefinedError",
    "NoTerminationError",
    "PublicBoard",
    "ResourceLimitError",
    "RunResult",
    "TacoConfig",
    "TacoError",
    "TacoOutcome",
    "TerminationBound",
    "TraceStep",
    "TrialResult",
    "WaypointScenario",
    "baseline_trial_result",
    "bound_report",
    "check_termination",
    "cycle_spread_ratio",
    "effective_costs",
    "egalitarian",
    "enumerate_options",
    "exact",
    "example2_fixture",
    "gini",
    "optimality_gap",
    "pava",
    "random_dictator",
    "random_problem",
    "random_waypoint_problem",
    "resolve_backend",
    "run_example",
    "run_interrupt",
    "run_interrupted",
    "run_montecarlo",
    "run_scalability",
    "run_sweep_gamma",
    "run_taco",
    "solve_ordering",
    "taco_trial_result",
    "termination_bound",
    "utilitarian",
    "voting",
]
