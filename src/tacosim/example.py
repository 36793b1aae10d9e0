"""The worked two-agent example, replayed turn by turn for display.

``tacosim example`` prints and writes every turn of the built-in fixture with
the exact board before it and the profits each agent would see. The run is
the engine's; this module only replays its turns on the engine's lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import engine, scenario
from .engine import TacoConfig, TacoOutcome, run_taco


@dataclass
class ExampleStep:
    """One display row of the worked two-agent run: matrices before the
    update, the full profit matrix, and the selections after the step."""

    step: int
    agent: int
    offers: list[list[Fraction]]
    pays: list[list[Fraction]]
    profits: tuple[tuple[float, ...], ...]
    selections: list[int | None]


@dataclass
class ExampleRun:
    steps: list[ExampleStep]
    outcome: TacoOutcome
    detected_spans: list[tuple[int, int]]


def run_example(epsilon: float = 1e-6, d0=1, gamma=Fraction(9, 10)) -> ExampleRun:
    """Run the two-agent fixture on the exact backend and replay it for display.

    The replay steps the engine's lattice board through the recorded turns,
    reducing the trading unit at the end of each recorded cycle, and updates
    the displayed board cell by cell: a turn changes one offer column and one
    pay cell, and a reduction changes no value. Each net is the float of the
    lattice's rational, as in ``anchors(False)``, so each profit row is the
    exact backend's row bit for bit.
    """
    problem = scenario.example2_fixture()
    config = TacoConfig(epsilon=epsilon, d0=d0, gamma=gamma)
    outcome = run_taco(config, problem.agents(), backend="exact")
    cycle_ends = {cyc.end_step for cyc in outcome.cycle_records}
    lattice = engine._LatticeBoard(problem.n, problem.m, config.d0, config.gamma)
    offers = [[Fraction(0)] * problem.m for _ in range(problem.n)]
    pays = [row[:] for row in offers]
    net = [[0.0] * problem.m for _ in range(problem.n)]
    selections: list[int | None] = [None] * problem.n
    steps: list[ExampleStep] = []
    for ts in outcome.trace:
        i, j = ts.agent, ts.selection
        selections[i] = j
        shown = [[row[:] for row in rows] for rows in (offers, pays)]
        profits = tuple(tuple(b_i * x - c for x, c in zip(row, costs))
                        for b_i, row, costs in zip(problem.valuations, net, problem.rows))
        steps.append(ExampleStep(ts.step, i, *shown, profits, selections[:]))
        if ts.step in cycle_ends:
            engine.reduce_trading_unit(lattice)
        # The terminating turn's update is dropped by the engine, but nothing
        # reads the board after the last step.
        engine.apply_selection(lattice, i, j)
        a, den, offer = lattice.a, lattice.unit_den, lattice.offers[j]
        pays[i][j] = Fraction(a * lattice.pays[i][j], den)
        shared = Fraction(a * offer, den)  # offers are column-uniform
        for k, row in enumerate(lattice.pays):
            offers[k][j] = shared
            net[k][j] = a * (offer - row[j]) / den
    spans = [(cyc.start_step, cyc.end_step) for cyc in outcome.cycle_records]
    return ExampleRun(steps=steps, outcome=outcome, detected_spans=spans)
