"""The model's symmetries: transformations of an instance that must not change a run.

Each test compares the engine with itself, so it needs no second
implementation of the arithmetic. Scaling b, C and epsilon by a power of two
is exact in floating point, and relabelling the agents while carrying the
turn order with them only renames who plays each turn. Relabelling the
options is not a symmetry where a decision is an exact tie, since the
lowest index wins it: one such instance is pinned.
"""

import numpy as np
import pytest

from _replay import row_bytes
from tacosim.baselines import ChoiceProblem
from tacosim.engine import TacoConfig, run_taco
from tacosim.experiments import ExperimentConfig
from tacosim.metrics import effective_costs
from tacosim.scenario import random_waypoint_problem

BACKENDS = ("numpy", "exact")


def _instances():
    """(config, problem) pairs: coarse-grid instances full of exact ties, and
    default-sized waypoint instances, each with a seeded turn order."""
    rng = np.random.default_rng(61)
    out = []
    for _ in range(300):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        C = rng.integers(0, 6, (n, m)) * 0.1
        b = rng.choice([0.1, 0.3, 0.7, 1.1, 1.3], n)
        order = tuple(rng.permutation(n).tolist())
        config = TacoConfig(epsilon=0.05, d0="1/10", gamma="1/2", turn_order=order)
        out.append((config, ChoiceProblem(n=n, m=m, C=C, b=b)))
    for _ in range(100):
        problem = random_waypoint_problem(4, rng)
        order = tuple(rng.permutation(4).tolist())
        eps = 1e-3 * float(problem.C.mean())
        out.append((TacoConfig(epsilon=eps, d0="1/50", gamma="9/10", turn_order=order), problem))
    return out


@pytest.fixture(scope="module")
def instances():
    return _instances()


def _config(config, epsilon=None, turn_order=None):
    return TacoConfig(
        epsilon=config.epsilon if epsilon is None else epsilon,
        d0=config.d0,
        gamma=config.gamma,
        turn_order=config.turn_order if turn_order is None else turn_order,
    )


def _cycle_facts(cyc):
    return cyc.start_step, cyc.end_step, cyc.active_choices, cyc.d_at_detection


def _run_facts(outcome):
    return (
        outcome.steps, outcome.consensus_choice, outcome.settlements, outcome.final_d,
        outcome.terminated_naturally, [_cycle_facts(cyc) for cyc in outcome.cycle_records],
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_power_of_two_scaling_scales_every_row(instances, backend):
    # b, C and epsilon times 2^k: every profit b*N - C, and so every row and
    # spread, is the same float times 2^k, so no decision changes.
    for config, problem in instances:
        base = run_taco(config, problem.agents(), backend=backend)
        trace = [(ts.step, ts.agent, ts.selection, ts.profit_row) for ts in base.trace]
        for k in (-1, 1, 10):
            f = 2.0**k
            scaled = ChoiceProblem(
                n=problem.n, m=problem.m,
                C=[[c * f for c in row] for row in problem.rows],
                b=[v * f for v in problem.valuations],
            )
            run = run_taco(_config(config, config.epsilon * f), scaled.agents(), backend=backend)
            assert _run_facts(run) == _run_facts(base), k
            got = [(ts.step, ts.agent, ts.selection, row_bytes(ts.profit_row)) for ts in run.trace]
            want = [(s, a, c, row_bytes([x * f for x in row])) for s, a, c, row in trace]
            assert got == want, k
            for cyc, ref in zip(run.cycle_records, base.cycle_records):
                assert cyc.choice_counts == ref.choice_counts
                assert [row_bytes(rows) for rows in cyc.agent_turn_profits] == [
                    row_bytes([[x * f for x in row] for row in rows])
                    for rows in ref.agent_turn_profits
                ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_agent_relabelling_permutes_settlements(instances, backend):
    # New agent a is old agent perm[a]; the turn order names the same old
    # agents in the same turns, so every turn sees the same row.
    rng = np.random.default_rng(62)
    for config, problem in instances:
        n = problem.n
        perm = rng.permutation(n).tolist()
        new = {old: a for a, old in enumerate(perm)}
        relabelled = ChoiceProblem(
            n=n, m=problem.m,
            C=[problem.rows[old] for old in perm],
            b=[problem.valuations[old] for old in perm],
        )
        order = tuple(new[old] for old in config.turn_order)
        base = run_taco(config, problem.agents(), backend=backend)
        run = run_taco(_config(config, turn_order=order), relabelled.agents(), backend=backend)
        assert run.settlements == [base.settlements[old] for old in perm]
        assert run.final_selections == [base.final_selections[old] for old in perm]
        assert (run.steps, run.consensus_choice, run.final_d, run.terminated_naturally) == (
            base.steps, base.consensus_choice, base.final_d, base.terminated_naturally
        )
        got = [(ts.step, ts.agent, ts.selection, row_bytes(ts.profit_row)) for ts in run.trace]
        want = [
            (ts.step, new[ts.agent], ts.selection, row_bytes(ts.profit_row))
            for ts in base.trace
        ]
        assert got == want
        assert [_cycle_facts(c) for c in run.cycle_records] == [
            _cycle_facts(c) for c in base.cycle_records
        ]
        for cyc, ref in zip(run.cycle_records, base.cycle_records):
            assert cyc.choice_counts == tuple(ref.choice_counts[old] for old in perm)
            assert [row_bytes(rows) for rows in cyc.agent_turn_profits] == [
                row_bytes(ref.agent_turn_profits[old]) for old in perm
            ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_option_relabelling_moves_a_zero_cost_tie(backend):
    # Instance 12 of a waypoint sequence, its options permuted: one agent
    # has six zero-cost options, so its best response is an exact tie that
    # the lowest index breaks, and the relabelled run ends on other costs.
    # This is the tie rule's label dependence, kept as tested behaviour.
    rng, perm_rng = np.random.default_rng(3), np.random.default_rng(9)
    for _ in range(13):
        problem = random_waypoint_problem(4, rng)
        perm = perm_rng.permutation(24).tolist()
    assert sorted(row.count(0.0) for row in problem.rows) == [0, 0, 0, 6]
    relabelled = ChoiceProblem(
        n=4, m=24, C=[[row[j] for j in perm] for row in problem.rows], b=problem.valuations
    )
    defaults = ExperimentConfig()
    config = TacoConfig(
        epsilon=1e-3 * float(problem.C.mean()), d0=defaults.d0, gamma=defaults.gamma
    )
    base = run_taco(config, problem.agents(), backend=backend)
    run = run_taco(config, relabelled.agents(), backend=backend)
    costs = [effective_costs(problem, base, mode) for mode in ("raw", "settled")]
    assert [effective_costs(relabelled, run, mode) for mode in ("raw", "settled")] != costs
