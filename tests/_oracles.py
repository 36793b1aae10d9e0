"""Reference implementations, independent of the shipped code.

First, an instance's cost matrix and valuations as the float64 arrays the
numpy oracles read (``C_of``, ``b_of``); the package itself holds them only
as tuples of Python floats. Beside them, the tie rule's reproducer
(``tie_prone_instances``), shared by the engine and oracle tests.

The numpy oracles below are the array implementations that the per-trial
metrics, baselines, cycle checks and summary used before they moved to
Python floats; ``tests/test_oracles.py`` holds the shipped code to them bit
for bit.

The ordering solver's references follow: the array form ``solve_ordering``
had before it moved to Python floats, over a textbook list ``pava`` that
shares no code with the package's pooling step, so that
``tests/test_scenario.py`` holds both ``enumerate_options`` and
``scenario.solve_ordering`` to them bit for bit; and the brute-force oracles.

The chain-constrained quadratic program behind each arrival ordering is solved
here by exhaustive search over tight-constraint subsets: each subset of the
chain constraints forced to equality partitions the positions into consecutive
blocks, the equality-constrained minimum puts every block at its weighted mean,
and the true optimum is the feasible candidate with the smallest objective.
With L positions that is 2**(L-1) candidates, fine for L <= 8.

Then comes the dict-row output path the sweeps used before they kept typed
records: string rows, the ``csv.DictWriter`` writer and, above it, the summary
that parses each metric back with ``float``. ``tests/test_oracles.py`` holds
the records' CSV and summary bytes to it.

Last, the termination bound's reduction count as the loop of exact products
that ``metrics.termination_bound`` ran before it counted by logarithms.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

from tacosim.baselines import ChoiceProblem
from tacosim.board import exact
from tacosim.engine import TacoConfig
from tacosim.errors import MetricUndefinedError
from tacosim.metrics import TrialResult
from tacosim.report import FAILED_STATUSES, SCHEMA_VERSION, SUMMARY_METRICS


def C_of(problem) -> np.ndarray:
    """problem's cost matrix as a read-only, C-contiguous n x m float64 array."""
    C = np.array(problem.rows, dtype=np.float64).reshape(problem.n, problem.m)
    C.setflags(write=False)
    return C


def b_of(problem) -> np.ndarray:
    """problem's valuations as a read-only float64 vector."""
    b = np.array(problem.valuations, dtype=np.float64)
    b.setflags(write=False)
    return b


def tie_prone_instances(count=1000):
    """The reproducer of the tie rule in ROADMAP item 1: (config, problem)
    pairs with costs and valuations on a coarse decimal grid, so many options
    are mathematically tied."""
    rng = np.random.default_rng(7)
    config = TacoConfig(epsilon=0.05, d0="1/10", gamma="1/2")
    for _ in range(count):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        C = rng.integers(0, 6, (n, m)) * 0.1
        b = rng.choice([0.1, 0.3, 0.7, 1.1, 1.3], n)
        yield config, ChoiceProblem(n=n, m=m, C=C, b=b)


# --- the ordering solver -----------------------------------------------------


def pava(targets, weights) -> np.ndarray:
    """Textbook pool-adjacent-violators on parallel lists: a merged block's
    mean is (m1*w1 + m2*w2) / (w1 + w2), its weight w1 + w2."""
    means, wsums, sizes = [], [], []
    for ti, wi in zip(targets, weights):
        means.append(float(ti))
        wsums.append(float(wi))
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            wm = wsums[-2] + wsums[-1]
            means[-2] = (means[-2] * wsums[-2] + means[-1] * wsums[-1]) / wm
            wsums[-2] = wm
            sizes[-2] += sizes[-1]
            means.pop()
            wsums.pop()
            sizes.pop()
    return np.repeat(np.array(means, dtype=np.float64), sizes)


def solve_ordering(scenario, order) -> np.ndarray:
    """Cheapest adjustment vector for one arrival ordering, in arrays: pava
    on targets e[order] - t*D with weights k[order], then x[order] = v +
    t*D - e[order]."""
    n = scenario.n
    idx = np.array(order, dtype=np.intp)
    e, k = np.array(scenario.e), np.array(scenario.k)
    shift = np.arange(n, dtype=np.float64) * scenario.D
    v = pava(e[idx] - shift, k[idx])
    x = np.empty(n, dtype=np.float64)
    x[idx] = v + shift - e[idx]
    return x


def solve_orderings(scenario) -> np.ndarray:
    """solve_ordering of every ordering, in lexicographic order, as the rows of an
    (n!, n) array: the targets, weights and adjustments of all orderings are
    array operations at once, and pava solves each ordering's lists."""
    n = scenario.n
    idx = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    e, k = np.array(scenario.e), np.array(scenario.k)
    shift = np.arange(n, dtype=np.float64) * scenario.D
    targets, weights = (e[idx] - shift).tolist(), k[idx].tolist()
    v = np.array([pava(t, w) for t, w in zip(targets, weights)]).reshape(idx.shape)
    x = np.empty(idx.shape)
    np.put_along_axis(x, idx, v + shift - e[idx], axis=1)
    return x


def brute_isotonic(targets, weights) -> tuple[np.ndarray, float]:
    """Nondecreasing minimizer of sum w_t*(v_t - targets_t)**2 by exhaustion.

    Returns (v, objective). Candidates whose block means decrease anywhere are
    infeasible and skipped; the all-merged candidate is always feasible, so a
    minimum always exists.
    """
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    L = t.shape[0]
    best_v = None
    best_obj = np.inf
    for mask in itertools.product((False, True), repeat=L - 1):
        # mask[i] True means positions i and i+1 share a block.
        bounds = [0] + [i + 1 for i, tied in enumerate(mask) if not tied] + [L]
        v = np.empty(L)
        prev_mean = -np.inf
        feasible = True
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mean = float(np.average(t[lo:hi], weights=w[lo:hi]))
            if mean < prev_mean - 1e-12:
                feasible = False
                break
            v[lo:hi] = mean
            prev_mean = mean
        if not feasible:
            continue
        obj = float(np.sum(w * (v - t) ** 2))
        if obj < best_obj:
            best_obj = obj
            best_v = v
    return best_v, best_obj


def brute_ordering(e, k, D, order) -> tuple[np.ndarray, float]:
    """Optimal adjustment vector for one arrival ordering, by brute_isotonic.

    Uses the same change of variables the production solver documents, but the
    inner minimization is the exhaustive one above rather than any
    pool-adjacent-violators pass.
    """
    e = np.asarray(e, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    idx = np.array([int(i) for i in order], dtype=np.intp)
    n = e.shape[0]
    shift = np.arange(n, dtype=np.float64) * float(D)
    v, obj = brute_isotonic(e[idx] - shift, k[idx])
    x = np.empty(n)
    x[idx] = v + shift - e[idx]
    return x, obj


# --- numpy oracles: metrics -------------------------------------------------


def optimality_gap(costs, utilitarian_costs) -> float:
    total = float(np.sum(costs))
    best = float(np.sum(utilitarian_costs))
    if not best > 0:
        raise MetricUndefinedError(
            f"optimality gap undefined: utilitarian total must be positive, got {best}"
        )
    return total / best - 1.0


def gini(costs) -> float:
    c = np.asarray(costs, dtype=np.float64)
    total = float(c.sum())
    if not total > 0:
        raise MetricUndefinedError(f"gini undefined: total cost must be positive, got {total}")
    diff = float(np.abs(c[:, None] - c[None, :]).sum())
    return diff / (2.0 * c.shape[0] * total)


def effective_costs(problem, outcome, mode="settled") -> np.ndarray:
    j = outcome.consensus_choice
    raw = C_of(problem)[:, j].astype(np.float64).copy()
    if mode == "raw":
        return raw
    if mode == "settled":
        receipts = np.array([float(p) for p in outcome.settlements], dtype=np.float64)
        return raw - b_of(problem) * receipts
    raise ValueError(f"mode must be 'raw' or 'settled', got {mode!r}")


def cycle_spread_ratio(outcome, valuations) -> float:
    b = np.asarray(valuations, dtype=np.float64)
    n = b.shape[0]
    worst = 0.0
    for cyc in outcome.cycle_records:
        active = sorted(cyc.active_choices)
        p = len(active)
        d = float(cyc.d_at_detection)
        for i, rows in enumerate(cyc.agent_turn_profits):
            vals = np.concatenate([np.asarray(row)[active] for row in rows])
            spread = float(vals.max() - vals.min())
            bound = (p + 1) * d * (n - 1) * float(b[i])
            if bound == 0.0:
                if spread > 0.0:
                    return math.inf
                continue
            worst = max(worst, spread / bound)
    return worst


def _nan_safe(metric, *args) -> float:
    try:
        return float(metric(*args))
    except MetricUndefinedError:
        return math.nan


def taco_trial_result(problem, outcome) -> TrialResult:
    util_costs = C_of(problem)[:, utilitarian(problem)]
    raw = effective_costs(problem, outcome, "raw")
    settled = effective_costs(problem, outcome, "settled")
    return TrialResult(
        mechanism="taco",
        chosen_option=outcome.consensus_choice,
        raw_costs=raw,
        settled_costs=settled,
        steps=outcome.steps,
        rounds=outcome.rounds,
        cycles_detected=outcome.cycles_detected,
        og_raw=_nan_safe(optimality_gap, raw, util_costs),
        og_settled=_nan_safe(optimality_gap, settled, util_costs),
        gini_raw=_nan_safe(gini, raw),
        gini_settled=_nan_safe(gini, settled),
        max_cycle_spread_ratio=cycle_spread_ratio(outcome, b_of(problem)),
    )


def baseline_trial_result(problem, mechanism, choice) -> TrialResult:
    util_costs = C_of(problem)[:, utilitarian(problem)]
    raw = C_of(problem)[:, choice].astype(np.float64).copy()
    og = _nan_safe(optimality_gap, raw, util_costs)
    gi = _nan_safe(gini, raw)
    return TrialResult(
        mechanism=mechanism,
        chosen_option=int(choice),
        raw_costs=raw,
        settled_costs=raw.copy(),
        steps=0,
        rounds=0,
        cycles_detected=0,
        og_raw=og,
        og_settled=og,
        gini_raw=gi,
        gini_settled=gi,
        max_cycle_spread_ratio=0.0,
    )


# --- numpy oracles: baselines -----------------------------------------------


def voting(problem, rng) -> int:
    votes = np.zeros(problem.m, dtype=np.int64)
    for i in range(problem.n):
        votes[int(np.argmin(C_of(problem)[i]))] += 1
    winners = np.flatnonzero(votes == votes.max())
    if winners.size == 1:
        return int(winners[0])
    return int(winners[int(rng.integers(winners.size))])


def random_dictator(problem, rng) -> int:
    dictator = int(rng.integers(problem.n))
    return int(np.argmin(C_of(problem)[dictator]))


def utilitarian(problem) -> int:
    return int(np.argmin(C_of(problem).sum(axis=0)))


def egalitarian(problem) -> int:
    return int(np.argmin(C_of(problem).max(axis=0)))


# --- numpy oracles: per-cycle checks ------------------------------------------


def check_termination(cycle, epsilon) -> bool:
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    active = sorted(cycle.active_choices)
    for rows in cycle.agent_turn_profits:
        if not rows:
            raise ValueError("agent_turn_profits must be populated for every agent")
        lo = math.inf
        hi = -math.inf
        for row in rows:
            vals = np.asarray(row)[active]
            lo = min(lo, float(vals.min()))
            hi = max(hi, float(vals.max()))
        if hi - lo >= epsilon:
            return False
    return True


def cycle_structure_ok(cyc, n) -> bool:
    """The engine's structural check on a cycle, as a predicate."""
    counts = np.asarray(cyc.choice_counts)
    if cyc.length <= 0 or cyc.length % n != 0:
        return False
    return n == 1 or bool((counts == counts[0]).all())


def find_repeat(first, more, t, players, choices, n, m):
    for s in (first, *more):
        counts = np.bincount(
            np.array(players[s - 1 : t - 1]) * m + np.array(choices[s - 1 : t - 1]),
            minlength=n * m,
        ).reshape(n, m)
        if (counts == counts[0]).all():
            return s
    return -1


# --- the summary of string rows, one pass per (group, mechanism, metric) -------


def summary_stats(values):
    """numpy's linear percentiles 25, 50 and 75, max, mean and std(ddof=1) of
    the finite values as floats, and their count; None if there are none."""
    arr = np.array(values, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return None
    q1, med, q3 = np.percentile(arr, [25, 50, 75], method="linear")
    std = arr.std(ddof=1) if arr.size > 1 else 0.0
    return tuple(map(float, (q1, med, q3, arr.max(), arr.mean(), std))) + (int(arr.size),)


def _quantiles(values) -> str:
    stats = summary_stats(values)
    if stats is None:
        return "n=0"
    q1, med, q3, top, mean, std, n = stats
    return (
        f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
        f"max={top:.6g} mean={mean:.6g} std={std:.6g} n={n}"
    )


def summarize(rows, group_keys, header_lines) -> str:
    def collect(rows, mech, key):
        out = []
        for r in rows:
            if r["mechanism"] != mech or r.get("status") != "ok":
                continue
            val = r.get(key, "")
            if val == "" or val is None:
                continue
            out.append(float(val))
        return out

    def failures(rows):
        return sum(1 for r in rows if r.get("status") in FAILED_STATUSES)

    lines = [f"csv_schema_version = {SCHEMA_VERSION}"]
    lines += header_lines
    lines.append(
        f"trials_total = {len({(tuple(r.get(k) for k in group_keys), r['trial']) for r in rows})}"
    )
    lines.append(f"cap_failures = {failures(rows)}")
    groups = []
    for r in rows:
        key = tuple(r.get(k) for k in group_keys)
        if key not in groups:
            groups.append(key)
    for key in groups:
        grows = [r for r in rows if tuple(r.get(k) for k in group_keys) == key]
        mechs = []
        for r in grows:
            if r["mechanism"] not in mechs:
                mechs.append(r["mechanism"])
        for mech in mechs:
            tag = " ".join(f"{k}={v}" for k, v in zip(group_keys, key))
            lines.append("")
            lines.append(f"[{mech}]" if not tag else f"[{tag} {mech}]")
            group_failures = failures(r for r in grows if r["mechanism"] == mech)
            if group_failures:
                lines.append(f"cap_failures = {group_failures}")
            for metric in SUMMARY_METRICS:
                vals = collect(grows, mech, metric)
                if vals:
                    lines.append(f"{metric}: {_quantiles(vals)}")
    return "\n".join(lines) + "\n"


# --- the dict-row output path --------------------------------------------------


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else repr(float(x))


def string_rows(records, columns) -> list[dict]:
    """Records as the rows the sweeps built before: a float cell through
    ``_fmt``, a blank cell left out of the row."""
    return [
        {k: _fmt(v) if isinstance(v, float) else v for k, v in zip(columns, r) if v is not None}
        for r in records
    ]


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


def write_csv(path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


# --- the reduction count, one exact product per reduction ----------------------


def termination_count(n, m, gamma, epsilon, d0, b_max) -> int:
    """The reductions ``metrics.termination_bound`` counts, by the loop it ran
    before it took logarithms: multiply the bound by gamma until it is at most
    epsilon, in exact rational arithmetic."""
    g = exact(gamma)
    eps = Fraction(epsilon)
    level = (m + 1) * exact(d0) * (n - 1) * Fraction(b_max)
    count = 0
    while level > eps:
        level *= g
        count += 1
    return count
