"""A sweep's records and output: the record layout, CSV writer and summary.

A point returns one record per mechanism: a tuple in CSV column order for the
instance's own n (``record_columns``). Ints stay ints, ``gamma`` and ``d0``
are exact rational strings, float cells are Python floats, and a blank cell
(an undefined metric, a capped trial's missing fields) is None. The cost cells
are the instance's floats, shared by every mechanism that picked their option.
``write_csv`` joins a record's cells with "," and ends the line with "\\r\\n",
None as an empty cell and any other cell as its ``str`` (a float's ``repr``),
each distinct cell object of a point formatted once: ``csv.writer``'s bytes,
as no cell needs quoting. The summary reads the floats as they are.

This is the one module that indexes a record by position; ``experiments``
schedules the points and hands their records here.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .baselines import _sum
from .metrics import TrialResult

SCHEMA_VERSION = 1

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


def _result_cells(r: TrialResult) -> tuple:
    """A finished trial's cells from chosen_option through the cost blocks.

    The cost cells are the floats of ``raw_costs`` and ``settled_costs`` (a
    baseline's settled tuple is its raw tuple). No cost is NaN: C is finite,
    and a settled cost is a finite cost minus b * p.
    """
    metrics = (r.og_raw, r.og_settled, r.gini_raw, r.gini_settled, r.max_cycle_spread_ratio)
    # NaN would be written "nan"; an undefined metric is a blank cell.
    return (
        r.chosen_option, r.steps, r.rounds, r.cycles_detected, "ok",
        *[x if x == x else None for x in metrics],
    ) + r.raw_costs + r.settled_costs


def _failed_cells(status: str, steps: int | None, n: int) -> tuple:
    """A capped trial's cells from chosen_option through the cost blocks."""
    return (None, steps, None, None, status) + (None,) * (5 + 2 * n)


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


def _aligned(records: list[tuple]) -> tuple[list[tuple], list[str]]:
    """A sweep's records, each as wide as its largest n, and their columns."""
    max_n = max(r[_N] for r in records)
    if any(r[_N] != max_n for r in records):
        records = [_widen(r, max_n) for r in records]
    return records, record_columns(max_n)


def write_csv(path: Path, records, columns: list[str]) -> None:
    """The header, then each record (as wide as columns) as ``csv.writer`` wrote it.

    A point's records share cell objects, so each is formatted once: the memo
    is keyed by id and holds the cell, so that no id is reused while it lives,
    and a new trial index starts a new memo. A memo keyed by value would write
    -0.0 as 0.0, or True as 1.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        trial = memo = None
        for r in records:
            if memo is None or r[0] != trial:
                trial, memo = r[0], {id(None): (None, "")}
            line = []
            for c in r:
                if (hit := memo.get(id(c))) is None:
                    hit = memo[id(c)] = (c, str(c))
                line.append(hit[1])
            fh.write(",".join(line) + "\r\n")


def _stats(values: list[float]) -> tuple | None:
    """numpy's linear percentiles 25, 50 and 75, max, mean and std(ddof=1)
    of the finite values as floats, and their count; None if there are none."""
    arr = [x for x in map(float, values) if math.isfinite(x)]
    n = len(arr)
    if n == 0:
        return None
    # Mean and deviations in record order: numpy's pairwise sum depends on it.
    mean = _sum(arr) / n
    var = _sum([(x - mean) * (x - mean) for x in arr]) / (n - 1) if n > 1 else 0.0
    arr.sort()
    q1, med, q3 = (_percentile(arr, q) for q in (0.25, 0.5, 0.75))
    return q1, med, q3, arr[-1], mean, math.sqrt(var), n


def _percentile(arr: list[float], q: float) -> float:
    """numpy's percentile(method="linear") of sorted arr at fraction q."""
    v = (len(arr) - 1) * q
    lo = math.floor(v)
    hi = min(lo + 1, len(arr) - 1)
    t = v - lo
    d = arr[hi] - arr[lo]
    return arr[hi] - d * (1 - t) if t >= 0.5 else arr[lo] + d * t


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


def config_lines(cfg) -> list[str]:
    out = []
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if f.name == "mechanisms":
            val = ",".join(val)
        elif val is None:
            val = "none"
        out.append(f"{f.name} = {val}")
    return out
