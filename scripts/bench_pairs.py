"""Paired benchmark runs of two checkouts, written to one BENCH_<label>.json.

Usage, from anywhere (standard library only):

    python3 scripts/bench_pairs.py --parent ../parent --change ../change --label pr9 \
        --seeds 41-50

The workloads and the run length are the change checkout's ``BENCHMARK.json``
(``workloads``, ``run_seconds``). For every workload and seed it runs
``python3 tacobench/run.py --workload W --seed S --seconds T --trace 0`` once
in each checkout, alternating which side runs first (the parent first on odd
pairs), then one ``--trace 1`` run per side at seed ``TRACE_SEED``. Each run's
last stdout line (the JSON result line) and its
``.tacobench/result_<W>_trace<N>.json`` report are collected. Last, each side
runs the Tier-1 suite once (ROADMAP's verify command, on this interpreter);
the command as run, its wall time and outcome counts go under
``tier1.<side>``. Each side's ``src/tacosim/*.py`` line counts, the total
and one per module, go under ``<side>.src_lines``, and the modules'
``tokenize`` token counts beside them under ``<side>.src_tokens``: CPython
3.11's parser grows a per-module buffer once a module passes about 4,090
tokens, which raises the compile peak, and with it every workload's peak
RSS when the benchmark compiles from source.
The output holds
the environment, the seeds, every pair, and per metric the median, quartiles
(``statistics.quantiles(method='inclusive')``), the wins of the change
(strictly better in the metric's direction), the signed gap between the
medians, and whether that gap exceeds the parent's interquartile range in
the better or in the worse direction. Two fields apply the benchmark's rules:
``gain_rule_met`` (the change wins at least 9 of every 10 pairs, ties
counting for neither, and its median is better by more than the parent's
interquartile range) and ``worse_beyond_bound`` (the change's median is
worse than the parent's by more than the metric's ``bound`` in
``BENCHMARK.json``, a fraction of the parent's median). Every field is written by this script;
the file is rewritten after every run, so an interrupted batch keeps the
pairs it finished. At the end it prints one verdict line per workload and
metric: both medians, the change's wins over the pairs, ``gain_rule_met``
and ``worse_beyond_bound``; then the ``src/tacosim`` line and token counts
of both sides, the total and per module; then one line per workload and
per-layer metric of the traced runs: both sides' values and the relative
change.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

TRACE_SEED = 3
PROTOCOL = (
    "python3 tacobench/run.py --workload W --seed S --seconds {seconds:g} --trace 0|1, each "
    "side in its own clean checkout; pairs alternate which side runs first (parent first "
    "on odd pairs); the pair's seed is the same on both sides; one traced run per side at "
    "seed {trace_seed}; written by scripts/bench_pairs.py --seeds {seeds}"
)
QUARTILES = (
    "statistics.quantiles(method='inclusive') over the per-pair values; a win is a "
    "strictly better value in the metric's direction"
)


def parse_seeds(text: str) -> list[int]:
    """"41-50" or "41,43,47" (or a mix) to a list of seeds."""
    seeds: list[int] = []
    for tok in text.split(","):
        lo, _, hi = tok.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git(checkout: Path, *args: str) -> str:
    out = subprocess.run(["git", "-C", str(checkout), *args],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def git_sha(checkout: Path) -> str:
    return git(checkout, "rev-parse", "HEAD")


def src_lines(checkout: Path) -> dict:
    """Line counts of a checkout's src/tacosim/*.py, as ``wc -l`` counts them."""
    modules = {p.name: p.read_bytes().count(b"\n")
               for p in sorted((checkout / "src" / "tacosim").glob("*.py"))}
    return {"total": sum(modules.values()), "modules": modules}


def src_tokens(checkout: Path) -> dict:
    """``tokenize`` token counts of a checkout's src/tacosim/*.py (the ENCODING
    and ENDMARKER tokens included), the largest and one per module."""
    modules = {}
    for p in sorted((checkout / "src" / "tacosim").glob("*.py")):
        with open(p, "rb") as fh:
            modules[p.name] = sum(1 for _ in tokenize.tokenize(fh.readline))
    return {"max": max(modules.values(), default=0), "modules": modules}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One tacobench run in a checkout: its result line, call count and git sha."""
    cmd = [sys.executable, "tacobench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result_line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(
        (checkout / ".tacobench" / f"result_{workload}_trace{trace}.json").read_text())
    calls = sum(len(v) for v in report["calls"].values())
    out = {"result_line": result_line, "calls": calls, "git_sha": git_sha(checkout)}
    note = report["metrics"].get("trials_per_s", [None, None, None])[2]
    if trace == 0 and note:
        out["unscaled_trials_per_s"] = note
    out["env"] = report["env"]
    return out


def run_tier1(checkout: Path) -> dict:
    """One Tier-1 run in a checkout: command, wall time, exit code and pytest's counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (\w+)", last)}
    # The command as run, naming the interpreter by its file name.
    shown = shlex.join([Path(cmd[0]).name, *cmd[1:]])
    return {"command": f"PYTHONPATH={shlex.quote(env['PYTHONPATH'])} {shown}",
            "wall_s": round(wall, 2), "returncode": proc.returncode, "counts": counts,
            "summary": last, "git_sha": git_sha(checkout)}


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Medians, quartiles and wins per end-to-end metric over finished pairs."""
    summary = {}
    for name, spec in metrics.items():
        sides = {}
        for side in ("parent", "change"):
            vals = [p[side]["result_line"]["metrics"][name]["value"] for p in pairs]
            q1, med, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                           if len(vals) > 1 else (vals[0],) * 3)
            sides[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
                           "min": min(vals), "max": max(vals), "runs": len(vals)}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(
            1 for p in pairs
            if sign * (p["change"]["result_line"]["metrics"][name]["value"]
                       - p["parent"]["result_line"]["metrics"][name]["value"]) > 0
        )
        parent, change = sides["parent"], sides["change"]
        gap = change["median"] - parent["median"]
        better_beyond_iqr = sign * gap > parent["iqr"]
        summary[name] = {
            "unit": spec["unit"], "better": spec["better"], **sides,
            "change_wins": wins, "pairs": len(pairs),
            "median_change_rel": change["median"] / parent["median"] - 1.0,
            "median_gap": gap,
            "median_better_beyond_parent_iqr": better_beyond_iqr,
            "median_worse_beyond_parent_iqr": -sign * gap > parent["iqr"],
            "gain_rule_met": 10 * wins >= 9 * len(pairs) and better_beyond_iqr,
            "worse_beyond_bound": -sign * gap > spec["bound"] * abs(parent["median"]),
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--seeds", default="41-50", help="e.g. 41-50 or 41,42,45")
    ap.add_argument("--out-dir", type=Path, default=Path("."), help="where the file goes")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = float(bench["run_seconds"])
    seeds = parse_seeds(args.seeds)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = {
        "what": git(sides["change"], "log", "-1", "--format=%s"),
        "how": PROTOCOL.format(seconds=seconds, trace_seed=TRACE_SEED, seeds=args.seeds),
        "quartiles": QUARTILES,
        **{side: {"git_sha": git_sha(path), "src_lines": src_lines(path),
                  "src_tokens": src_tokens(path)} for side, path in sides.items()},
        "env": None,
        "gated": {},
        "traced": {},
    }
    path = args.out_dir / f"BENCH_{args.label}.json"

    def save() -> None:
        path.write_text(json.dumps(out, indent=1, sort_keys=False) + "\n")

    for workload in workloads:
        entry = {"seconds": seconds, "size": "full", "seeds": seeds, "pairs": []}
        out["gated"][workload] = entry
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds, 0)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side]['result_line']['metrics'])}", flush=True)
            out["env"] = pair["change"].pop("env")
            pair["parent"].pop("env")
            entry["pairs"].append(pair)
            entry["summary"] = summarize(entry["pairs"], metrics)
            save()
    for workload in workloads:
        traced = {"seed": TRACE_SEED}
        for side in ("parent", "change"):
            traced[side] = run_once(sides[side], workload, TRACE_SEED, seconds, 1)
            traced[side].pop("env")
        out["traced"][workload] = traced
        save()
    out["tier1"] = {}
    for side in ("parent", "change"):
        out["tier1"][side] = run_tier1(sides[side])
        print(f"tier1 {side}: {out['tier1'][side]['summary']} "
              f"({out['tier1'][side]['wall_s']} s)", flush=True)
        save()
    print(f"wrote {path}")
    lines = verdict_lines(out["gated"])
    lines += src_line_lines(out["parent"]["src_lines"], out["change"]["src_lines"])
    lines += src_token_lines(out["parent"]["src_tokens"], out["change"]["src_tokens"])
    for line in lines + layer_lines(out["traced"]):
        print(line)
    return 0


def verdict_lines(gated: dict) -> list[str]:
    """One line per (workload, metric): medians, wins and the benchmark's two rules."""
    lines = []
    for workload, entry in gated.items():
        for name, m in entry.get("summary", {}).items():
            lines.append(
                f"{workload} {name}: parent {m['parent']['median']:.6g} change "
                f"{m['change']['median']:.6g} ({m['median_change_rel']:+.1%}), wins "
                f"{m['change_wins']}/{m['pairs']}, gain_rule_met {m['gain_rule_met']}, "
                f"worse_beyond_bound {m['worse_beyond_bound']}")
    return lines


def src_line_lines(parent: dict, change: dict) -> list[str]:
    """Both sides' src/tacosim line counts: the total, then one line per module."""
    lines = [f"src/tacosim lines: parent {parent['total']} change {change['total']} "
             f"({change['total'] - parent['total']:+d})"]
    for name in sorted({**parent["modules"], **change["modules"]}):
        p, c = parent["modules"].get(name), change["modules"].get(name)
        lines.append(f"src/tacosim/{name} lines: parent {_num(p)} change {_num(c)} "
                     f"({(c or 0) - (p or 0):+d})")
    return lines


def src_token_lines(parent: dict, change: dict) -> list[str]:
    """Both sides' src/tacosim token counts: the largest module, then one line per module."""
    lines = [f"src/tacosim largest module tokens: parent {parent['max']} change {change['max']} "
             f"({change['max'] - parent['max']:+d})"]
    for name in sorted({**parent["modules"], **change["modules"]}):
        p, c = parent["modules"].get(name), change["modules"].get(name)
        lines.append(f"src/tacosim/{name} tokens: parent {_num(p)} change {_num(c)} "
                     f"({(c or 0) - (p or 0):+d})")
    return lines


def layer_lines(traced: dict) -> list[str]:
    """One line per (workload, traced per-layer metric): both values and the relative change."""
    lines = []
    for workload, entry in traced.items():
        parent = entry["parent"]["result_line"]["metrics"]
        change = entry["change"]["result_line"]["metrics"]
        for name in {**parent, **change}:
            p, c = (side.get(name, {}).get("value") for side in (parent, change))
            unit = (change.get(name) or parent[name])["unit"]
            if p is None or c is None:
                rel = "n/a"
            elif p:
                rel = f"{c / p - 1:+.1%}"
            else:
                rel = "+0.0%" if c == p else "n/a"
            lines.append(f"{workload} traced {name} ({unit}): parent {_num(p)} change "
                         f"{_num(c)} ({rel})")
    return lines


def _num(value) -> str:
    return "-" if value is None else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
