"""tacosim benchmark: seeded sweeps through the public experiment and engine API.

Usage, from the root of a checkout:
    python3 tacobench/run.py --workload montecarlo --seed 1 --seconds 20 --trace 0
    python3 tacobench/run.py --record-reference     # after an intended output change

Each run first checks correctness (the gate), then repeats fresh-process timed
calls of one workload for ``--seconds``, checks every call's output, and
prints each metric by name and unit, the environment, and as its last line
one JSON object. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
adds traced calls and reports the per-layer metrics. If a check fails the
run exits non-zero and prints no numbers. See ``tacobench/README.md`` for the
workloads, the metrics and the layer-to-end-to-end mapping.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".tacobench"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
CALL_TIMEOUT_S = 170
# Nominal time of the child's calibration loop. Times are reported as if the
# host ran at this speed: each call's times are divided by its slowdown,
# calibration_s / CALIBRATION_REF_S, and its rates multiplied by it.
CALIBRATION_REF_S = 0.14
TIME_UNITS = ("s", "ms", "us")
MIN_CALLS = {0: 3, 1: 2}  # per call kind, by --trace

# (name, unit, better) in the order they are printed.
END_TO_END = (
    ("trials_per_s", "1/s", "higher"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
PER_LAYER = (
    ("scenario.calls", "count", "lower"),
    ("scenario.busy_s", "s", "lower"),
    ("scenario.pava_solves", "count", "lower"),
    ("engine.calls", "count", "lower"),
    ("engine.busy_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.run_ms_p50", "ms", "lower"),
    ("engine.run_ms_p99", "ms", "lower"),
    ("engine.steps", "count", "lower"),
    ("fastpath.windows", "count", "lower"),
    ("fastpath.busy_s", "s", "lower"),
    ("fastpath.steps", "count", "lower"),
    ("fastpath.us_per_step", "us", "lower"),
    ("fastpath.detected_ratio", "ratio", "higher"),
    ("fastpath.max_window_steps", "count", "lower"),
    ("board.busy_s", "s", "lower"),
    ("board.reanchor_us", "us", "lower"),
    ("board.cells_reanchored", "count", "lower"),
    ("metrics.calls", "count", "lower"),
    ("metrics.busy_s", "s", "lower"),
    ("baselines.calls", "count", "lower"),
    ("baselines.busy_s", "s", "lower"),
    ("experiments.output_s", "s", "lower"),
    ("experiments.csv_bytes", "bytes", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.pool_efficiency", "ratio", "higher"),
    ("failed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
# Per-layer counts that must repeat exactly between calls on the same input.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


class GateError(Exception):
    """A correctness check failed; the run reports no numbers."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tacosim benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds (self-test)")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference digests the gate compares against")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the reference digests from this checkout and exit")
    args = parser.parse_args(argv)
    if not (SRC / "tacosim" / "__init__.py").is_file():
        print(f"tacobench: no tacosim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tacosim

    if Path(tacosim.__file__).resolve().parent != (SRC / "tacosim").resolve():
        print(f"tacobench: imported tacosim from {tacosim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(args.reference)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    WORK.mkdir(exist_ok=True)
    try:
        report = run(args)
    except GateError as exc:
        print(f"tacobench: gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "out", ignore_errors=True)
    for name, (value, unit, note) in report["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}  ({note})")
    print(f"failures {report['failed']} of {report['attempted']} trials attempted")
    print("env " + json.dumps(report["env"], sort_keys=True))
    (WORK / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report["metrics"].items()},
    }))
    return 0


def run(args) -> dict:
    reference = json.loads(args.reference.read_text())
    expected = reference[args.size]
    gate_before(args, expected)
    calls = measure(args)
    gate_after(args, calls, expected)
    primary = "pool" if wl.WORKERS[args.workload] > 1 else "serial"
    timed = calls[primary]
    every = [c for kind in calls.values() for c in kind]
    attempted = sum(c["trials"] for c in every)
    failed = sum(c["failed"] for c in every)
    if args.trace == 0:
        note = f"median of {len(timed)} {primary} calls at reference host speed"
        raw_tps = med(c["trials"] / c["wall_s"] for c in timed)
        metrics = {
            "trials_per_s": (med(rate(c, "trials") for c in timed), "1/s",
                             f"{note}; {raw_tps:.6g} unscaled"),
            "steps_per_s": (med(rate(c, "steps") for c in timed), "1/s", note),
            "peak_rss_mb": (med(c["peak_rss_mb"] for c in timed), "MB",
                            f"median of {len(timed)} {primary} calls"),
            "setup_s": (med(c["setup_s"] / c["slowdown"] for c in timed), "s", note),
        }
    else:
        metrics = layer_report(calls)
        metrics["failed_ratio"] = (failed / attempted, "ratio", f"{failed} of {attempted} trials")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "env": environment(), "calls": calls, "workload": args.workload,
            "seed": args.seed, "size": args.size}


def med(values) -> float:
    return statistics.median(list(values))


def rate(call: dict, count: str) -> float:
    """A call's count per second, at reference host speed."""
    return call[count] / call["wall_s"] * call["slowdown"]


def layer_report(calls) -> dict:
    traced = calls["traced"]
    n = len(traced)
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in COUNTS:
            out[name] = (traced[0]["layers"][name], unit,
                         f"exact count, repeats in all {n} traced calls")
        elif unit in TIME_UNITS:
            out[name] = (med(c["layers"][name] / c["slowdown"] for c in traced), unit,
                         f"median of {n} traced calls at reference host speed")
        elif name in traced[0]["layers"]:
            out[name] = (med(c["layers"][name] for c in traced), unit, f"median of {n} traced calls")
    tps = {kind: med(rate(c, "trials") for c in calls[kind]) for kind in ("serial", "pool")}
    out["experiments.pool_efficiency"] = (
        tps["pool"] / (2 * tps["serial"]), "ratio",
        f"trials/s with 2 workers over twice that with 1, "
        f"medians of {len(calls['pool'])} and {len(calls['serial'])} calls")
    wall = {kind: med(c["wall_s"] / c["slowdown"] for c in calls[kind])
            for kind in ("serial", "traced")}
    out["trace.overhead_ratio"] = (
        wall["traced"] / wall["serial"] - 1, "ratio",
        "median traced wall over median untraced wall, minus 1")
    return out


def spawn(args, kind: str, seq: int) -> dict:
    """One timed call of the workload in a fresh interpreter."""
    spec = {
        "src": str(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "workers": 2 if kind == "pool" else 1,
        "traced": kind == "traced",
        "out_dir": str(WORK / "out" / f"call{seq}"),
        "spans_path": str(WORK / f"spans_{args.workload}.csv"),
    }
    spec["spawn_ns"] = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateError(f"{kind} call did not finish within {CALL_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise GateError(f"{kind} call exited with {proc.returncode}: {tail[0]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["kind"] = kind
    out["slowdown"] = out["calibration_s"] / CALIBRATION_REF_S
    return out


def measure(args) -> dict[str, list[dict]]:
    """Fresh-process calls until --seconds have passed and each kind has MIN_CALLS.

    --trace 0 times the workload's own call ("serial", or "pool" for
    montecarlo_pool, which also makes one serial call so the gate can compare
    their CSVs). --trace 1 cycles serial, traced and pool calls, so that the
    traced run also yields the tracing overhead and the pool efficiency.
    """
    pooled = wl.WORKERS[args.workload] > 1
    if args.trace:
        cycle = ("serial", "traced", "pool")
    else:
        cycle = ("pool",) if pooled else ("serial",)
    calls: dict[str, list[dict]] = {"serial": [], "traced": [], "pool": []}
    start = time.monotonic()

    def timed_call(kind):
        calls[kind].append(spawn(args, kind, sum(map(len, calls.values()))))

    if pooled and not args.trace:
        timed_call("serial")
    while True:
        for kind in cycle:
            timed_call(kind)
        done = all(len(calls[kind]) >= MIN_CALLS[args.trace] for kind in cycle)
        if done and time.monotonic() - start >= args.seconds:
            return calls


def gate_before(args, expected) -> None:
    """Checks that need no timed call: reference digests and backend agreement."""
    from tacosim import engine

    w = args.workload
    if w in wl.SEEDED:
        # The reference case of both Monte Carlo workloads: the reference seed
        # at gate size, serial and pooled. Their CSVs must be the same bytes.
        if expected["montecarlo"]["csv_sha256"] != expected["montecarlo_pool"]["csv_sha256"]:
            raise GateError("the reference CSVs of montecarlo and montecarlo_pool differ")
        for name in ("montecarlo", "montecarlo_pool"):
            got = wl.prepare(name, REFERENCE_SEED, args.size, WORK / "out" / "gate",
                             trials=wl.SIZES[args.size]["gate_trials"])()
            check_digests(f"{name} at the reference seed", got.__dict__, expected[name])
        for config, agents in wl.exact_pairs(args.seed, args.size):
            fast = wl.outcome_text(engine.run_taco(config, agents))
            slow = wl.outcome_text(engine.run_taco(config, agents, backend="exact"))
            if fast != slow:
                raise GateError(f"default and exact backends disagree:\n{fast}vs\n{slow}")
    if w == "long_window":
        got = wl.prepare(w, args.seed, args.size, WORK / "out" / "gate", backend="exact")()
        check_digests("long_window on the exact backend", got.__dict__, expected[w])


def gate_after(args, calls, expected) -> None:
    """Checks on the timed calls' own outputs, before anything is reported."""
    every = [c for kind in calls.values() for c in kind]
    if len({c["csv_sha256"] for c in every}) != 1:
        raise GateError("calls on the same input wrote different CSV bytes")
    for kind in calls:
        if len({c["summary_sha256"] for c in calls[kind]}) > 1:
            raise GateError(f"{kind} calls on the same input wrote different summaries")
    if args.workload not in wl.SEEDED:
        for c in calls["serial"]:
            check_digests(f"{args.workload} call", c, expected[args.workload])
    if calls["traced"]:
        first = calls["traced"][0]["layers"]
        for c in calls["traced"]:
            layers = c["layers"]
            changed = [k for k in COUNTS if layers.get(k) != first.get(k)]
            if changed:
                raise GateError(f"traced counts changed between calls: {changed}")
            if abs(layers["_parts_s"] - layers["_call_s"]) > 1e-6 * layers["_call_s"]:
                raise GateError("layer self times do not add up to the traced call")


def check_digests(what: str, got: dict, want: dict) -> None:
    for key in ("csv_sha256", "summary_sha256"):
        if got[key] != want[key]:
            raise GateError(f"{what}: {key} {got[key][:12]} is not the reference {want[key][:12]}")


def record_reference(path: Path) -> None:
    """Write the digests the gate expects, from the current checkout."""
    out = {"reference_seed": REFERENCE_SEED}
    for size_name, size in wl.SIZES.items():
        out[size_name] = {}
        for w in wl.WORKLOADS:
            kw = {"trials": size["gate_trials"]} if w in wl.SEEDED else {}
            got = wl.prepare(w, REFERENCE_SEED, size_name, WORK / "out" / "record", **kw)()
            out[size_name][w] = {"csv_sha256": got.csv_sha256,
                                 "summary_sha256": got.summary_sha256}
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def environment() -> dict:
    """Where the numbers came from: machine, versions and code revision."""
    import numpy
    import tacosim

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "backend": tacosim.resolve_backend(),
        "tacosim": tacosim.__version__,
        "git_sha": sha,
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    sys.exit(main())
