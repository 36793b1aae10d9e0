"""One timed call in a fresh interpreter.

Usage (from the benchmark driver only):
    python3 tacobench/child.py '<json spec>'

The spec names the workload, seed, size, worker count, whether to trace, the
parent's monotonic clock at spawn time, and where to write outputs. The child
times a fixed calibration loop, imports tacosim, builds the workload's inputs
(set-up time runs from the parent's spawn, less the calibration), performs
exactly one timed call, times the calibration loop again, and prints one JSON
line. A
fresh process per call is what makes peak RSS meaningful: it ratchets within
a process.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path


def calibrate(rounds: int = 50000) -> float:
    """Seconds for a fixed pure-Python loop: the host's speed around the call.

    It is timed once before tacosim is imported and once after the call has
    returned and any pool workers have exited. The program is running during
    neither timing, so only the host can slow it. The loop mixes the interpreter work tacosim
    spends its time in (float updates, a small argmax, tuple-keyed dict
    inserts and Fraction sums).
    """
    from fractions import Fraction

    vals = [0.0] * 24
    seen = {}
    total = Fraction(0)
    start = time.perf_counter()
    for k in range(rounds):
        i = k % 24
        vals[i] = vals[i] * 0.5 + k % 7
        best = max(range(24), key=vals.__getitem__)
        seen[(i, best, k % 997)] = k
        if k % 16 == 0:
            total += Fraction(best + 1, 50)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak RSS of this process, or of its largest pool worker if that is larger.

    VmHWM belongs to the process's own address space. ru_maxrss would do for
    the workers, but for this process it also counts the parent's peak at the
    fork that preceded exec.
    """
    with open("/proc/self/status") as fh:
        own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main(spec: dict) -> dict:
    calibration_s = calibrate()
    sys.path.insert(0, spec["src"])
    from workloads import prepare
    import tacosim  # noqa: F401  (set-up includes the package import)

    call = prepare(spec["workload"], spec["seed"], spec["size"], Path(spec["out_dir"]),
                   workers=spec["workers"])
    setup_s = (time.monotonic_ns() - spec["spawn_ns"]) / 1e9 - calibration_s
    tracer = None
    if spec["traced"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        result = tracer.call(call)
        wall = time.perf_counter() - start
        tracer.uninstall()
    else:
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
    out = dataclasses.asdict(result)
    out.update(setup_s=setup_s, wall_s=wall, peak_rss_mb=peak_rss_mb(),
               calibration_s=(calibration_s + calibrate()) / 2)
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["layers"]["experiments.csv_bytes"] = result.csv_bytes
        tracer.write(spec["spans_path"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
