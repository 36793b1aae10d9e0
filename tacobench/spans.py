"""Span tracing from outside the program.

``Tracer.install`` replaces, for one process, the module attributes through
which each layer is called, with wrappers that record a span per call: name,
start, end, parent span and trial id. Spans stay in memory; ``write`` dumps
them at the end and ``layer_metrics`` turns them into the per-layer metrics.
Nothing under ``src/`` changes.

Span names are ``<layer>.<function>``, the layer being the ``src/tacosim``
module that owns the work (``_fastpath`` is ``fastpath``; the exact board
operations that the engine calls are ``board``).
"""

from __future__ import annotations

import time

ROOT_SPAN = "experiments.call"


class Tracer:
    def __init__(self):
        # Each span is [name, start_ns, end_ns, parent index, trial id, extra].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial = 0
        self._undo: list[tuple] = []

    def install(self) -> None:
        from tacosim import _fastpath, baselines, board, engine, experiments, scenario

        steps = lambda args, out: out.steps
        self._wrap(experiments, "make_instance", "scenario.make_instance", new_trial=True)
        self._wrap(scenario, "solve_ordering", "scenario.solve_ordering")
        self._wrap(experiments, "run_taco", "engine.run_taco", steps)
        self._wrap(engine, "run_taco", "engine.run_taco", steps)
        self._wrap(_fastpath, "run_window", "fastpath.run_window",
                   lambda args, out: (out.steps, out.status == "detected"))
        self._wrap(board.PublicBoard, "net_float", "board.net_float",
                   lambda args, out: out.size)
        for name in ("_advance_board", "reduce_trading_unit", "apply_selection", "settle"):
            self._wrap(engine, name, f"board.{name}")
        for name in ("taco_trial_result", "baseline_trial_result"):
            self._wrap(experiments, name, f"metrics.{name}")
        for name in ("voting", "random_dictator", "utilitarian", "egalitarian"):
            self._wrap(baselines, name, f"baselines.{name}")
        for name in ("write_csv", "summarize"):
            self._wrap(experiments, name, f"experiments.{name}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, owner, attr, name, extra=None, new_trial=False):
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if new_trial:
                self._trial += 1
            span = [name, clock(), 0, stack[-1] if stack else -1, self._trial, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def call(self, fn):
        """Run the timed call under the root span and return its result."""
        span = [ROOT_SPAN, 0, 0, -1, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn()
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,trial,extra\n")
            for name, start, end, parent, trial, extra in self.spans:
                fh.write(f"{name},{start},{end},{parent},{trial},{_extra_text(extra)}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the (single) traced call."""
        spans = self.spans
        dur = [(s[2] - s[1]) / 1e9 for s in spans]
        self_time = dur[:]
        for k, s in enumerate(spans):
            if s[3] >= 0:
                self_time[s[3]] -= dur[k]
        by_name: dict[str, list[int]] = {}
        for k, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(k)

        def ids(*names):
            return [k for nm in names for k in by_name.get(nm, [])]

        def busy(*names):
            return sum(dur[k] for k in ids(*names))

        def layer(prefix):
            return [nm for nm in by_name if nm.startswith(prefix + ".")]

        root = by_name[ROOT_SPAN][0]
        runs = ids("engine.run_taco")
        run_ms = sorted(dur[k] * 1e3 for k in runs)
        windows = ids("fastpath.run_window")
        window_steps = [spans[k][5][0] for k in windows]
        fast_busy = busy("fastpath.run_window")
        fast_steps = sum(window_steps)
        board_busy = busy(*layer("board"))
        reanchor = busy("board.net_float", "board._advance_board")
        out = {
            "scenario.calls": len(ids("scenario.make_instance")),
            "scenario.busy_s": busy("scenario.make_instance"),
            "scenario.pava_solves": len(ids("scenario.solve_ordering")),
            "engine.calls": len(runs),
            "engine.busy_s": busy("engine.run_taco"),
            "engine.self_s": sum(self_time[k] for k in runs),
            "engine.run_ms_p50": percentile(run_ms, 50),
            "engine.run_ms_p99": percentile(run_ms, 99),
            "engine.steps": sum(spans[k][5] for k in runs),
            "fastpath.windows": len(windows),
            "fastpath.busy_s": fast_busy,
            "fastpath.steps": fast_steps,
            "fastpath.us_per_step": fast_busy / fast_steps * 1e6 if fast_steps else 0.0,
            "fastpath.detected_ratio":
                sum(1 for k in windows if spans[k][5][1]) / len(windows) if windows else 0.0,
            "fastpath.max_window_steps": max(window_steps, default=0),
            "board.busy_s": board_busy,
            "board.reanchor_us": reanchor / len(windows) * 1e6 if windows else 0.0,
            "board.cells_reanchored": sum(spans[k][5] for k in ids("board.net_float")),
            "metrics.calls": len(ids(*layer("metrics"))),
            "metrics.busy_s": busy(*layer("metrics")),
            "baselines.calls": len(ids(*layer("baselines"))),
            "baselines.busy_s": busy(*layer("baselines")),
            "experiments.output_s": busy("experiments.write_csv", "experiments.summarize"),
            "experiments.self_s": self_time[root],
        }
        # The layer self times partition the timed call: scenario, engine self,
        # fast path, board, metrics, baselines, output and the experiments rest.
        parts = (out["scenario.busy_s"] + out["engine.self_s"] + fast_busy + board_busy
                 + out["metrics.busy_s"] + out["baselines.busy_s"]
                 + out["experiments.output_s"] + out["experiments.self_s"])
        out["_call_s"] = dur[root]
        out["_parts_s"] = parts
        return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _extra_text(extra) -> str:
    if extra is None:
        return ""
    if isinstance(extra, tuple):
        return ";".join(str(int(v)) for v in extra)
    return str(extra)
