"""The constant-trading-unit window kernel: the engine's only inner loop.

Policy
------
The exact-rational board is the canonical semantics. Between two reductions
of the trading unit the net matrix is ``net0 + d * delta`` where ``delta`` is
an integer matrix updated by +-1/+-n per turn, and d is constant and
nonzero, so within a window cycle detection is integer equality on
``(delta, playing_agent)`` -- the same as equality of the exact net, with no
float tolerance anywhere in the detection path. Each turn records the state
the playing agent observed (delta before that turn's update); when an
observation repeats one, the window stops with the final turn's board update
still pending, which the engine either drops (termination) or applies at the
reduced trading unit.

The backends differ only in the net row the playing agent observes; the
profit row is ``b_i * net_row - C_i`` and the argmax takes the lowest index
on ties. "exact" gets the float of the exact rational net from the engine's
lattice (one correctly rounded integer division per cell). "numpy" and
"numba" compute ``net0f + d * delta`` in float64, ``net0f`` being anchored
from the lattice at every window start so float error never accumulates
across windows; they use the same elementwise operation order, so the two
are bit-identical and any deviation is a bug in the fast path. Floats of
mathematically tied options may still break ties differently between
"exact" and the float backends.

Backend selection: the TACO_BACKEND environment variable ("auto", "numba",
"numpy", "exact") or an explicit argument. "auto" uses numba when importable
and falls back to numpy otherwise.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        return wrap


ENV_VAR = "TACO_BACKEND"
BACKENDS = ("auto", "numba", "numpy", "exact")

_FNV_OFFSET = -3750763034362895579  # 0xcbf29ce484222325 as signed int64
_FNV_PRIME = 1099511628211


def resolve_backend(name: str | None = None) -> str:
    """Map a requested backend (or the TACO_BACKEND default) to a concrete one."""
    if name is None:
        name = os.environ.get(ENV_VAR, "auto")
    name = name.lower()
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    if name == "auto":
        return "numba" if NUMBA_AVAILABLE else "numpy"
    if name == "numba" and not NUMBA_AVAILABLE:
        raise RuntimeError("backend 'numba' requested but numba is not importable")
    return name


@dataclass
class WindowResult:
    """Outcome of running one constant-d window.

    status is "detected" (the observed state repeated; s0_rel is the
    window-relative 1-based step at which it was first observed), "budget"
    (step allowance exhausted) or "history_cap" (too many recorded states).
    Arrays cover the turns actually taken, in order. When status is
    "detected" or "history_cap", the final turn's board update is pending:
    selcount covers only the first steps-1 turns.
    """

    status: str
    steps: int
    s0_rel: int
    players: np.ndarray
    choices: np.ndarray
    profit_rows: np.ndarray
    selcount: np.ndarray


def run_window(
    backend: str,
    net0f: np.ndarray,
    dval: float,
    b: np.ndarray,
    C: np.ndarray,
    order: np.ndarray,
    pos0: int,
    budget: int,
    history_cap: int,
    net_row: Callable[[int, np.ndarray], np.ndarray] | None = None,
) -> WindowResult:
    """Run auction turns until detection, budget, or history cap.

    A window always starts with an empty state history; the first turn's
    observation (zero delta plus the agent on turn) is recorded like any
    other. ``net_row(i, delta_i)`` is the net row agent i observes at integer
    delta row ``delta_i``; the float backends default it to
    ``net0f[i] + dval * delta_i``, and "exact" must pass the float of the
    exact rational net. The numba kernel inlines the float formula.
    """
    if budget <= 0:
        raise ValueError(f"window budget must be positive, got {budget}")
    if backend == "numba":
        return _run_window_numba(net0f, dval, b, C, order, pos0, budget, history_cap)
    if backend == "numpy" and net_row is None:
        net0_rows = list(net0f)

        def net_row(i, delta_i):
            return net0_rows[i] + dval * delta_i

    elif backend not in ("numpy", "exact") or net_row is None:
        raise ValueError(
            f"run_window takes 'numpy', 'numba', or 'exact' with a net_row; got {backend!r}"
        )
    return _run_window_numpy(net_row, b, C, order, pos0, budget, history_cap)


def _run_window_numpy(net_row, b, C, order, pos0, budget, history_cap):
    n, m = C.shape
    delta = np.zeros((n, m), dtype=np.int64)
    # Per-step work is Python dispatch, so index Python lists and row views
    # rather than the arrays themselves.
    order_l = order.tolist()
    b_l = b.tolist()
    delta_rows = list(delta)
    C_rows = list(C)
    history: dict[tuple[bytes, int], int] = {}
    players: list[int] = []
    choices: list[int] = []
    rows: list[np.ndarray] = []
    t = 0
    status = "budget"
    s0 = -1
    while t < budget:
        i = order_l[(pos0 + t) % n]
        row = b_l[i] * net_row(i, delta_rows[i]) - C_rows[i]
        j = int(row.argmax())
        players.append(i)
        choices.append(j)
        rows.append(row)
        t += 1
        key = (delta.tobytes(), i)
        prev = history.get(key)
        if prev is not None:
            status = "detected"
            s0 = prev
            break
        if len(history) >= history_cap:
            status = "history_cap"
            break
        history[key] = t
        delta[:, j] += 1
        delta[i, j] -= n
    profit_rows = np.stack(rows)  # budget > 0, so at least one turn was taken
    del rows  # free the per-step rows before allocating the other outputs
    # The last turn's update is pending unless the budget ran out.
    applied = t if status == "budget" else t - 1
    players_a = np.array(players, dtype=np.int64)
    choices_a = np.array(choices, dtype=np.int64)
    selcount = np.bincount(
        players_a[:applied] * m + choices_a[:applied], minlength=n * m
    ).reshape(n, m)
    return WindowResult(
        status=status,
        steps=t,
        s0_rel=s0,
        players=players_a,
        choices=choices_a,
        profit_rows=profit_rows,
        selcount=selcount,
    )


@njit(cache=True)
def _rebuild_table_njit(table, snap_hash, nsnap):
    table[:] = 0
    tmask = table.shape[0] - 1
    for idx in range(nsnap):
        slot = snap_hash[idx] & tmask
        while table[slot] != 0:
            slot = (slot + 1) & tmask
        table[slot] = idx + 1


@njit(cache=True)
def _window_steps_njit(
    net0f,
    dval,
    b,
    C,
    order,
    pos0,
    delta,
    selcount,
    players,
    choices,
    prows,
    snaps,
    snap_agent,
    snap_step,
    snap_hash,
    table,
    state,
    max_entries,
):
    # state holds (steps done, snapshots recorded, budget left) so the kernel
    # can be resumed after the driver grows the buffers.
    n, m = delta.shape
    nm = n * m
    dflat = delta.ravel()
    cap = players.shape[0]
    scap = snaps.shape[0]
    tmask = table.shape[0] - 1
    t = state[0]
    nsnap = state[1]
    left = state[2]
    while True:
        if left <= 0:
            state[0] = t
            state[1] = nsnap
            state[2] = left
            return 2, -1
        if t >= cap or nsnap >= scap:
            state[0] = t
            state[1] = nsnap
            state[2] = left
            return 0, -1
        if nsnap >= max_entries:
            state[0] = t
            state[1] = nsnap
            state[2] = left
            return 3, -1
        i = order[(pos0 + t) % n]
        bi = b[i]
        jstar = 0
        best = bi * (net0f[i, 0] + dval * delta[i, 0]) - C[i, 0]
        prows[t, 0] = best
        for j in range(1, m):
            v = bi * (net0f[i, j] + dval * delta[i, j]) - C[i, j]
            prows[t, j] = v
            if v > best:
                best = v
                jstar = j
        players[t] = i
        choices[t] = jstar
        t += 1
        left -= 1
        # Hash the observed state (delta before this turn's update) + agent.
        h = _FNV_OFFSET
        for k in range(nm):
            h = (h ^ dflat[k]) * _FNV_PRIME
        h = (h ^ i) * _FNV_PRIME
        slot = h & tmask
        repeat = False
        s0 = -1
        while True:
            e = table[slot]
            if e == 0:
                table[slot] = nsnap + 1
                snap_hash[nsnap] = h
                snap_agent[nsnap] = i
                snap_step[nsnap] = t
                for k in range(nm):
                    snaps[nsnap, k] = dflat[k]
                nsnap += 1
                break
            idx = e - 1
            if snap_hash[idx] == h and snap_agent[idx] == i:
                same = True
                for k in range(nm):
                    if snaps[idx, k] != dflat[k]:
                        same = False
                        break
                if same:
                    repeat = True
                    s0 = snap_step[idx]
                    break
            slot = (slot + 1) & tmask
        if repeat:
            state[0] = t
            state[1] = nsnap
            state[2] = left
            return 1, s0
        for r in range(n):
            delta[r, jstar] += 1
        delta[i, jstar] -= n
        selcount[i, jstar] += 1


def _table_size(entries: int) -> int:
    size = 64
    while size < 4 * entries:
        size *= 2
    return size


def _run_window_numba(net0f, dval, b, C, order, pos0, budget, history_cap):
    n, m = C.shape
    nm = n * m
    delta = np.zeros((n, m), dtype=np.int64)
    selcount = np.zeros((n, m), dtype=np.int64)
    cap = max(16, min(int(budget), 256))
    scap = cap
    players = np.empty(cap, dtype=np.int64)
    choices = np.empty(cap, dtype=np.int64)
    prows = np.empty((cap, m), dtype=np.float64)
    snaps = np.empty((scap, nm), dtype=np.int64)
    snap_agent = np.empty(scap, dtype=np.int64)
    snap_step = np.empty(scap, dtype=np.int64)
    snap_hash = np.empty(scap, dtype=np.int64)
    table = np.zeros(_table_size(scap), dtype=np.int64)
    state = np.array([0, 0, int(budget)], dtype=np.int64)
    while True:
        code, s0 = _window_steps_njit(
            net0f, float(dval), b, C, order, int(pos0),
            delta, selcount, players, choices, prows,
            snaps, snap_agent, snap_step, snap_hash, table,
            state, int(history_cap),
        )
        if code != 0:
            break
        # Buffers full: double them and resume where the kernel left off.
        cap = min(max(cap * 2, 32), max(int(budget), 32))
        scap = cap
        t = int(state[0])
        nsnap = int(state[1])
        players = _grown(players, cap)
        choices = _grown(choices, cap)
        prows = _grown(prows, cap)
        snaps = _grown(snaps, scap)
        snap_agent = _grown(snap_agent, scap)
        snap_step = _grown(snap_step, scap)
        snap_hash = _grown(snap_hash, scap)
        table = np.zeros(_table_size(scap), dtype=np.int64)
        _rebuild_table_njit(table, snap_hash, nsnap)
    t = int(state[0])
    status = {1: "detected", 2: "budget", 3: "history_cap"}[int(code)]
    return WindowResult(
        status=status,
        steps=t,
        s0_rel=int(s0),
        players=players[:t].copy(),
        choices=choices[:t].copy(),
        profit_rows=prows[:t].copy(),
        selcount=selcount,
    )


def _grown(arr: np.ndarray, new_len: int) -> np.ndarray:
    if arr.shape[0] >= new_len:
        return arr
    out = np.empty((new_len,) + arr.shape[1:], dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out
