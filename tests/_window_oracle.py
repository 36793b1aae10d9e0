"""The numpy window kernel, kept as an oracle for the shipped scalar kernel.

This is the loop ``_fastpath`` ran before its scalar rewrite: every turn it
builds the playing agent's whole profit row as an ndarray from the agent's
integer delta row, takes ``argmax``, and keys the state history on the full
delta bytes plus the agent on turn, so a repeat is found by exact equality
with no hashing of its own. It shares no loop code with the shipped kernel;
only ``WindowResult`` and ``TurnLog`` are imported, to compare like with
like. Unlike the shipped kernel it steps every turn, so its log holds no
run, and it keeps every turn's row, returned beside the result, so each row
the kernel no longer stores can still be checked.
"""

from __future__ import annotations

import numpy as np

from tacosim._fastpath import TurnLog, WindowResult


def float_net_row(net0f, dval):
    """The float backends' net row: net0f[i] + dval * delta_i, elementwise."""
    net0_rows = list(net0f)

    def net_row(i, delta_i):
        return net0_rows[i] + dval * delta_i

    return net_row


def exact_net_row(lattice):
    """The exact backend's net row for a window starting on ``lattice``.

    Agent i at integer delta row delta_i observes a*(N0[i] + p^K*delta_i) /
    (b*q^K), each cell one correctly rounded Python int division.
    """
    a, pk, den = lattice.a, lattice.pk, lattice.unit_den
    net0 = [[o - p for o, p in zip(lattice.offers, row)] for row in lattice.pays]

    def net_row(i, delta_i):
        return np.array(
            [a * (v + pk * k) / den for v, k in zip(net0[i], delta_i.tolist())],
            dtype=np.float64,
        )

    return net_row


def run_window_oracle(
    net_row, b, C, order, pos0, budget, history_cap
) -> tuple[WindowResult, np.ndarray]:
    """One constant-d window, with the shipped kernel's WindowResult contract.

    Returns the result and every turn's profit row, stacked in turn order.
    """
    n, m = C.shape
    delta = np.zeros((n, m), dtype=np.int64)
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
    # The last turn's update is pending unless the budget ran out.
    applied = t if status == "budget" else t - 1
    selcount = np.bincount(
        np.array(players[:applied], dtype=np.int64) * m
        + np.array(choices[:applied], dtype=np.int64),
        minlength=n * m,
    ).reshape(n, m)
    all_rows = np.stack(rows)
    result = WindowResult(
        status=status,
        steps=t,
        s0_rel=s0,
        log=TurnLog(choices, [], n),
        profit_rows=all_rows[s0:] if status == "detected" else None,
        selcount=selcount.tolist(),
        cycle=choices[s0:] if status == "detected" else None,
        tail=choices[-n:],
    )
    return result, all_rows
