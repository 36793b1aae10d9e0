"""The constant-trading-unit window kernel: the engine's only inner loop.

Policy
------
The exact-rational board is the canonical semantics. Between two reductions
of the trading unit the net matrix is ``net0 + d * delta`` where ``delta`` is
an integer matrix updated by +-1/+-n per turn, and d is constant and
nonzero, so within a window cycle detection is integer equality on
``(delta, playing_agent)`` -- the same as equality of the exact net, with no
float tolerance anywhere in the detection path. Each turn observes a state
(delta before that turn's update, plus the agent on turn); the window stops
at the first observation that repeats an earlier one, with that turn's board
update still pending, which the engine either drops (termination) or applies
at the reduced trading unit.

The detector stores one observation per round, not one per turn. The agent
on turn is part of the state, so a repeat spans whole rounds, and the turns
are deterministic, so once a state repeats the window repeats it every
cycle length. Hence the first repeat also shows, within n - 1 turns, at an
observation of the window's first player, and the kernel records only
those; on a hit it walks back to the first repeat. The window ends where a
detector storing every observation would end it: same steps, same cycle
start, and the same history_cap, which still counts every observation.

A drift is a run of rounds in which every agent repeats its choice of
the round before, so delta moves by the same integer step each round; at a
small trading unit nearly all of a window's turns can be one drift. The
kernel crosses a drift in one jump, with every decision the one stepping
would make. At a recorded observation whose two rounds before are equal,
with i0 repeating its choice, agent i's delta on column j is
``base_ij + r*step_ij`` at round r ahead, ``step_ij = cnt_j - n*[j ==
p_i]``, p_i being i's choice and cnt_j the number of agents on j. Each
correctly rounded operation of a cell is nondecreasing in that integer
(the engine refuses b <= 0, and den > 0), so agent i's own cell can only
fall as r grows and every other cell only rise: "every agent repeats"
holds up to some round and fails from then on. So every window may jump:
a float unit that underflows to 0.0 only makes the cells constant. An
agent's gap between its choice and another option falls by a fixed amount
a round, so the cached rows predict that round R; a search over the
kernel's own cell expression starts at the prediction, gallops away from
it with doubling steps and bisects: two row evaluations when the
prediction is right, O(log e) when it is e rounds off. The turn log
takes the R rounds as one run, and the counts and the state key grow by R
times the round's. A round of all n agents on one column leaves delta
unchanged: the detector finds that repeat first.

The detector records nothing inside a jump. Drift states are distinct, and
a later state equal to a skipped one follows the same drift to the same
end, which the jump leaves for the loop to look up; so the first key hit
still has lag exactly lam, and the walk-back, which reads only choices,
finds the first repeat even inside the drift. A jump runs to the drift's
end, and the turns run on past `stop` to look that end up; past `stop`
any drift is jumped, and the turns run two rounds further, so a repeat
that lies before the budget or the cap, behind a skipped state, still
shows. A drift longer than `stop` steps holds no such repeat and ends the
window there. A drift that prediction puts under a dozen turns is
stepped, not searched.

Every cell is one expression of the window's anchors ``(net0, unit,
den)``: agent i on choice j at integer delta k has the profit ``b_i *
((net0[i][j] + unit * k) / den) - C_i[j]``, and the argmax takes the
lowest index on ties. The kernel, its drift search and ``window_rows`` all
compute it, on whatever numbers the engine anchored the window with (see
``engine._LatticeBoard.anchors``): lattice ints, when the net is the float
of the exact rational, or floats divided once at the window start, with
den 1.0, when it is float64 ``net0f + d * k``.

The loop runs on Python floats and ints, repeating numpy's elementwise
operations in the same order, since per-step dispatch, not arithmetic,
sets the cost of a few-cell row. Each agent's profit row is cached and only
the cells whose column was chosen since that agent's last turn are
recomputed. The state key is Zobrist's linear hash of delta (Zobrist, "A
New Hashing Method with Application for Game Playing", 1970) kept as an
unbounded Python int and updated in O(1) per turn; a key hit is only a
candidate, confirmed exactly from the turns in between.

The kernel records only what each turn chose, run-length (``TurnLog``): a
stepped turn is one entry of a plain list, which the loop appends to and
reads by negative index, and a jumped drift is one run, so a drift costs
O(1) time and memory however long it is. Who played a turn follows from
the turn order. The cycle search, the walk-back and the cut at the
window's end read the turns through the runs; a cut may end a run inside
a round; a log that holds no run, as a default sweep's windows do, is
read as one slice. No profit row is stored beyond each agent's cached
one. A cycle of one round (all n agents on one column) hands back a copy
of each cached row, in turn order: each is its agent's row at the same
state. A cell is a pure function of (agent, choice, integer delta), so
``window_rows`` rebuilds, bit for bit, the rows of a longer cycle and those
the engine's lazy trace reads, from the window's anchors and expanded
choices. Every row handed out is a tuple of the Python floats computed
here, so it is read-only and needs no conversion on the way to its readers.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple


class TurnLog(NamedTuple):
    """A window's choices, run-length; who played each turn follows from the order.

    Turn u of a window starting at position pos0 is played by ``order[(pos0
    + u) % n]``, so only the choices are kept. ``choices`` holds the stepped
    turns in order; a run ``(k, r)`` in ``runs`` (by increasing k) stands
    for r more rounds of ``choices[k - n : k]`` between entries k - 1 and k,
    a drift the kernel crossed in one jump. The last 2n entries of
    ``choices`` are always the window's last 2n turns (a run follows two
    equal rounds of its pattern), so the kernel reads them by negative index.
    """

    choices: list[int]
    runs: list[tuple[int, int]]
    n: int

    def pieces(self, lo: int, hi: int) -> Iterator[tuple[int, list[int], int]]:
        """Turns lo..hi-1, in order, as pieces ``(first turn, choices, repeats)``.

        A piece stands for its choices repeated; with repeats > 1 they are one
        round, so the agents repeat too. A log that holds no run is one slice.
        """
        choices, n = self.choices, self.n
        if not self.runs:
            lo = max(lo, 0)
            if lo < min(hi, len(choices)):
                yield lo, choices[lo:hi], 1
            return
        c = t = 0  # entry c of choices holds turn t
        for k, r in (*self.runs, (len(choices), 0)):
            x, y = max(lo, t), min(hi, t + k - c)
            if x < y:
                yield x, choices[x - t + c : y - t + c], 1
            t += k - c
            c = k
            x, y = max(lo, t), min(hi, t + r * n)
            if x < y:
                ph = (x - t) % n
                pattern = choices[k - n + ph : k] + choices[k - n : k - n + ph]
                reps, rest = divmod(y - x, n)
                if reps:
                    yield x, pattern, reps
                if rest:
                    yield x + reps * n, pattern[:rest], 1
            t += r * n
            if t >= hi:
                return

    def expand(self, lo: int, hi: int) -> list[int]:
        """The choices of turns lo..hi-1, as a plain list."""
        if not self.runs:
            return self.choices[max(lo, 0) : max(hi, 0)]
        out: list[int] = []
        for _, seq, reps in self.pieces(lo, hi):
            out += seq * reps
        return out

    def truncate(self, end: int) -> None:
        """Drop the turns from ``end`` on, in place; a run may end inside a round."""
        choices, runs, n = self.choices, self.runs, self.n
        t = len(choices) + n * sum(r for _, r in runs)  # the turns held
        while runs and end < t - len(choices) + runs[-1][0]:  # end is before the run's end
            k, r = runs.pop()
            t -= len(choices) - k + r * n  # the run's first turn
            del choices[k:]
            if end > t:  # keep the run's whole rounds, as a run if more than one
                reps, rest = divmod(end - t, n)
                if reps > 1:
                    runs.append((k, reps))
                    reps = 0
                choices += choices[k - n : k] * reps + choices[k - n : k - n + rest]
                return
        del choices[len(choices) - t + end :]


@dataclass
class WindowResult:
    """Outcome of running one constant-d window.

    status is "detected" (the observed state repeated; s0_rel is the
    window-relative 1-based step at which it was first observed), "budget"
    (step allowance exhausted) or "history_cap" (history_cap observations
    passed without a repeat).
    log holds the choices of the window's turns 1..steps, run-length;
    selcount[i][j] counts agent i's applied turns on j. When status is
    "detected" or "history_cap", the final turn's board update is pending:
    selcount covers only the first steps-1 turns. cycle and profit_rows hold
    the choices and the rows, each a tuple of floats, of the 0-based turns
    s0_rel..steps-1, None unless status is "detected"; tail the last n choices.
    """

    status: str
    steps: int
    s0_rel: int
    log: TurnLog
    profit_rows: list[tuple[float, ...]] | None
    selcount: list[list[int]]
    cycle: list[int] | None
    tail: list[int]


@functools.lru_cache(maxsize=64)
def _zobrist_keys(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Deterministic state-hash increments for an n x m board.

    With random 64-bit keys Z, the key of a delta is ``sum(Z[r][j] *
    delta[r][j])``. A turn of agent i on j adds 1 to delta[:, j] and
    subtracts n from delta[i][j], so it moves the sum by ``inc[i][j] =
    sum_r Z[r][j] - n * Z[i][j]``. Returns inc. The agent on turn needs no
    key: only the window's first player's observations are recorded. Z is
    the splitmix64 sequence (Steele, Lea & Flood, OOPSLA 2014) seeded by
    the shape.
    """
    x, Z = n << 32 | m, []  # Z[i * m + j]
    for _ in range(n * m):
        x = (x + 0x9E3779B97F4A7C15) % 2**64
        z = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        Z.append(z ^ z >> 31)
    colsum = [sum(Z[j::m]) for j in range(m)]
    return tuple(tuple(c - n * z for c, z in zip(colsum, Z[i : i + m])) for i in range(0, n * m, m))


def run_window(
    net0: list[list[int]] | list[list[float]],
    unit: int | float,
    den: int | float,
    b: list[float],
    C: list[list[float]],
    order: list[int],
    pos0: int,
    budget: int,
    history_cap: int,
) -> WindowResult:
    """Run auction turns until detection, budget, or history cap.

    Agent i observes on choice j at integer delta k the net ``(net0[i][j]
    + unit * k) / den``: the anchors are all ints, or floats with den 1.0
    (see the module docstring). ``b``, ``C`` and ``order`` are Python lists
    too. A window always starts with an empty state history, and the first
    turn's observation (zero delta) is recorded. ``history_cap`` counts
    observations, recorded or not: a window that reaches observation
    history_cap + 1 without a repeat ends with status "history_cap".
    """
    if budget <= 0:
        raise ValueError(f"window budget must be positive, got {budget}")
    n, m = len(C), len(C[0])
    inc = _zobrist_keys(n, m)
    # The board change since the window began: delta[i][j] = col[j] - n*sel[i][j].
    col = [0] * m
    sel = [[0] * m for _ in range(n)]
    rows = [[0.0] * m for _ in range(n)]  # each agent's profit row, as of its last turn
    all_cols = range(m)
    choices: list[int] = []
    log = TurnLog(choices, [], n)
    # Only the observations of the window's first player i0 (steps t = 1 mod
    # n) are recorded, keyed on delta's hash alone. If the first repeat is
    # step t* = s* + lam (n divides lam), step t + lam repeats step t for
    # every t >= s*, so the first recorded step t' >= t* is the first true
    # hit and its partner is t' - lam; walking both back while the turns
    # before them agree finds (s*, t*). A key hit is only a candidate; a hit
    # that is not the same state goes to `collided`, so a later true repeat
    # is still found.
    agents = order[pos0 % n :] + order[: pos0 % n]  # a round's players, in turn order
    # Turn t is played in phase t % n, by agents[t % n]: per phase, that agent's
    # row, counts, valuation, costs, anchors and hash increments, and the next phase.
    phases = [(rows[i], sel[i], b[i], C[i], net0[i], inc[i], (q + 1) % n)
              for q, i in enumerate(agents)]
    ph = 0
    history: dict[int, int] = {}
    collided: dict[int, list[int]] = {}
    h = 0
    # The window ends at step `last` unless a repeat shows first: by the
    # budget, or, past history_cap observations, by the cap. A repeat t* <=
    # last may show only at the first recorded step >= last (`stop`), so the
    # turns run on to it.
    last = min(budget, max(history_cap, 0) + 1)
    stop = last + (1 - last) % n
    # A drift jump (see the module docstring) of max_rounds runs past any
    # drift end a repeat t* <= last can need, and ends the window.
    base_stop = stop
    max_rounds = stop // n + 3
    status = "budget" if last <= history_cap else "history_cap"
    end = last
    s0 = -1
    hit = False
    t = 0
    while t < stop:
        row, sel_i, b_i, C_i, net0_i, inc_i, next_ph = phases[ph]
        # A first turn fills the row; after that only the columns chosen since
        # agent i's last turn (the last n turns) have changed. On float anchors
        # the cell repeats numpy's b_i * (net0f[i] + d * delta[i]) - C[i]: the
        # same IEEE operations in the same order, so bit for bit the same row.
        cols = choices[-n:] if t >= n else all_cols
        for j in cols:
            row[j] = b_i * ((net0_i[j] + unit * (col[j] - n * sel_i[j])) / den) - C_i[j]
        j = row.index(max(row))  # lowest index on ties, like argmax
        choices.append(j)
        t += 1
        if not ph:
            first = history.get(h)
            if first is None:
                history[h] = t
            else:
                s = _find_repeat(first, collided.get(h, ()), t, log, m)
                if s > 0:
                    # With observations s and s+lam equal, s-1 and s-1+lam
                    # are equal iff turns s-1 and s-1+lam (one agent, as n
                    # divides lam) took the same choice: a choice is a function
                    # of the observation, and for n >= 2 a turn's update
                    # differs between choices. The turns are read a stretch
                    # of lam at a time.
                    lam = t - s
                    while s > 1:
                        lo = max(0, s - 1 - lam)
                        turns = log.expand(lo, s - 1 + lam)
                        k = s - 1 - lo
                        while k and turns[k - 1] == turns[k - 1 + lam]:
                            k -= 1
                        s = lo + k + 1
                        if k:
                            break
                    if s + lam <= last:
                        status = "detected"
                        s0 = s
                        end = s + lam
                    hit = True
                    break
                collided.setdefault(h, []).append(t)
            # i0 repeats its choice of a round ago, after two equal rounds:
            # a drift may run on from this round, which began at turn t - 1.
            if (
                t > 2 * n
                and choices[-1] == choices[-1 - n]
                and choices[-1 - n : -1] == choices[-1 - 2 * n : -1 - n]
            ):
                # A drift of a dozen turns costs less to step through than to
                # search. Past base_stop a pending repeat may need the jump, so
                # any drift is taken.
                min_steps = 12 if t < base_stop else 0
                pattern = choices[-1 - n : -1]
                r = _drift_rounds(
                    net0, unit, den, b, C, agents, pattern, col, sel, rows,
                    max_rounds, min_steps,
                )
                if r:
                    # Turn t - 1, whose update is not applied yet, begins r
                    # rounds of the pattern: one run in the log.
                    choices.pop()
                    log.runs.append((len(choices), r))
                    for a_k, c_k in zip(agents, pattern):
                        h += r * inc[a_k][c_k]
                        col[c_k] += r
                        sel[a_k][c_k] += r
                    t += r * n - 1
                    if r < max_rounds:  # the drift's end: look it up
                        stop = max(stop, base_stop + 2 * n, t + 1)
                    continue
        h += inc_i[j]
        col[j] += 1
        sel_i[j] += 1
        ph = next_ph
    # Cut the window at step `end`: take the updates applied past its last
    # applied turn back out of sel (a hit's own turn was never applied).
    keep = end if status == "budget" else end - 1
    for u, seq, reps in log.pieces(keep, t - 1 if hit else t):
        for k, c_k in enumerate(seq, pos0 + u):
            sel[order[k % n]][c_k] -= reps
    log.truncate(end)
    cycle = cycle_rows = None
    if status == "detected":
        cycle = log.expand(s0, end)
        if end - s0 == n:
            # The state repeats every n turns from s0 on, so each cycle turn saw
            # the row its agent last took an argmax over: the cached one.
            cycle_rows = [tuple(rows[order[k % n]]) for k in range(pos0 + s0, pos0 + end)]
        else:  # rebuilt, with the cycle's applied turns taken back from the counts
            start = [row[:] for row in sel]
            for k, c_k in enumerate(cycle[:-1], pos0 + s0):
                start[order[k % n]][c_k] -= 1
            cycle_rows = window_rows(net0, unit, den, b, C, order, pos0 + s0, cycle, start)
    return WindowResult(
        status=status,
        steps=end,
        s0_rel=s0,
        log=log,
        profit_rows=cycle_rows,
        selcount=sel,
        cycle=cycle,
        tail=choices[-n:],
    )


def _drift_rounds(
    net0, unit, den, b, C, agents, pattern, col, sel, rows, max_rounds, min_steps
):
    """How many rounds from the next turn on repeat the round before it, at most max_rounds.

    In the round P just played, agents[q] chose pattern[q]; the next turn
    starts a new round, and its player already chose as in P. col and sel
    are the counts before that turn, and rows the cached rows of the agents'
    turns in P. "Every turn follows P" holds up to some round and fails
    from then on (see the module docstring), so a search over the kernel's
    own cells, started at the last round the cached rows predict, finds that
    round: two row evaluations when the estimate is right, O(log e) when it
    is e rounds off. Returns 0, leaving rows as they are, if the estimate
    is below min_steps turns or if a turn of the next round leaves P;
    otherwise rows holds each agent's row at its turn of the last round.
    A P of all n agents on one column never gets here (module docstring).
    """
    n = len(C)
    cnt = [0] * len(C[0])
    for p in pattern:
        cnt[p] += 1
    # Agent a's gap from p to option j falls by b_a*d*(n - cnt[p] + cnt[j])
    # a round from its cached row, which is at round 0 for the next turn's
    # player and round -1 for the others: that predicts the last round at
    # which a keeps p against j. A fall that rounds to 0.0 predicts nothing,
    # and every estimate is clamped to max_rounds - 1.
    dval = unit / den
    checks = []
    pre = col[:]  # col plus the counts of the pattern's turns before agent a's
    for q, (a, p) in enumerate(zip(agents, pattern)):
        row, bd, est = rows[a], b[a] * dval, max_rounds - 1.0
        for j, x in enumerate(row):
            fall = bd * (n - cnt[p] + cnt[j])
            if j != p and fall > 0:
                est = min(est, (row[p] - x) / fall - (q > 0))
        step = cnt[:]
        step[p] -= n
        checks.append((est, a, p, [c - n * s for c, s in zip(pre, sel[a])], step))
        pre[p] += 1
    checks.sort()  # the likeliest to leave P first
    guess = checks[0][0]  # the drift's last round
    if (guess + 1) * n < min_steps:
        return 0
    cols = range(len(cnt))
    passed = {}  # the rows of each round evaluated
    end = _first_failing(
        lambda r: passed.setdefault(r, _rows_at(r, net0, unit, den, b, C, checks, cols)),
        int(guess), max_rounds,
    )
    if end:
        for (_, a, *_), row in zip(checks, passed[end - 1]):
            rows[a][:] = row
    return end


def _rows_at(r, net0, unit, den, b, C, checks, cols):
    """Each checked agent's row at round r of a drift, or None if one leaves its choice."""
    out = []
    for _, a, p, base, step in checks:
        b_a, C_a, net0_a = b[a], C[a], net0[a]
        row = [b_a * ((net0_a[j] + unit * (base[j] + r * step[j])) / den) - C_a[j] for j in cols]
        if row.index(max(row)) != p:
            return None
        out.append(row)
    return out


def _first_failing(ok, guess, max_rounds):
    """The first round in 0..max_rounds-1 at which ok fails, or max_rounds if none does.

    ok holds up to some round and fails from then on. It is evaluated at the
    guess, clamped to that range, then at doubling steps away from it until
    the first failing round is bracketed, then by bisection: at most 2 + 2 *
    ceil(log2(|guess - answer| + 1)) evaluations, 2 if the guess is the last
    round at which ok holds.
    """
    lo, hi, step = -1, max_rounds, 1
    mid = min(max(guess, 0), max_rounds - 1)
    while hi - lo > 1:
        if ok(mid):
            lo = mid
        else:
            hi = mid
        # Gallop while no round has failed, or none has held; then bisect.
        mid = lo + step if hi == max_rounds else hi - step if lo < 0 else (lo + hi) // 2
        step *= 2
        if not lo < mid < hi:
            mid = (lo + hi) // 2
    return hi


def window_rows(net0, unit, den, b, C, order, pos, choices, sel) -> list[tuple[float, ...]]:
    """The profit rows of consecutive turns of a window, evaluated from scratch.

    ``net0``, ``unit``, ``den``, ``b`` and ``C`` are the window's anchors as
    ``run_window`` took them. Turn k of the stretch is played by
    ``order[(pos + k) % n]`` and chose ``choices[k]``; ``sel[i][j]`` counts
    agent i's turns on j before the stretch and is not modified. Every cell
    is the kernel's one expression at the integer delta the agent observed,
    so each row is bit for bit the row the kernel took its argmax over.
    Returns one tuple of m floats per turn. The kernel calls it only for
    cycles longer than one round; the engine's lazy trace for its rows.
    """
    n = len(C)
    sel = [row[:] for row in sel]
    col = [sum(c) for c in zip(*sel)]
    cols = range(len(C[0]))
    out = []
    for k, c in enumerate(choices, pos):
        i = order[k % n]
        sel_i = sel[i]
        b_i, C_i, net0_i = b[i], C[i], net0[i]
        row = [b_i * ((net0_i[j] + unit * (col[j] - n * sel_i[j])) / den) - C_i[j] for j in cols]
        out.append(tuple(row))
        col[c] += 1
        sel_i[c] += 1
    return out


def _find_repeat(first, more, t, log, m):
    """The earlier step whose observation step t repeats exactly, or -1.

    Observations s < t see the same delta iff turns s..t-1 left it unchanged:
    every column gained as many +1s as -n, i.e. each agent chose it equally
    often. Then each agent had as many turns, so (t - s) % n == 0 and the
    same agent is on turn too. A turn's agent is a function of its phase in
    the round, so the turns are counted by phase, a run's rounds at once.
    """
    n = log.n
    for s in (first, *more):
        counts = [0] * (n * m)  # phase q's count on choice j at q*m + j
        for u, seq, reps in log.pieces(s - 1, t - 1):
            for k, j in enumerate(seq, u):
                counts[k % n * m + j] += reps
        if counts[:m] * n == counts:  # every phase's row equals phase 0's
            return s
    return -1
