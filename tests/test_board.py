"""Exact arithmetic, the reference Fraction board's update rule, and the
replay oracle's cycle detector (the board operations live in ``_replay``)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from _replay import (
    StateKey,
    apply_selection,
    copy_board,
    new_board,
    record_and_detect,
    reduce_trading_unit,
    span_counts,
)
from tacosim.agent import AgentPrivate
from tacosim.baselines import ChoiceProblem
from tacosim.board import exact, floats, shape_of
from tacosim.engine import TacoConfig, run_taco
from tacosim.errors import HistoryLimitError
from tacosim.metrics import cycle_spread_ratio, gini, optimality_gap
from tacosim.scenario import WaypointScenario, example2_fixture, pava, random_problem


def test_exact_coercion():
    assert exact("9/10") == Fraction(9, 10)
    assert exact(" 3/4 ") == Fraction(3, 4)
    assert exact(2) == Fraction(2)
    assert exact(Fraction(7, 3)) == Fraction(7, 3)


def test_exact_returns_a_fraction_as_it_is():
    # A Fraction is immutable, so the same object comes back; everything else
    # is still coerced to a new Fraction, or refused.
    half = Fraction(1, 2)
    assert exact(half) is half
    assert type(exact(3)) is Fraction and exact(3) == 3
    assert type(exact(True)) is Fraction and exact(True) == 1
    assert type(exact("2/4")) is Fraction and exact("2/4") == half
    with pytest.raises(TypeError):
        exact(0.5)


def test_exact_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        exact(0.9)
    with pytest.raises(TypeError):
        exact([1, 2])
    with pytest.raises(ValueError):
        exact("not-a-number")


def test_shape_of_is_numpys_shape():
    # The vector inputs' shape, computed in Python: nested len, () for a
    # str, bytes, scalar or 0-d array.
    cases = [
        [], [1.0, 2.0], (1, 2, 3), [[1.0, 2.0], [3.0, 4.0]], [(1.0,), (2.0,)], "12", b"12",
        3.5, np.float64(1.0), np.array(5.0), np.zeros(3), np.zeros((2, 1)), np.zeros((2, 3, 4)),
        range(4), ["12", "34"],
    ]
    for value in cases:
        assert shape_of(value) == np.shape(value), value
    # numpy refuses a ragged nesting; its regular prefix is what is reported.
    assert shape_of([[1.0, 2.0], [3.0]]) == (2,)


def test_floats_takes_any_one_dimensional_sequence():
    for values in ([1, 2.5], (1, 2.5), np.array([1.0, 2.5]), np.array([1, 2]) * 1.25, range(2)):
        out = floats(values, "v", (None,))
        assert type(out) is tuple and all(type(x) is float for x in out)
        assert out == tuple(np.asarray(values, dtype=np.float64).tolist())
        assert floats(values, "v", (2,)) == out
    rows = floats(np.array([[1, 2], [3, 4]]), "C", (2, 2))
    assert rows == ((1.0, 2.0), (3.0, 4.0)) and all(type(r) is tuple for r in rows)
    for values in ("12", 3.0, np.array(3.0), np.zeros((2, 2)), [[1.0], [2.0]], iter([1.0])):
        with pytest.raises(ValueError) as err:
            floats(values, "v", (None,))
        assert str(err.value) == f"v has shape {np.shape(values)}, expected (any,)"


def test_finite_entries_are_accepted_whatever_their_sum():
    big = [1e308, 1e308]
    assert floats(big, "v", (None,), positive=True) == (1e308, 1e308)
    assert floats([big, big], "C", (2, 2)) == ((1e308, 1e308),) * 2


class _Draws:
    """An rng whose cost draws are fine and whose valuation draw is given."""

    def __init__(self, b):
        self.b = b

    def random(self, size):
        return [[0.5] * size[1]] * size[0] if isinstance(size, tuple) else self.b


_OUTCOME = run_taco(TacoConfig(epsilon=1e-6), example2_fixture().agents())

# Each vector entry point: how to feed it one vector, the name it reports,
# the shape it expects and the rule of its entries (the second vector of a
# pair is read at the first's length, 2 here). The matrix C is fed whole,
# where every bad vector is a bad shape, and as its second row. A free
# length has no wrong length.
_FINITE, _POSITIVE = "finite real", "positive finite real"
_VECTOR_INPUTS = {
    "ChoiceProblem C": (lambda v: ChoiceProblem(n=3, m=2, C=v, b=[1.0] * 3), "C", "(3, 2)", None),
    "ChoiceProblem C row": (
        lambda v: ChoiceProblem(n=2, m=2, C=[[1.0, 1.0], v], b=[1.0] * 2), "C[1]", "(2,)", _FINITE),
    "ChoiceProblem b": (
        lambda v: ChoiceProblem(n=2, m=2, C=[[1.0] * 2] * 2, b=v), "b", "(2,)", _POSITIVE),
    "AgentPrivate": (
        lambda v: AgentPrivate(index=0, valuation=1.0, cost_row=v), "cost_row", "(any,)", _FINITE),
    "WaypointScenario e": (
        lambda v: WaypointScenario(e=v, k=[1.0], D=1.0), "e", "(any,)", _FINITE),
    "WaypointScenario k": (
        lambda v: WaypointScenario(e=[0.0, 1.0], k=v, D=1.0), "k", "(2,)", _POSITIVE),
    "pava targets": (lambda v: pava(v, [1.0]), "targets", "(any,)", _FINITE),
    "pava weights": (lambda v: pava([0.0, 1.0], v), "weights", "(2,)", _POSITIVE),
    "optimality_gap costs": (lambda v: optimality_gap(v, [1.0]), "costs", "(any,)", _FINITE),
    "optimality_gap utilitarian": (
        lambda v: optimality_gap([1.0, 2.0], v), "utilitarian_costs", "(2,)", _FINITE),
    "gini": (lambda v: gini(v), "costs", "(any,)", _FINITE),
    "cycle_spread_ratio": (
        lambda v: cycle_spread_ratio(_OUTCOME, v), "valuations", "(any,)", _POSITIVE),
    # Finite only: a zero draw is redrawn, and ChoiceProblem refuses a negative b.
    "random_problem": (lambda v: random_problem(2, 2, _Draws(v)), "b", "(2,)", _FINITE),
}
# Each bad vector: its numpy shape, and its first bad entry where its shape
# is the expected one (None: its shape is the fault).
_BAD_VECTORS = {
    "2-D list": ([[1.0, 2.0], [3.0, 4.0]], "(2, 2)", None),
    "str": ("12", "()", None),
    "scalar": (3.5, "()", None),
    "0-d ndarray": (np.array(5.0), "()", None),
    # numpy's shape is the regular prefix (2,), so its first entry is no real.
    "ragged list": ([[1.0], [2.0, 3.0]], "(2,)", "[0] = [1.0]"),
    "wrong length": ([1.0, 2.0, 3.0], "(3,)", None),
    "None entry": ([1.0, None], "(2,)", "[1] = None"),
    "str entry": ([1.0, "x"], "(2,)", "[1] = 'x'"),
    # A str is no real even where float() reads it.
    "numeric str entry": (["12", "x"], "(2,)", "[0] = '12'"),
    "bytes entry": ([1.0, b"1"], "(2,)", "[1] = b'1'"),
    "inf entry": ([1.0, math.inf], "(2,)", "[1] = inf"),
    "nan entry": ([1.0, math.nan], "(2,)", "[1] = nan"),
    "int too large for a float": ([1.0, 10**400], "(2,)", f"[1] = {10**400}"),
    "zero entry": ([1.0, 0.0], "(2,)", "[1] = 0.0"),
    "negative entry": ([1.0, -1.0], "(2,)", "[1] = -1.0"),
}
_POSITIVE_ONLY = ("zero entry", "negative entry")


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (_, _, expected, rule) in _VECTOR_INPUTS.items()
    for bad in _BAD_VECTORS
    if not (bad == "wrong length" and expected == "(any,)")
    and (rule == _POSITIVE or bad not in _POSITIVE_ONLY)
])
def test_every_vector_input_is_refused_in_one_form(entry, bad):
    feed, what, expected, rule = _VECTOR_INPUTS[entry]
    value, shape, fault = _BAD_VECTORS[bad]
    with pytest.raises(ValueError) as err:
        feed(value)
    if rule is None or fault is None:
        assert str(err.value) == f"{what} has shape {shape}, expected {expected}"
    else:
        assert str(err.value) == f"{what}{fault}, expected a {rule}"


def test_no_refusal_prints_the_expected_shape():
    # A matrix whose numpy shape is the expected one is refused at its entry,
    # and a ragged one at its first row of another length.
    cases = [
        (dict(C=[[1.0, None], [2.0, 3.0]]), "C[0][1] = None, expected a finite real"),
        (dict(C=np.array([[1.0, 2.0], [np.inf, 3.0]])), "C[1][0] = inf, expected a finite real"),
        (dict(C=[[1.0, 2.0], [3.0]]), "C[1] has shape (1,), expected (2,)"),
        (dict(C=[(1.0,), [2.0, 3.0]]), "C[0] has shape (1,), expected (2,)"),
    ]
    for kw, message in cases:
        with pytest.raises(ValueError) as err:
            ChoiceProblem(n=2, m=2, b=[1, 1], **kw)
        assert str(err.value) == message


def test_new_board_zeroed():
    board = new_board(2, 2, 1)
    assert board.offers == [[0, 0], [0, 0]]
    assert board.pays == [[0, 0], [0, 0]]
    assert board.d == 1
    assert board.step == 0
    assert board.epoch == 0
    assert board.selections == [None, None]


def test_new_board_smallest_and_validation():
    tiny = new_board(1, 1, Fraction(1))
    assert tiny.offers == [[0]]
    with pytest.raises(ValueError):
        new_board(0, 2, 1)
    with pytest.raises(ValueError):
        new_board(2, 0, 1)
    with pytest.raises(ValueError):
        new_board(2, 2, 0)
    with pytest.raises(TypeError):
        new_board(2, 2, 0.5)


def test_apply_selection_golden_transitions():
    # First two turns of the worked two-agent example, exact rationals.
    board = new_board(2, 2, 1)
    apply_selection(board, 0, 1)
    assert board.offers == [[0, 1], [0, 1]]
    assert board.pays == [[0, 2], [0, 0]]
    apply_selection(board, 1, 0)
    assert board.offers == [[1, 1], [1, 1]]
    assert board.pays == [[0, 2], [2, 0]]
    assert board.step == 2
    assert board.selections == [1, 0]


def test_apply_selection_conservation_and_monotonicity():
    rng = np.random.default_rng(7)
    board = new_board(3, 4, Fraction(2, 3))
    prev_offers = [row[:] for row in board.offers]
    prev_pays = [row[:] for row in board.pays]
    for _ in range(40):
        agent = int(rng.integers(3))
        choice = int(rng.integers(4))
        apply_selection(board, agent, choice)
        for j in range(4):
            osum = sum(board.offers[i][j] for i in range(3))
            psum = sum(board.pays[i][j] for i in range(3))
            assert osum == psum
        for i in range(3):
            for j in range(4):
                assert board.offers[i][j] >= prev_offers[i][j]
                assert board.pays[i][j] >= prev_pays[i][j]
        prev_offers = [row[:] for row in board.offers]
        prev_pays = [row[:] for row in board.pays]


def test_apply_selection_range_checks():
    board = new_board(2, 2, 1)
    with pytest.raises(ValueError):
        apply_selection(board, 2, 0)
    with pytest.raises(ValueError):
        apply_selection(board, -1, 0)
    with pytest.raises(ValueError):
        apply_selection(board, 0, 2)


def test_reduce_trading_unit():
    board = new_board(2, 2, 1)
    reduce_trading_unit(board, "9/10")
    assert board.d == Fraction(9, 10)
    assert board.epoch == 1
    board2 = new_board(2, 2, 1)
    for _ in range(3):
        reduce_trading_unit(board2, Fraction(9, 10))
    assert board2.d == Fraction(729, 1000)
    board3 = new_board(2, 2, Fraction(1, 2))
    reduce_trading_unit(board3, Fraction(1, 3))
    assert board3.d == Fraction(1, 6)
    with pytest.raises(ValueError):
        reduce_trading_unit(board3, 1)
    with pytest.raises(ValueError):
        reduce_trading_unit(board3, 0)


def test_state_key_value_semantics():
    board = new_board(2, 2, 1)
    apply_selection(board, 0, 1)
    k1 = StateKey.from_board(board, 1)
    k2 = StateKey.from_board(copy_board(board), 1)
    assert k1 == k2
    assert hash(k1) == hash(k2)
    assert k1 != StateKey.from_board(board, 0)
    # Equal values with different internal representations still match.
    a = StateKey(net=((Fraction(1, 2),),), playing_agent=0)
    b = StateKey(net=((Fraction(2, 4),),), playing_agent=0)
    assert a == b and hash(a) == hash(b)


def _observed_keys_of_golden_run():
    """Replay the worked example's five turns, keying the observed state."""
    board = new_board(2, 2, 1)
    moves = [(0, 1), (1, 0), (0, 1), (1, 1), (0, 1)]
    keys = []
    for agent, choice in moves:
        keys.append(StateKey.from_board(board, agent))
        apply_selection(board, agent, choice)
    return moves, keys


def test_record_and_detect_golden_cycle():
    moves, keys = _observed_keys_of_golden_run()
    assert keys[4] == keys[2]  # same observed net, same agent on turn
    history = {}
    log = []
    for step, ((agent, choice), key) in enumerate(zip(moves, keys), start=1):
        log.append((agent, choice))
        cyc = record_and_detect(history, key, log)
        if step < 5:
            assert cyc is None
        else:
            assert cyc.start_step == 4
            assert cyc.end_step == 5
            assert cyc.length == 2
            assert cyc.active_choices == frozenset({1})
            assert cyc.choice_counts == ((0, 1), (0, 1))


def test_record_and_detect_single_agent():
    # One agent, one choice: the net never moves, so step 2 repeats step 1.
    board = new_board(1, 1, 1)
    history = {}
    log = []
    log.append((0, 0))
    assert record_and_detect(history, StateKey.from_board(board, 0), log) is None
    apply_selection(board, 0, 0)
    assert board.offers == [[1]] and board.pays == [[1]]
    log.append((0, 0))
    cyc = record_and_detect(history, StateKey.from_board(board, 0), log)
    assert cyc is not None
    assert (cyc.start_step, cyc.end_step, cyc.length) == (2, 2, 1)
    assert cyc.active_choices == frozenset({0})


def test_record_and_detect_history_cap():
    history = {}
    log = []
    for step in range(3):
        key = StateKey(net=((Fraction(step),),), playing_agent=0)
        log.append((0, 0))
        if step < 2:
            assert record_and_detect(history, key, log, max_entries=2) is None
        else:
            with pytest.raises(HistoryLimitError):
                record_and_detect(history, key, log, max_entries=2)


def test_span_counts():
    log = [(0, 1), (1, 0), (0, 1), (1, 1), (0, 1)]
    counts, active = span_counts(log, 4, 5, 2, 2)
    assert counts == ((0, 1), (0, 1))
    assert active == frozenset({1})
    counts_all, active_all = span_counts(log, 1, 5, 2, 2)
    assert counts_all == ((0, 3), (1, 1))
    assert active_all == frozenset({0, 1})
