"""Exact arithmetic, the reference Fraction board's update rule, and the
replay oracle's cycle detector (the board operations live in ``_replay``)."""

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
from tacosim.board import exact, float_tuple, shape_of
from tacosim.errors import HistoryLimitError


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


def test_float_tuple_takes_any_one_dimensional_sequence():
    for values in ([1, 2.5], (1, 2.5), np.array([1.0, 2.5]), np.array([1, 2]) * 1.25, range(2)):
        out = float_tuple(values)
        assert type(out) is tuple and all(type(x) is float for x in out)
        assert out == tuple(np.asarray(values, dtype=np.float64).tolist())
    for values in ("12", 3.0, np.array(3.0), np.zeros((2, 2)), [[1.0], [2.0]], iter([1.0])):
        with pytest.raises(TypeError):
            float_tuple(values)


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
