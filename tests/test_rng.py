"""The in-house seed words and streams against numpy's, bit for bit."""

import math

import numpy as np
import pytest

from tacosim import _rng
from tacosim._rng import Stream, seed_words, seed_words_many

# Entries at the word boundaries: one word, the largest one-word entry, the
# smallest two-word entry, and three words.
EDGES = (0, 2**32 - 1, 2**32, 2**64 + 3)
# Small bounds, and two that reject often (2**31 + 1, 3 * 2**30), through the
# 32-bit draws; above 2**32, the 64-bit ones.
HIGHS = (1, 2, 3, 4, 5, 7, 24, 2**31 + 1, 3 * 2**30, 2**32, 2**32 + 1, 3 * 2**40, 2**63)


def _paths(count):
    rng = np.random.default_rng(2024)
    for k in range(count):
        length = (2, 3, 5)[k % 3]
        yield tuple(
            int(EDGES[rng.integers(4)]) if rng.random() < 0.5 else int(rng.integers(2**40))
            for _ in range(length)
        )


def _numpy_stream(path):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(path))))


def _draws(rng, highs):
    """Doubles, uniforms, a (2, 3) block and integers, interleaved, so that
    32-bit draws take the buffered half of a 64-bit output across doubles."""
    out = [rng.uniform(0.5, 2.0, size=4), rng.random(), rng.random((2, 3))]
    for h in highs:
        out.append(int(rng.integers(h)))
        out.append(rng.uniform(-1.0, 3.0))
        out.append(int(rng.integers(h)))
    out.append(rng.random(3))
    return [x.tolist() if isinstance(x, np.ndarray) else x for x in out]


def test_streams_match_numpy_on_2000_paths():
    highs = np.random.default_rng(7)
    for path in _paths(2100):
        want = np.random.SeedSequence(list(path)).generate_state(9).tolist()
        assert seed_words(path, 9) == want, path
        assert seed_words(path, 1) == want[:1]  # the CSV seed column
        order = highs.permutation(len(HIGHS)).tolist()
        picked = [HIGHS[i] for i in order]
        assert _draws(Stream(path), picked) == _draws(_numpy_stream(path), picked), path


# numpy integers of one, two and three words, beside the Python ints.
NUMPY_ENTRIES = (np.uint32(2**32 - 1), np.int8(7), np.int64(2**33 + 5), np.uint64(2**64 - 1))


def _words(entry) -> int:
    return max(1, -(-int(entry).bit_length() // 32))


@pytest.mark.parametrize("count", [0, 1, 9])
def test_a_batch_is_each_paths_words_in_order(count):
    # One call over paths of one to six words, mixed in random order: the
    # paths of each word count are hashed together and put back in place.
    rng = np.random.default_rng(27)
    entries = EDGES + NUMPY_ENTRIES + (5, 2**40 + 1)
    paths = []
    while len(paths) < 300:
        path = tuple(entries[i] for i in rng.integers(len(entries), size=rng.integers(1, 5)))
        if sum(map(_words, path)) <= 6:
            paths.append(path)
    assert {sum(map(_words, p)) for p in paths} == {1, 2, 3, 4, 5, 6}
    want = [np.random.SeedSequence(list(p)).generate_state(count).tolist() for p in paths]
    assert seed_words_many(paths, count) == want
    assert seed_words_many(paths[:1], count) == want[:1] and seed_words_many([], count) == []


def test_draws_are_python_numbers():
    s = Stream((42, 0))
    assert type(s.random()) is float and type(s.uniform(1, 2)) is float
    assert type(s.integers(5)) is int
    block = s.random((2, 3))
    assert len(block) == 2 and all(len(r) == 3 and type(r[0]) is float for r in block)
    assert s.random(0) == [] and s.uniform(size=(2, 0)) == [[], []]


def _refusal(call):
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize(
    "draw",
    [
        ("uniform", (0.0, math.inf)),
        ("uniform", (-math.inf, 0.0)),
        ("uniform", (math.nan, 1.0)),
        ("uniform", (-1e308, 1e308)),  # a finite range whose width overflows
        ("uniform", (1.0, 0.0)),
        ("uniform", (0.0, -0.0)),  # a width of -0.0 is negative to numpy
        ("integers", (0,)),
        ("integers", (-3,)),
        ("integers", (2**64,)),
    ],
)
def test_stream_refusals_are_numpys(draw):
    name, args = draw
    mine = getattr(Stream((1, 2)), name)
    theirs = getattr(_numpy_stream((1, 2)), name)
    assert _refusal(lambda: mine(*args)) == _refusal(lambda: theirs(*args))


@pytest.mark.parametrize("path", [(-1,), (5, -1), (2**64, 3, -(2**40))])
def test_negative_entries_are_refused_as_numpy_refuses_them(monkeypatch, path):
    want = _refusal(lambda: np.random.SeedSequence(list(path)))
    assert _refusal(lambda: seed_words(path, 1)) == want
    assert _refusal(lambda: Stream(path)) == want
    # Anywhere in a batch, and before any of the batch is hashed.
    monkeypatch.setattr(_rng, "_hash_lanes", None)
    assert _refusal(lambda: seed_words_many([(7,), (8, 9), path, (1, 2)], 8)) == want
