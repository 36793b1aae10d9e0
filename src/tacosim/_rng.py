"""numpy's seeded random streams, drawn in Python ints.

A trial draws about twenty numbers, so it repeats numpy's algorithms bit for
bit on Python ints rather than loading ``numpy.random``:

- ``seed_words(path, count)`` is ``SeedSequence(list(path)).generate_state(count)``:
  the path's entries as 32-bit words, least significant first, hashed into a
  pool of four words and hashed out again (O'Neill's seed_seq_fe), as the
  batch of one of ``seed_words_many(paths, count)``, which hashes each path
  in a 96-bit lane of one int (Fisher and Dietz, "Compiling for SIMD Within
  a Register", LCPC 1998);
- ``Stream(path)`` is ``Generator(PCG64(SeedSequence(list(path))))``: a PCG
  XSL-RR 128/64 generator (O'Neill, "PCG: A Family of Simple Fast
  Space-Efficient Statistically Good Algorithms for Random Number
  Generation", 2014) seeded from eight such words (``Stream(words=...)``
  takes them precomputed), with the ``random``, ``uniform`` and
  ``integers(high)`` draws of numpy's ``Generator``. Bounded integers use
  Lemire's method ("Fast Random Integer Generation in an Interval", ACM
  TOMACS 2019), 32-bit draws taking the halves of one 64-bit output in turn.

``tests/test_rng.py`` holds both to numpy's own ``SeedSequence``, ``PCG64``
and ``Generator``, bit for bit, refusals included.
"""

from __future__ import annotations

import functools
import math
import operator
import struct

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# seed_seq_fe's hash and mix constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Every ordered pair (src, dst) of distinct pool words, in mixing order.
_CROSS = tuple((src, dst) for src in range(4) for dst in range(4) if src != dst)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE = 2.0**-53


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) pair of each of count successive hashmix calls.

    hashmix XORs its value with a running constant, steps the constant by
    mult and multiplies by the new one, so the pairs depend on the call's
    position only.
    """
    consts, h = [], init
    for _ in range(count):
        step = h * mult & _MASK32
        consts.append((h, step))
        h = step
    return tuple(consts)


@functools.cache
def _pool_plan(n_words: int):
    """The hashmix constants that fill the pool, and each later mix step as
    (source word, pool word, xor, multiplier).

    The pool's four words mix into each other, then each entropy word past
    the fourth into every pool word, each step setting
    ``pool[dst] = mix(pool[dst], hashmix(word[src]))``.
    """
    extra = max(n_words - 4, 0)
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * extra)
    steps = _CROSS + tuple((4 + k // 4, k % 4) for k in range(4 * extra))
    return consts[:4], tuple((src, dst, x, m) for (src, dst), (x, m) in zip(steps, consts[4:]))


def seed_words_many(paths, count: int) -> list[list[int]]:
    """``seed_words(path, count)`` of each path, in order, all checked before any is hashed.

    Paths of one word count are hashed together, each a 96-bit lane of one int: a lane
    holds a 32-bit word times a 32-bit constant, plus the ``2**64`` that keeps a mix's
    difference non-negative, so no carry or borrow crosses lanes. ``v >> 16`` pulls in
    the next lane's low bits, so lanes are masked back to 32 bits after it.
    """
    groups: dict[int, list] = {}
    for i, path in enumerate(paths):
        words = []
        for entry in map(operator.index, path):
            if entry < 0:
                raise ValueError("expected non-negative integer")
            words.append(entry & _MASK32)
            while entry := entry >> 32:
                words.append(entry & _MASK32)
        groups.setdefault(len(words), []).append((i, words))
    out: list = [None] * sum(map(len, groups.values()))
    for n_words, group in groups.items():
        at, words = zip(*group)
        for i, w in zip(at, _hash_lanes(words, n_words, count)):
            out[i] = w
    return out


def _hash_lanes(words, n_words: int, count: int) -> list[list[int]]:
    """seed_seq_fe over paths of n_words words each, one lane per path."""
    lanes = len(words)
    ones = int.from_bytes((b"\1" + bytes(11)) * lanes, "little")
    mask, bias = _MASK32 * ones, ones << 64
    # Word j of every path as one int, padded with zeros to the pool's four.
    lane = "<" + "I8x" * lanes
    cols = [int.from_bytes(struct.pack(lane, *column), "little") for column in zip(*words)]
    cols += [0] * (4 - n_words)
    fill, steps = _pool_plan(n_words)
    for j, (x, m) in enumerate(fill):
        v = (cols[j] ^ x * ones) * m & mask
        cols[j] = (v ^ v >> 16) & mask
    # The pool replaces the first four words; the rest stay sources.
    for src, dst, x, m in steps:
        v = (cols[src] ^ x * ones) * m & mask
        r = (_MIX_L * cols[dst] + bias - _MIX_R * ((v ^ v >> 16) & mask)) & mask
        cols[dst] = (r ^ r >> 16) & mask
    out = []
    for i, (x, m) in enumerate(_hash_consts(_INIT_B, _MULT_B, count)):
        v = (cols[i & 3] ^ x * ones) * m & mask
        out.append(((v ^ v >> 16) & mask).to_bytes(12 * lanes, "little"))
    flat = struct.unpack("<" + "I8x" * (lanes * count), b"".join(out))
    return [list(flat[p::lanes]) for p in range(lanes)]


def seed_words(path, count: int) -> list[int]:
    """numpy's ``SeedSequence(list(path)).generate_state(count)``, as ints."""
    return seed_words_many((path,), count)[0]


def _shaped(flat: list, shape: tuple[int, ...]) -> list:
    """flat as nested lists of the given shape, in row-major order."""
    if len(shape) == 1:
        return flat
    step = math.prod(shape[1:])
    return [_shaped(flat[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0])]


class Stream:
    """The draws of numpy's ``Generator(PCG64(SeedSequence(list(path))))``.

    ``random`` and ``uniform`` return a float when size is None, and
    otherwise a list (nested lists for a shape tuple) where numpy returns an
    ndarray; ``integers(high)`` returns an int where numpy returns an
    ``np.int64``. Invalid arguments raise numpy's exceptions.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, path=None, *, words=None) -> None:
        w0, w1, w2, w3, w4, w5, w6, w7 = seed_words(path, 8) if words is None else words
        # PCG64 reads the eight words as four little-endian 64-bit halves:
        # initstate w1:w0:w3:w2 and initseq w5:w4:w7:w6, high to low.
        inc = ((w5 << 96 | w4 << 64 | w7 << 32 | w6) << 1 | 1) & _MASK128
        initstate = w1 << 96 | w0 << 64 | w3 << 32 | w2
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        self._inc = inc
        self._half = None  # a 64-bit output's high half, for the next 32-bit draw

    def _next64(self, count: int) -> list[int]:
        """count 64-bit outputs: step the state, then XOR-fold and rotate it."""
        s, inc, out = self._state, self._inc, []
        for _ in range(count):
            s = (s * _PCG_MULT + inc) & _MASK128
            x = ((s >> 64) ^ s) & _MASK64
            r = s >> 122
            out.append((x >> r | x << (64 - r)) & _MASK64)
        self._state = s
        return out

    def _fill(self, size, low: float, span: float):
        """low + span * u for uniform doubles u, one per 64-bit output."""
        if size is None:
            return low + span * ((self._next64(1)[0] >> 11) * _DOUBLE)
        shape = (size,) if isinstance(size, int) else tuple(size)
        flat = [low + span * ((u >> 11) * _DOUBLE) for u in self._next64(math.prod(shape))]
        return _shaped(flat, shape)

    def random(self, size=None):
        """Uniform floats in [0, 1)."""
        return self._fill(size, 0.0, 1.0)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform floats in [low, high)."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            raise ValueError("high - low < 0")
        return self._fill(size, low, span)

    def _u32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        u = self._next64(1)[0]
        self._half = u >> 32
        return u & _MASK32

    def integers(self, high: int) -> int:
        """An int in [0, high), by Lemire's method on 32-bit draws up to
        high = 2**32 and on 64-bit draws above."""
        if high <= 0:
            raise ValueError("high <= 0")
        if high > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        if high == 1:
            return 0
        bits, draw = (32, self._u32) if high <= 1 << 32 else (64, lambda: self._next64(1)[0])
        mask = (1 << bits) - 1
        m = draw() * high
        if m & mask < high:
            threshold = ((1 << bits) - high) % high
            while m & mask < threshold:
                m = draw() * high
        return m >> bits
