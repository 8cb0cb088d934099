"""numpy's seeded random stream, drawn without loading ``numpy.random``.

``Generator(seed)`` gives the draws of ``numpy.random.default_rng(seed)``,
bit for bit, for the three calls semrel makes: ``uniform``, ``random`` and
``permutation``. Importing ``numpy.random`` costs a training command about
6 MB of resident memory, more than anything else it holds on a small world,
so the package draws the stream itself:

- the seed goes through numpy's ``SeedSequence`` hash to four 64-bit words;
- ``PCG64`` steps a 128-bit LCG and outputs its state's XSL-RR mix;
- a double is the top 53 bits of one output, and ``uniform`` scales it as
  numpy does; ``permutation`` is numpy's Fisher-Yates shuffle, which draws
  32-bit halves by rejection and keeps an unused half for the next one.

``advance(n)`` jumps the LCG past ``n`` doubles in O(log n) steps, so a
caller that would throw draws away skips them instead. A draw of many
doubles steps ``_LANES`` interleaved copies of the LCG as numpy arrays of
64-bit halves, so a weight matrix costs about as much as numpy's own draw.
"""

from __future__ import annotations

import operator

from ._io import np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants, pool size and output.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_STATE_WORDS = 8  # the 32-bit words of PCG64's four 64-bit seed words

# PCG64's LCG multiplier.
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# A double in [0, 1) is an output's top 53 bits times 2**-53.
_DOUBLE_SHIFT = 11
_DOUBLE_SCALE = 1.0 / (1 << 53)

# A long draw steps this many copies of the LCG side by side as numpy
# arrays, each jumping _LANES states at a time; a shorter one steps in Python.
_LANES = 1024


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's 128-bit initial state and stream for ``seed``, as numpy's
    ``SeedSequence(seed).generate_state(4, np.uint64)`` gives them."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer seed, got {seed}")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    words = []
    for i in range(_STATE_WORDS):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ (value >> 16))
    # Little-endian pairs of 32-bit words make the 64-bit words; the first
    # two are the state's high and low halves, the last two the stream's.
    state, stream = 0, 0
    for k in range(2):
        state = state << 64 | words[2 * k] | words[2 * k + 1] << 32
        stream = stream << 64 | words[4 + 2 * k] | words[5 + 2 * k] << 32
    return state, stream


def _jump(inc: int, n: int) -> tuple[int, int]:
    """``(mult, plus)`` such that ``n`` LCG steps take a state s to
    ``mult * s + plus``, found in O(log n) steps (Brown's algorithm)."""
    mult, plus = _MULTIPLIER, inc
    acc_mult, acc_plus = 1, 0
    while n > 0:
        if n & 1:
            acc_mult = acc_mult * mult & _MASK128
            acc_plus = (acc_plus * mult + plus) & _MASK128
        plus = (mult + 1) * plus & _MASK128
        mult = mult * mult & _MASK128
        n >>= 1
    return acc_mult, acc_plus


def _mulhi(x: np.ndarray, y: int) -> np.ndarray:
    """The upper 64 bits of each ``x * y``, for uint64 ``x`` and ``y`` < 2**64,
    from products of 32-bit halves, none of which overflows."""
    low, shift = np.uint64(_MASK32), np.uint64(32)
    y0, y1 = np.uint64(y & _MASK32), np.uint64(y >> 32)
    x0, x1 = x & low, x >> shift
    p10 = x1 * y0
    mid = (x0 * y0 >> shift) + (p10 & low) + x0 * y1
    return x1 * y1 + (p10 >> shift) + (mid >> shift)


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The outputs of the states whose halves are ``hi`` and ``lo``."""
    mixed = hi ^ lo
    rot = hi >> np.uint64(58)
    return (mixed >> rot) | (mixed << ((np.uint64(64) - rot) & np.uint64(63)))


class Generator:
    """The draws of ``numpy.random.default_rng(seed)`` for ``uniform``,
    ``random`` and ``permutation``, and ``advance`` past unused doubles."""

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        self._inc = (initseq << 1 | 1) & _MASK128
        state = (self._inc + initstate) & _MASK128
        self._state = (state * _MULTIPLIER + self._inc) & _MASK128
        self._half = None  # the unused upper half of the last 32-bit draw

    def _outputs(self, n: int) -> list[int]:
        """The next ``n`` 64-bit outputs: an LCG step, then XSL-RR."""
        state, inc = self._state, self._inc
        out = [0] * n
        for i in range(n):
            state = (state * _MULTIPLIER + inc) & _MASK128
            mixed = (state ^ state >> 64) & _MASK64
            out[i] = ((mixed << 64 | mixed) >> (state >> 122)) & _MASK64
        self._state = state
        return out

    def _blocks(self, n: int):
        """The next ``n`` outputs, as consecutive uint64 arrays of at most
        ``_LANES`` each. From ``_LANES`` outputs on, lane k holds states
        k + 1, k + 1 + _LANES, ... as 64-bit halves; a step multiplies and
        adds 128-bit numbers in halves, which wrap as the LCG does."""
        if n < _LANES:
            yield np.array(self._outputs(n), dtype=np.uint64)
            return
        state, inc, states = self._state, self._inc, []
        for _ in range(_LANES):
            state = (state * _MULTIPLIER + inc) & _MASK128
            states.append(state)
        hi = np.array([s >> 64 for s in states], dtype=np.uint64)
        lo = np.array([s & _MASK64 for s in states], dtype=np.uint64)
        mult, plus = _jump(inc, _LANES)
        m_hi, m_lo = np.uint64(mult >> 64), np.uint64(mult & _MASK64)
        p_hi, p_lo = np.uint64(plus >> 64), np.uint64(plus & _MASK64)
        for start in range(0, n, _LANES):
            if start:
                product_lo = lo * m_lo
                hi = _mulhi(lo, int(m_lo)) + lo * m_hi + hi * m_lo + p_hi
                lo = product_lo + p_lo
                hi += lo < product_lo  # the carry out of the low half
            yield _xsl_rr(hi, lo)[:n - start]
        last = (n - 1) % _LANES
        self._state = int(hi[last]) << 64 | int(lo[last])

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """An array of ``size`` (an int or a shape), as
        ``numpy.random.Generator.uniform``: ``low + (high - low) * d`` for
        consecutive doubles d in [0, 1).

        The array is allocated before anything is drawn, so a size too large
        for memory fails as numpy's does, and the draw holds at most
        ``_LANES`` outputs besides it.
        """
        low, span = float(low), float(high) - float(low)
        out = np.empty(size)
        flat = out.reshape(-1)
        start = 0
        for ints in self._blocks(flat.size):
            block = flat[start:start + ints.size]
            np.multiply(ints >> np.uint64(_DOUBLE_SHIFT), _DOUBLE_SCALE, out=block)
            block *= span
            block += low
            start += ints.size
        return out

    def random(self, size) -> np.ndarray:
        """Doubles in [0, 1), as ``numpy.random.Generator.random``."""
        return self.uniform(0.0, 1.0, size)

    def _next32(self) -> int:
        """The next 32 bits: a buffered upper half, or the lower half of a
        new output, whose upper half is buffered."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._outputs(1)[0]
        self._half = value >> 32
        return value & _MASK32

    def permutation(self, n: int) -> np.ndarray:
        """A shuffled ``arange(n)``, as ``numpy.random.Generator.permutation``
        for n up to 2**32 + 1, past which numpy draws 64 bits at a time."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            order[i], order[j] = order[j], order[i]
        return np.array(order, dtype=np.intp)

    def advance(self, n: int) -> None:
        """Skip ``n`` doubles: the stream continues as if they were drawn.
        A 32-bit half that ``permutation`` left stays for its next call."""
        mult, plus = _jump(self._inc, n)
        self._state = (mult * self._state + plus) & _MASK128
