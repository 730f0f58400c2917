"""The package's seeded stream: numpy's PCG64 (128-bit LCG, XSL-RR output)
seeded through numpy's SeedSequence, drawn the way numpy's ``Generator``
draws ``uniform`` and ``integers``.

Its draws equal ``Generator(PCG64(seed))``'s bit for bit (the tests check
them against numpy's own generator), but the stream is fixed by the
algorithms here, not by ``Generator``'s methods, which numpy does not keep
stable across releases, and no command imports numpy's random subpackage.
"""

import math

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def check_seed(seed: int) -> None:
    """A seed is a non-negative int."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8, np.uint32)``: the seed's 32-bit
    words, least significant first, hashed into a 4-word pool and out again."""
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = 0x8B51F9DD, []
    for index in range(8):
        value = pool[index % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    return words


def _output(state: int) -> int:
    """XSL-RR: a state's 64-bit halves xored, rotated right by its top 6 bits."""
    x = (state >> 64 ^ state) & _M64
    rot = state >> 122
    return (x >> rot | x << 64 - rot) & _M64


class PCG64:
    """numpy's ``Generator(PCG64(seed))``, for ``uniform`` and for ``integers``
    with ``high - low <= 2**32``."""

    def __init__(self, seed: int):
        check_seed(seed)
        w = _seed_words(seed)
        # generate_state(4, np.uint64) pairs the words little-endian; the first
        # two 64-bit words are the seed state's high and low halves, the last
        # two the increment's.  PCG's srandom then steps from state 0, adds
        # the seed state and steps again.
        initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        self._inc = ((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 & _M128 | 1
        self._state = ((self._inc + initstate) * _MULTIPLIER + self._inc) & _M128
        self._half = None  # the unused upper half of a 64-bit draw

    def _steps(self, count: int) -> list[int]:
        """The LCG's next ``count`` states."""
        state, inc, states = self._state, self._inc, []
        for _ in range(count):
            state = (state * _MULTIPLIER + inc) & _M128
            states.append(state)
        self._state = state
        return states

    def _next64(self) -> int:
        return _output(self._steps(1)[0])

    def _next32(self) -> int:
        """The low half of a 64-bit draw, or the kept upper half of the last."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        draw = self._next64()
        self._half = draw >> 32
        return draw & _M32

    def uniform(self, low=0.0, high=1.0, size=None):
        """``low + (high - low) * u`` with ``u = (next64 >> 11) * 2**-53``; a
        float when ``size`` is None, else an array of shape ``size``."""
        if size is None:
            return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)
        shape = np.empty(size, dtype=np.uint8).shape
        # _output on every state at once, from its 64-bit halves
        halves = b"".join([state.to_bytes(16, "little") for state in self._steps(math.prod(shape))])
        lo, hi = np.frombuffer(halves, dtype="<u8").reshape(-1, 2).T
        x, rot = hi ^ lo, hi >> np.uint64(58)
        draws = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
        u = (draws >> np.uint64(11)).astype(np.float64).reshape(shape) * 2.0**-53
        return low + (high - low) * u

    def integers(self, low: int, high: int) -> int:
        """An int in ``[low, high)`` by Lemire's method on 32-bit draws."""
        span = high - low
        if not 1 < span <= 1 << 32:
            raise ValueError(f"integers needs 1 < high - low <= 2**32, got [{low}, {high})")
        if span == 1 << 32:
            return low + self._next32()
        product = self._next32() * span
        if product & _M32 < span:
            threshold = (1 << 32) % span
            while product & _M32 < threshold:
                product = self._next32() * span
        return low + (product >> 32)
