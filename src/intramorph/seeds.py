"""Deterministic seeded randomness shared by generators, campaigns, and case programs.

The generator is splitmix64: 64-bit wraparound arithmetic only, so the same
seed yields the same stream on every platform and Python build. Golden values
in the test suite depend on this algorithm staying fixed.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

ALGORITHM_ID = "splitmix64"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Elements per pass of SeededSource.unit_block: its two uint64 working
# buffers, and a result of one chunk, take 64 KiB each. That keeps them under
# glibc's default 128 KiB mmap threshold, so they come from the heap and are
# reused across calls instead of being mapped (and page-faulted) afresh on
# every call.
UNIT_BLOCK_CHUNK = 8_192

T = TypeVar("T")


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, *salts: int) -> int:
    """Derive an independent child seed from ``base`` and an integer salt path.

    Seed splitting: each salt is spread by an odd multiplier and folded in
    through the splitmix64 finalizer, so sibling paths such as
    (seed, iteration) and (seed, iteration + 1) give unrelated streams.
    """
    seed = base & _MASK64
    for salt in salts:
        seed = _mix(seed ^ (((salt + 1) * _GAMMA) & _MASK64))
    return seed


class SeededSource:
    """Single-consumer splitmix64 stream.

    Campaigns that need several independent streams derive one per purpose
    via :meth:`derive` rather than sharing a source across consumers.
    """

    algorithm_id = ALGORITHM_ID

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def __repr__(self) -> str:
        return f"SeededSource(seed={self.seed}, algorithm={self.algorithm_id})"

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound).

        Plain modulo reduction: the bias is immaterial for the single-digit
        bounds used by the input generators and keeps one draw per value.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        self._state = state = (self._state + _GAMMA) & _MASK64
        return _mix(state) % bound

    def unit(self) -> float:
        """Uniform float in [0.0, 1.0) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def unit_block(self, count: int) -> np.ndarray:
        """``count`` consecutive :meth:`unit` draws as one vectorized batch.

        splitmix64's state is an arithmetic progression, so the block is
        computed from ``state + i * gamma`` directly. The work runs in place
        over chunks of :data:`UNIT_BLOCK_CHUNK` elements: one ``uint64``
        buffer holds the chunk's states and advances by a whole chunk each
        pass, a second holds the values being mixed, and the chunk's slice of
        the preallocated ``float64`` result serves as scratch until the
        finished draws are written into it. A chunk's buffers take 64 KiB,
        under glibc's default 128 KiB mmap threshold, so callers that draw at
        most one chunk per call allocate from the heap only. Bit-identical to
        calling ``unit()`` ``count`` times, and consecutive calls continue one
        stream; the scalar loop is the reference and the test suite pins the
        equivalence, across chunk boundaries too.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        out = np.empty(count, dtype=np.float64)
        # states[i] is the state that the chunk's i-th draw mixes
        states = np.arange(1, min(count, UNIT_BLOCK_CHUNK) + 1, dtype=np.uint64)
        states *= np.uint64(_GAMMA)
        states += np.uint64(self._state)
        z = np.empty_like(states)
        chunk_advance = np.uint64((UNIT_BLOCK_CHUNK * _GAMMA) & _MASK64)
        for start in range(0, count, UNIT_BLOCK_CHUNK):
            n = min(UNIT_BLOCK_CHUNK, count - start)
            zc = z[:n]
            # the result slice doubles as the scratch buffer until it is written
            dest = out[start:start + n]
            scratch = dest.view(np.uint64)
            np.right_shift(states[:n], np.uint64(30), out=zc)
            zc ^= states[:n]
            zc *= np.uint64(_MIX_A)
            np.right_shift(zc, np.uint64(27), out=scratch)
            zc ^= scratch
            zc *= np.uint64(_MIX_B)
            np.right_shift(zc, np.uint64(31), out=scratch)
            zc ^= scratch
            zc >>= np.uint64(11)
            np.multiply(zc, 2.0 ** -53, out=dest)
            states += chunk_advance
        self._state = (self._state + count * _GAMMA) & _MASK64
        return out

    def choice(self, items: Sequence[T]) -> T:
        return items[self.below(len(items))]

    def derive(self, *salts: int) -> "SeededSource":
        """Fresh source for the given salt path, independent of stream position."""
        return DerivedSource(self.seed, *salts)


class DerivedSource(SeededSource):
    """``SeededSource(derive_seed(base, *salts))``, derived when first read.

    Same seed, stream and children; a program that never reads its source
    never pays for the derivation.
    """

    def __init__(self, base: int, *salts: int):
        self._path = (base, salts)

    def __getattr__(self, name: str):
        # reached only until seed and _state are set
        if name not in ("seed", "_state"):
            raise AttributeError(name)
        base, salts = self._path
        SeededSource.__init__(self, derive_seed(base, *salts))
        return self.__dict__[name]
