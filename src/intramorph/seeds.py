"""Deterministic seeded randomness shared by generators, campaigns, and case programs.

The generator is splitmix64: 64-bit wraparound arithmetic only, so the same
seed yields the same stream on every platform and Python build. Golden values
in the test suite depend on this algorithm staying fixed.

The scalar finalizer ``_mix`` on Python ints is the reference. ``_mix_array``
applies the same arithmetic in place to numpy ``uint64`` arrays, and serves
both ``SeededSource.unit_block`` and ``premixed_draws``, which derives a
block of sibling streams and mixes their first draws in one batch: a
stream's state after i draws is ``seed + i * gamma``, so every draw of
every stream in the block is one element of a matrix. numpy and the tables
those blocks read are built by ``_numpy`` on the first block, so a process
that draws none never imports numpy.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Sequence, TypeVar

if TYPE_CHECKING:
    import numpy as np

ALGORITHM_ID = "splitmix64"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Elements per pass of SeededSource.unit_block: its uint64 working buffer,
# _numpy's step table, and a result of one chunk take 125 KiB each. With
# malloc's 16-byte chunk header that is still under glibc's default 128 KiB
# mmap threshold, so they come from the heap and are reused across calls
# instead of being mapped (and page-faulted) afresh on every call. Within
# that limit the chunk is large, to spread numpy's fixed cost per ufunc call
# over more draws, and even, so that a Monte Carlo chunk holds whole points.
UNIT_BLOCK_CHUNK = 16_000


@functools.cache
def _numpy():
    """numpy and the read-only tables the blocks share, built on the first block:
    ``(np, steps, mix_a, mix_b, shift_30, shift_27, shift_31, shift_11)``.
    ``steps[i] == (i + 1) * gamma mod 2**64``. The rest are 0-d ``uint64``
    arrays, which keep ``uint64`` operations ``uint64`` under numpy 1.x and 2.x
    promotion alike and are faster ufunc operands than numpy scalars. Each is
    finished and read-only before any caller, in any thread, can see it."""
    import numpy as np

    steps = np.arange(1, UNIT_BLOCK_CHUNK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    constants = [np.array(value, dtype=np.uint64) for value in (_MIX_A, _MIX_B, 30, 27, 31, 11)]
    for table in (steps, *constants):
        table.flags.writeable = False
    return (np, steps, *constants)


T = TypeVar("T")


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray, scratch: np.ndarray) -> None:
    """:func:`_mix` over every element of the ``uint64`` array ``z``, in place.

    ``scratch`` is a ``uint64`` array of ``z``'s shape that the shifts are
    written to; its contents are overwritten. Both are the caller's own
    buffers, so concurrent callers share nothing.
    """
    np, _, mix_a, mix_b, shift_30, shift_27, shift_31, _ = _numpy()
    np.right_shift(z, shift_30, out=scratch)
    z ^= scratch
    z *= mix_a
    np.right_shift(z, shift_27, out=scratch)
    z ^= scratch
    z *= mix_b
    np.right_shift(z, shift_31, out=scratch)
    z ^= scratch


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

    Campaigns that need several independent streams derive one per purpose,
    as ``SeededSource(derive_seed(seed, *salts))`` for a salt path, rather
    than sharing a source across consumers.
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
        buffer receives the chunk's states (the current state plus
        :func:`_numpy`'s read-only step table) and is mixed in place,
        and the chunk's slice of the preallocated ``float64`` result serves
        as scratch until the finished draws are written into it. A chunk's
        buffers take 125 KiB each, which with malloc's header is still under
        glibc's default 128 KiB mmap threshold, so callers that draw at most
        one chunk per call allocate from the heap only. Bit-identical to
        calling ``unit()`` ``count`` times, and consecutive calls continue
        one stream; the scalar loop is the reference and the test suite pins
        the equivalence, across chunk boundaries too.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        np, steps, *_, shift_11 = _numpy()
        out = np.empty(count, dtype=np.float64)
        z = np.empty(min(count, UNIT_BLOCK_CHUNK), dtype=np.uint64)
        state = self._state
        for start in range(0, count, UNIT_BLOCK_CHUNK):
            n = min(UNIT_BLOCK_CHUNK, count - start)
            zc = z[:n]
            dest = out[start:start + n]
            np.add(steps[:n], np.uint64(state), out=zc)
            # the result slice doubles as the scratch buffer until it is written
            _mix_array(zc, dest.view(np.uint64))
            zc >>= shift_11
            # the values are below 2**53, so int64 converts them exactly (and
            # faster than uint64 does)
            np.multiply(zc.view(np.int64), 2.0 ** -53, out=dest)
            state = (state + n * _GAMMA) & _MASK64
        self._state = state
        return out

    def choice(self, items: Sequence[T]) -> T:
        return items[self.below(len(items))]


def premixed_draws(base: int, first: int, count: int, salt: int, width: int) -> np.ndarray:
    """The first ``width`` draws of ``SeededSource(derive_seed(base, first + k, salt))``
    for each k in ``range(count)``, as one read-only ``(count, width)`` ``uint64``
    matrix whose row k holds stream k's draws in order: ``next_u64`` values,
    of which ``below(bound)`` is the remainder modulo ``bound``.

    The salts ``first + k`` spread to an arithmetic progression of gamma
    multiples, so every seed is derived in one batch, and since a stream's
    state after i draws is its seed plus i gammas, every draw is mixed in
    one more. ``count`` and ``width`` must be in ``0..UNIT_BLOCK_CHUNK``,
    the length of :func:`_numpy`'s step table, else ``ValueError``.
    Bit-identical to the scalar derivation, which the tests keep as reference.
    """
    for name, value in (("count", count), ("width", width)):
        if not 0 <= value <= UNIT_BLOCK_CHUNK:
            raise ValueError(f"{name} must be in 0..{UNIT_BLOCK_CHUNK}, got {value}")
    np, steps, *_ = _numpy()
    # (first + k + 1) * gamma, the spread form of the salt first + k
    seeds = np.add(steps[:count], np.uint64((first * _GAMMA) & _MASK64))
    scratch = np.empty_like(seeds)
    seeds ^= np.uint64(base & _MASK64)
    _mix_array(seeds, scratch)
    seeds ^= np.uint64(((salt + 1) * _GAMMA) & _MASK64)
    _mix_array(seeds, scratch)
    draws = np.add(seeds[:, np.newaxis], steps[:width])
    _mix_array(draws, np.empty_like(draws))
    draws.flags.writeable = False
    return draws
