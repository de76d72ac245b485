"""Determinism and independence of the seeded randomness layer."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intramorph.seeds as seeds_module
from intramorph import core
from intramorph.seeds import UNIT_BLOCK_CHUNK, SeededSource, derive_seed, premixed_draws

seeds = st.integers(min_value=0, max_value=2**64 - 1)


def test_known_stream_is_stable():
    # golden values pin the splitmix64 implementation across refactors
    source = SeededSource(42)
    assert [source.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


@given(seeds)
def test_same_seed_same_stream(seed):
    a = SeededSource(seed)
    b = SeededSource(seed)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


@given(seeds)
def test_unit_in_half_open_interval(seed):
    source = SeededSource(seed)
    for _ in range(50):
        value = source.unit()
        assert 0.0 <= value < 1.0


@given(seeds, st.integers(min_value=1, max_value=1000))
def test_below_respects_bound(seed, bound):
    source = SeededSource(seed)
    for _ in range(20):
        assert 0 <= source.below(bound) < bound


def test_below_rejects_nonpositive_bound():
    for bound in (0, -1):
        source, reference = SeededSource(1), SeededSource(1)
        with pytest.raises(ValueError):
            source.below(bound)
        # the rejected call drew nothing
        assert source.next_u64() == reference.next_u64()


@given(seeds, st.integers(min_value=0, max_value=500))
@settings(max_examples=50)
def test_unit_block_matches_scalar_loop(seed, count):
    scalar = SeededSource(seed)
    vectorized = SeededSource(seed)
    expected = [scalar.unit() for _ in range(count)]
    block = vectorized.unit_block(count)
    assert list(block) == expected
    # both sources must land on the same stream position
    assert scalar.next_u64() == vectorized.next_u64()


def test_unit_block_matches_scalar_loop_across_chunk_boundaries():
    chunk = UNIT_BLOCK_CHUNK
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 200_000):
        scalar = SeededSource(20221021)
        vectorized = SeededSource(20221021)
        expected = [scalar.unit() for _ in range(count)]
        block = vectorized.unit_block(count)
        assert block.shape == (count,)
        # compare the raw float64 bit patterns, not just the values
        assert np.array_equal(block.view(np.uint64),
                              np.array(expected, dtype=np.float64).view(np.uint64)), count
        assert scalar.next_u64() == vectorized.next_u64(), count


def test_consecutive_unit_blocks_continue_one_stream():
    # the chunked Monte Carlo estimators rely on this split property
    chunk = UNIT_BLOCK_CHUNK
    splits = [(1, 1), (chunk, chunk), (chunk // 2, chunk // 2), (chunk - 1, 2),
              (chunk + 1, chunk - 1), (2 * chunk, 3), (3, 2 * chunk + 5), (0, chunk + 1)]
    for a, b in splits:
        for seed in (0, 20221021, 2**64 - 1):
            split, whole = SeededSource(seed), SeededSource(seed)
            parts = np.concatenate([split.unit_block(a), split.unit_block(b)])
            assert np.array_equal(parts.view(np.uint64),
                                  whole.unit_block(a + b).view(np.uint64)), (a, b, seed)
            assert split.next_u64() == whole.next_u64(), (a, b, seed)


# glibc's default M_MMAP_THRESHOLD and the header malloc puts before a chunk
# on 64-bit systems (mallopt(3))
GLIBC_MMAP_THRESHOLD = 128 * 1024
MALLOC_CHUNK_HEADER = 16


def test_unit_block_chunk_keeps_the_heap_rule():
    assert UNIT_BLOCK_CHUNK % 2 == 0, (
        "UNIT_BLOCK_CHUNK must be even: a Monte Carlo chunk holds whole (x, y) points")
    assert UNIT_BLOCK_CHUNK * 8 + MALLOC_CHUNK_HEADER < GLIBC_MMAP_THRESHOLD, (
        "UNIT_BLOCK_CHUNK's 8-byte buffers plus malloc's header must stay under glibc's "
        "128 KiB mmap threshold, so that every unit_block chunk comes from the heap")


@given(seeds)
def test_derive_is_deterministic_and_salt_sensitive(seed):
    assert derive_seed(seed, 3, 7) == derive_seed(seed, 3, 7)
    assert derive_seed(seed, 3, 7) != derive_seed(seed, 3, 8)
    assert derive_seed(seed, 3, 7) != derive_seed(seed, 4, 7)


@given(seeds)
def test_derived_streams_differ_between_iterations(seed):
    first = SeededSource(derive_seed(seed, 1))
    second = SeededSource(derive_seed(seed, 2))
    assert [first.next_u64() for _ in range(4)] != [second.next_u64() for _ in range(4)]


def test_seed_is_masked_to_64_bits():
    assert SeededSource(2**64 + 1).seed == 1


@given(seeds, st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5))
def test_choice_picks_members(seed, items):
    assert SeededSource(seed).choice(items) in items


# --- batched streams ----------------------------------------------------------

def draws(source, count):
    """``count`` raw draws of ``source``."""
    return [source.next_u64() for _ in range(count)]


@given(seeds, st.integers(min_value=-5, max_value=2**40), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=2**20), st.integers(min_value=0, max_value=70))
@settings(max_examples=50)
def test_premixed_draws_match_the_scalar_streams(base, first, count, salt, width):
    block = premixed_draws(base, first, count, salt, width)
    assert block.shape == (count, width) and block.dtype == np.uint64
    for k, row in enumerate(block.tolist()):
        assert row == draws(SeededSource(derive_seed(base, first + k, salt)), width), k


def test_premixed_draws_take_up_to_one_step_table_of_streams_and_draws():
    assert premixed_draws(1, 9, 0, 0, 5).shape == (0, 5)
    assert premixed_draws(1, 9, 5, 0, 0).shape == (5, 0)
    block = premixed_draws(1, 9, UNIT_BLOCK_CHUNK, 0, 3)
    last = SeededSource(derive_seed(1, 9 + UNIT_BLOCK_CHUNK - 1, 0))
    assert block[-1].tolist() == draws(last, 3)
    wide = premixed_draws(1, 9, 1, 0, UNIT_BLOCK_CHUNK)
    assert wide[0, -1] == draws(SeededSource(derive_seed(1, 9, 0)), UNIT_BLOCK_CHUNK)[-1]
    for count in (-1, UNIT_BLOCK_CHUNK + 1, UNIT_BLOCK_CHUNK + 100):
        with pytest.raises(ValueError, match=f"count must be in 0..{UNIT_BLOCK_CHUNK}"):
            premixed_draws(1, 9, count, 0, 3)
        with pytest.raises(ValueError, match=f"width must be in 0..{UNIT_BLOCK_CHUNK}"):
            premixed_draws(1, 9, 3, 0, count)


def test_premixed_draws_are_read_only():
    # a block form reduces the matrix into a copy and never writes into it
    block = premixed_draws(5, 9, 2, 0, 4)
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0


def test_module_level_arrays_are_read_only():
    SeededSource(1).unit_block(3)
    numpy, steps, *constants = seeds_module._numpy()
    assert numpy is np and len(steps) == UNIT_BLOCK_CHUNK and len(constants) == 6
    for table in (steps, *constants):
        assert isinstance(table, np.ndarray)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
    # after a block, the module holds no array that a caller could write to
    assert not [value for value in vars(seeds_module).values()
                if isinstance(value, np.ndarray) and value.flags.writeable]


def test_two_threads_share_the_kernel():
    # references from the scalar paths, computed before the threads start
    block_size = 2 * UNIT_BLOCK_CHUNK + 7
    run = 300
    references = {}
    for seed in (11, 2**64 - 3):
        scalar = SeededSource(seed)
        block = np.array([scalar.unit() for _ in range(block_size)]).view(np.uint64).tolist()
        streams = [draws(core.generation_source(seed, i), 20) for i in range(1, run + 1)]
        references[seed] = (block, streams)

    start = threading.Barrier(2, timeout=10)
    failures = []
    rounds = []

    def worker(seed):
        try:
            start.wait()
            for _ in range(5):
                block = SeededSource(seed).unit_block(block_size).view(np.uint64).tolist()
                streams = core.generation_draws(seed, 1, run, 20).tolist()
                if (block, streams) != references[seed]:
                    failures.append(seed)
                rounds.append(seed)
        except BaseException as exc:   # reported on the test's thread below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,), daemon=True)
                   for seed in references]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(rounds) == 10
