"""Determinism and independence of the seeded randomness layer."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intramorph.seeds as seeds_module
from intramorph import core
from intramorph.registry import default_registry
from intramorph.seeds import (PREMIXED_DRAWS, UNIT_BLOCK_CHUNK, PremixedSource, SeededSource,
                              derive_seed, premixed_sources)

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
    """``count`` draws alternating next_u64 and below, as the generators mix them."""
    return [source.below(1000) if k % 2 else source.next_u64() for k in range(count)]


def after_partial_read(source, reads):
    """A partial read, then a block, a pick, a child and more draws."""
    head = draws(source, reads)
    block = source.unit_block(3).view(np.uint64).tolist()
    child = SeededSource(derive_seed(source.seed, 5))
    return (head, block, source.choice("abcdefg"), child.next_u64(), draws(source, 20),
            source.unit())


@given(seeds, st.integers(min_value=-5, max_value=2**40), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=2**20))
@settings(max_examples=50)
def test_premixed_sources_match_the_scalar_derivation(base, first, count, salt):
    batch = premixed_sources(base, first, count, salt)
    assert len(batch) == count
    for k, source in enumerate(batch):
        reference = SeededSource(derive_seed(base, first + k, salt))
        assert (source.seed, repr(source)) == (reference.seed, repr(reference))
        assert draws(source, PREMIXED_DRAWS + 8) == draws(reference, PREMIXED_DRAWS + 8)


calls = st.one_of(st.tuples(st.just("below"), st.integers(min_value=1, max_value=1000)),
                  st.tuples(st.sampled_from(["choice", "next_u64", "unit"])),
                  # sizes past PREMIXED_DRAWS, here and in the call lists below, let
                  # one block or a run of single draws cross the premixed prefix
                  st.tuples(st.just("unit_block"),
                            st.integers(min_value=0, max_value=PREMIXED_DRAWS + 10)))


def apply(source, call):
    name, *args = call
    if name == "choice":
        return source.choice("abcdefg")
    result = getattr(source, name)(*args)
    return result.view(np.uint64).tolist() if name == "unit_block" else result


@given(seeds, st.integers(min_value=0, max_value=2**40), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**20),
       st.lists(calls, max_size=PREMIXED_DRAWS + 10))
@settings(max_examples=100)
def test_premixed_sources_answer_every_call_sequence_as_the_scalar_source(
        base, first, count, salt, sequence):
    for k, source in enumerate(premixed_sources(base, first, count, salt)):
        reference = SeededSource(derive_seed(base, first + k, salt))
        for call in sequence:
            # a nonpositive bound is refused at any position, and draws nothing
            for bound in (0, -1):
                with pytest.raises(ValueError):
                    source.below(bound)
            assert apply(source, call) == apply(reference, call), call
        assert draws(source, 3) == draws(reference, 3)
        assert (source.seed, repr(source)) == (reference.seed, repr(reference))


def test_premixed_sources_take_up_to_one_step_table_of_streams():
    assert premixed_sources(1, 9, 0, 0) == []
    batch = premixed_sources(1, 9, UNIT_BLOCK_CHUNK, 0)
    assert len(batch) == UNIT_BLOCK_CHUNK
    last = SeededSource(derive_seed(1, 9 + UNIT_BLOCK_CHUNK - 1, 0))
    assert draws(batch[-1], PREMIXED_DRAWS + 1) == draws(last, PREMIXED_DRAWS + 1)
    for count in (-1, UNIT_BLOCK_CHUNK + 1, UNIT_BLOCK_CHUNK + 100):
        with pytest.raises(ValueError, match=f"count must be in 0..{UNIT_BLOCK_CHUNK}"):
            premixed_sources(1, 9, count, 0)


def test_a_premixed_row_is_read_only():
    # sibling streams' rows share their block's buffer
    for source in premixed_sources(5, 9, 2, 0):
        row = source._draws
        assert len(row) == PREMIXED_DRAWS and row.readonly
        with pytest.raises(TypeError):
            row[0] = 0


def test_the_largest_generation_block_keeps_the_heap_rule():
    assert core._LARGEST_BLOCK * PREMIXED_DRAWS * 8 + MALLOC_CHUNK_HEADER < GLIBC_MMAP_THRESHOLD, (
        "the largest generation block's PREMIXED_DRAWS 8-byte draws per stream plus malloc's "
        "header must stay under glibc's 128 KiB mmap threshold, so that every block and its "
        "scratch buffer come from the heap")


BATCHED_RUN = 600   # the scalar prefix, every block size and several capped blocks


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
def test_generation_sources_match_the_scalar_sources(seed):
    batched = list(core.generation_sources(seed, BATCHED_RUN))
    assert len(batched) == BATCHED_RUN
    # the batched path really serves every iteration past the scalar prefix
    assert sum(isinstance(source, PremixedSource) for source in batched) == (
        BATCHED_RUN - core._SCALAR_ITERATIONS)
    read_counts = (0, 5, PREMIXED_DRAWS, PREMIXED_DRAWS + 3)
    # one unread run per partial read
    unread = [list(core.generation_sources(seed, BATCHED_RUN)) for _ in read_counts]
    for iteration, (source, *fresh) in enumerate(zip(batched, *unread), start=1):
        def reference():
            return core.generation_source(seed, iteration)

        assert source.seed == reference().seed, iteration
        assert draws(source, 64) == draws(reference(), 64), iteration
        for reads, batched_source in zip(read_counts, fresh):
            assert (after_partial_read(batched_source, reads)
                    == after_partial_read(reference(), reads)), (iteration, reads)
    for campaign in default_registry().values():
        generated = [campaign.generate(source)
                     for source in core.generation_sources(seed, BATCHED_RUN)]
        expected = [campaign.generate(core.generation_source(seed, iteration))
                    for iteration in range(1, BATCHED_RUN + 1)]
        assert generated == expected, campaign.name


def test_generation_sources_build_each_block_only_when_reached(monkeypatch):
    blocks = []
    monkeypatch.setattr(core, "premixed_sources",
                        lambda *args: blocks.append(args) or premixed_sources(*args))
    sources = core.generation_sources(3, 1000)
    for _ in range(core._SCALAR_ITERATIONS):
        next(sources)
    assert blocks == []
    next(sources)
    assert len(blocks) == 1
    list(sources)
    # doubling blocks up to the cap, clamped to the run's last iteration
    sizes = [count for _, _, count, _ in blocks]
    assert sizes == [8, 16, 32, 64, 128, 256, 256, 232]
    assert sum(sizes) == 1000 - core._SCALAR_ITERATIONS


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
        streams = [(source.seed, draws(source, 20)) for source in
                   (core.generation_source(seed, i) for i in range(1, run + 1))]
        references[seed] = (block, streams)

    start = threading.Barrier(2, timeout=10)
    failures = []
    rounds = []

    def worker(seed):
        try:
            start.wait()
            for _ in range(5):
                block = SeededSource(seed).unit_block(block_size).view(np.uint64).tolist()
                streams = [(source.seed, draws(source, 20))
                           for source in core.generation_sources(seed, run)]
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
