"""Determinism and independence of the seeded randomness layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intramorph.seeds import UNIT_BLOCK_CHUNK, DerivedSource, SeededSource, derive_seed

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
    for make in (lambda: SeededSource(1), lambda: DerivedSource(1, 2, 3)):
        for bound in (0, -1):
            source, reference = make(), make()
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


@given(seeds)
def test_derive_is_deterministic_and_salt_sensitive(seed):
    assert derive_seed(seed, 3, 7) == derive_seed(seed, 3, 7)
    assert derive_seed(seed, 3, 7) != derive_seed(seed, 3, 8)
    assert derive_seed(seed, 3, 7) != derive_seed(seed, 4, 7)


@given(seeds)
def test_derived_streams_differ_between_iterations(seed):
    first = SeededSource(seed).derive(1)
    second = SeededSource(seed).derive(2)
    assert [first.next_u64() for _ in range(4)] != [second.next_u64() for _ in range(4)]


def test_derive_ignores_stream_position():
    consumed = SeededSource(99)
    consumed.next_u64()
    fresh = SeededSource(99)
    assert consumed.derive(5).next_u64() == fresh.derive(5).next_u64()


def test_seed_is_masked_to_64_bits():
    assert SeededSource(2**64 + 1).seed == 1


@given(seeds, st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5))
def test_choice_picks_members(seed, items):
    assert SeededSource(seed).choice(items) in items


def stream(source):
    """The source's next draws through every drawing method, and a child."""
    return ([source.next_u64(), source.below(7), source.unit(), source.choice("abc")],
            list(source.unit_block(5)), source.next_u64(), source.derive(4).next_u64())


salt_paths = st.lists(st.integers(min_value=0, max_value=2**20), max_size=4)


@given(seeds, salt_paths)
def test_derived_source_first_read_by_a_draw_matches_the_eager_source(base, salts):
    lazy = DerivedSource(base, *salts)
    eager = SeededSource(derive_seed(base, *salts))
    assert stream(lazy) == stream(eager)
    assert (lazy.seed, repr(lazy)) == (eager.seed, repr(eager))


@given(seeds, salt_paths)
def test_derived_source_first_read_by_its_seed_matches_the_eager_source(base, salts):
    lazy = DerivedSource(base, *salts)
    eager = SeededSource(derive_seed(base, *salts))
    assert lazy.seed == eager.seed
    assert repr(lazy) == repr(eager)
    assert stream(lazy) == stream(eager)


@given(seeds, salt_paths)
def test_derived_children_match_eager_children(base, salts):
    # the parent is never read before its child is derived
    child = DerivedSource(base).derive(*salts)
    assert stream(child) == stream(SeededSource(derive_seed(base, *salts)))


def test_derived_source_derives_once_and_only_when_read(monkeypatch):
    calls = []
    monkeypatch.setattr("intramorph.seeds.derive_seed",
                        lambda *args: calls.append(args) or derive_seed(*args))
    source = DerivedSource(9, 1, 2)
    assert calls == []
    source.below(3)
    source.seed
    source.unit()
    assert calls == [(9, 1, 2)]
