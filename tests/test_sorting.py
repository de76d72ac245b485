"""Sorting algorithms, the descending twin, and the seeded bug catalog."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intramorph.cases import sorting
from intramorph.core import InputCase, Provenance, UnknownMutantError
from intramorph.harness import CampaignConfig, run_campaign
from intramorph.registry import get_campaign

arrays = st.lists(st.integers(min_value=0, max_value=9), max_size=8)


def sorted_copy(sort_fn, values):
    """Run an in-place sort on a private copy of ``values``."""
    return sort_fn(list(values))


@given(arrays)
def test_ascending_sorts_agree_with_builtin(values):
    expected = sorted(values)
    assert sorted_copy(sorting.bubble_sort, values) == expected
    assert sorted_copy(sorting.insertion_sort, values) == expected
    assert sorted_copy(sorting.merge_sort, values) == expected


@given(arrays)
def test_descending_twin_agrees_with_builtin(values):
    assert sorted_copy(sorting.bubble_sort_reverse, values) == sorted(
        values, reverse=True)


def test_sort_examples():
    assert sorted_copy(sorting.bubble_sort, [3, 1, 2]) == [1, 2, 3]
    assert sorted_copy(sorting.bubble_sort, []) == []
    assert sorted_copy(sorting.bubble_sort, [5, 5, 1]) == [1, 5, 5]
    assert sorted_copy(sorting.bubble_sort_reverse, [3, 1, 2]) == [3, 2, 1]
    assert sorted_copy(sorting.bubble_sort_reverse, [2, 2]) == [2, 2]


def test_sorted_copy_leaves_input_alone():
    # every sorting campaign sorts private copies, even of a mutable payload
    for name in ("sorting-differential", "sorting-metamorphic", "sorting-intramorphic",
                 "sorting-equivalence"):
        values = [3, 1, 2]
        get_campaign(name).build_evaluator(None, None, 5.0)(
            InputCase(values, Provenance(1, 1)))
        assert values == [3, 1, 2], name


def test_reverse_relation_examples():
    assert sorting.reverse_relation([1, 2, 3], [3, 2, 1]) is True
    assert sorting.reverse_relation([], []) is True
    assert sorting.reverse_relation([1, 2, 1], [3, 2, 1]) is False


@given(arrays)
def test_reverse_relation_links_the_two_sorts(values):
    ascending = sorted_copy(sorting.bubble_sort, values)
    descending = sorted_copy(sorting.bubble_sort_reverse, values)
    assert sorting.reverse_relation(ascending, descending)


def test_swap_index_bug_known_output():
    assert sorted_copy(sorting.bubble_sort_swap_index, [3, 1, 2]) == [1, 2, 1]


def test_swap_index_bug_silent_on_sorted_input():
    # no swap fires, so the bad index is never read
    assert sorted_copy(sorting.bubble_sort_swap_index, [1, 2, 3]) == [1, 2, 3]


def test_swap_index_bug_needs_three_elements():
    # brute force over small arrays: below length 3 the bad index coincides
    # with the right one, so the minimal trigger has exactly three elements
    for length in (0, 1, 2):
        for values in itertools.product(range(3), repeat=length):
            assert sorted_copy(sorting.bubble_sort_swap_index,
                                       list(values)) == sorted(values)
    triggers = [values for values in itertools.product(range(3), repeat=3)
                if sorted_copy(sorting.bubble_sort_swap_index,
                                       list(values)) != sorted(values)]
    assert triggers, "no length-3 array triggers the bug"


def test_doubly_buggy_pair_behavior_determined_by_execution():
    # with both sides carrying the index bug the outputs still break the
    # reverse relation; the exact values come from running the code
    buggy_ascending = sorted_copy(sorting.bubble_sort_swap_index, [3, 1, 2])
    buggy_descending = sorted_copy(sorting.bubble_sort_reverse_swap_index,
                                           [3, 1, 2])
    assert buggy_ascending == [1, 2, 1]
    assert buggy_descending == [3, 2, 3]
    assert not sorting.reverse_relation(buggy_ascending, buggy_descending)


@given(arrays)
def test_not_flipped_twin_sorts_ascending(values):
    assert sorted_copy(sorting.bubble_sort_reverse_not_flipped,
                               values) == sorted(values)


def test_inject_returns_catalogued_functions():
    campaign = get_campaign("sorting-intramorphic")
    assert campaign.mutant("swap-index-i").replaces == {
        "ascending": sorting.bubble_sort_swap_index}
    # the buggy twin is derived from the buggy ascending sort: both sides change
    assert campaign.mutant("comparison-flip-reverse").replaces == {
        "ascending": sorting.bubble_sort_swap_index,
        "descending": sorting.bubble_sort_reverse_swap_index}
    assert campaign.mutant("sort-ascending-in-reverse").replaces == {
        "descending": sorting.bubble_sort_reverse_not_flipped}


def test_inject_unknown_name_raises():
    with pytest.raises(UnknownMutantError):
        get_campaign("sorting-intramorphic").mutant("made-up")


@pytest.mark.parametrize("mutant", ["swap-index-i", "comparison-flip-reverse",
                                    "sort-ascending-in-reverse"])
def test_every_catalogued_mutant_detected_by_reverse_campaign(mutant):
    report = run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=42,
                                         iterations=1000, mutant=mutant))
    assert report.violations >= 1
    assert report.first_violation_iteration <= 1000
