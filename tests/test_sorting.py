"""Sorting algorithms and their seeded bug catalog, and every program that
``cases.derive`` builds, in all four case studies, against the hand-written
body it replaced."""

import itertools
import re
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intramorph import cases
from intramorph.cases import ast_printing, derive, knapsack, montecarlo, sorting
from intramorph.cases.ast_printing import Constant, Operation, Variable
from intramorph.cases.knapsack import KnapsackSolution
from intramorph.cases.montecarlo import _squared_points
from intramorph.core import InputCase, Provenance, UnknownMutantError
from intramorph.generators import random_knapsack_instance, random_tree
from intramorph.harness import CampaignConfig, run_campaign
from intramorph.registry import get_campaign
from intramorph.seeds import SeededSource

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


def test_inject_returns_catalogued_functions():
    campaign = get_campaign("sorting-intramorphic")
    assert campaign.mutant("swap-index-i").replaces == {
        "ascending": sorting.bubble_sort_swap_index}
    # the buggy twin is derived from the buggy ascending sort: both sides change
    assert campaign.mutant("comparison-flip-reverse").replaces == {
        "ascending": sorting.bubble_sort_swap_index,
        "descending": sorting.bubble_sort_reverse_swap_index}
    # forgetting the flip leaves the ascending sort in the descending slot
    assert campaign.mutant("sort-ascending-in-reverse").replaces == {
        "descending": sorting.bubble_sort}


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


# --- derived programs ----------------------------------------------------------
# references: the hand-written bodies the derived programs replaced; derive
# must produce the same bytecode and the same outputs

def hand_written_swap_index(arr: list) -> list:
    length = len(arr)
    for i in range(length):
        for j in range(0, length - i - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[i]
    return arr


def hand_written_reverse(arr: list) -> list:
    length = len(arr)
    for i in range(length):
        for j in range(0, length - i - 1):
            if arr[j] < arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return arr


def hand_written_reverse_swap_index(arr: list) -> list:
    length = len(arr)
    for i in range(length):
        for j in range(0, length - i - 1):
            if arr[j] < arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[i]
    return arr


def hand_written_paren_left_as_right(node):
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    left = hand_written_paren_left_as_right(node.left)
    right = hand_written_paren_left_as_right(node.right)
    if node.operator == "*":
        if isinstance(node.left, Operation) and node.left.operator == "+":
            left = "(" + left + ")"
        if isinstance(node.right, Operation) and node.right.operator == "+":
            right = "(" + left + ")"
    return left + " " + node.operator + " " + right


def hand_written_greedy_sorted_ascending(instance):
    packed: list[str] = []
    cum_value = 0
    cum_weight = 0
    order = sorted(instance.items, key=lambda item: Fraction(item.value, item.weight))
    for name, value, weight in order:
        while cum_weight + weight <= instance.capacity:
            cum_weight += weight
            cum_value += value
            packed.append(name)
    return KnapsackSolution(tuple(packed), cum_value, cum_weight, instance.capacity)


def hand_written_greedy_capacity_off_by_one(instance):
    packed: list[str] = []
    cum_value = 0
    cum_weight = 0
    order = sorted(instance.items, key=lambda item: Fraction(item.value, item.weight),
                   reverse=True)
    for name, value, weight in order:
        while cum_weight + weight <= instance.capacity + 1:
            cum_weight += weight
            cum_value += value
            packed.append(name)
    return KnapsackSolution(tuple(packed), cum_value, cum_weight, instance.capacity)


def hand_written_pi_wrong_scale(n, source):
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    hits = sum(int(np.count_nonzero(xx + yy <= 1.0)) for xx, yy in _squared_points(n, source))
    return 2 * hits / n


def hand_written_pi_boundary_strict(n, source):
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    hits = sum(int(np.count_nonzero(xx + yy < 1.0)) for xx, yy in _squared_points(n, source))
    return 4 * hits / n


def hand_written_pi_one_coordinate(n, source):
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    hits = sum(int(np.count_nonzero(xx <= 1.0)) for xx, _ in _squared_points(n, source))
    return 4 * hits / n


# argument tuples, built afresh on each call: the sorts work in place
def all_small_arrays():
    return [(list(values),) for length in range(7)
            for values in itertools.product(range(4), repeat=length)]


def generated_trees():
    return [(random_tree(SeededSource(seed)),) for seed in range(2000)]


def generated_instances():
    return [(random_knapsack_instance(SeededSource(seed)),)
            for seed in range(2000)]


def sample_counts():
    # test_montecarlo.py also checks these estimators against whole-block references
    return [(n, SeededSource(seed)) for n in (1, 10, 5000) for seed in range(3)]


# (derived program, the body it replaced, the program it is derived from, inputs)
DERIVED = [
    (sorting.bubble_sort_reverse, hand_written_reverse, sorting.bubble_sort,
     all_small_arrays),
    (sorting.bubble_sort_reverse_swap_index, hand_written_reverse_swap_index,
     sorting.bubble_sort, all_small_arrays),
    (sorting.bubble_sort_swap_index, hand_written_swap_index, sorting.bubble_sort,
     all_small_arrays),
    (ast_printing.infix_paren_left_as_right, hand_written_paren_left_as_right,
     ast_printing.as_string_infix, generated_trees),
    (knapsack.knapsack_greedy_capacity_off_by_one, hand_written_greedy_capacity_off_by_one,
     knapsack.knapsack_greedy, generated_instances),
    (knapsack.knapsack_greedy_sorted_ascending, hand_written_greedy_sorted_ascending,
     knapsack.knapsack_greedy, generated_instances),
    (montecarlo.pi_wrong_scale, hand_written_pi_wrong_scale, montecarlo.pi_approximation,
     sample_counts),
    (montecarlo.pi_boundary_strict, hand_written_pi_boundary_strict,
     montecarlo.pi_approximation, sample_counts),
    (montecarlo.pi_one_coordinate, hand_written_pi_one_coordinate,
     montecarlo.pi_approximation, sample_counts),
]


def code_objects(code: types.CodeType) -> list:
    """``code`` and every lambda, generator expression or def nested in it."""
    return [code, *(nested for const in code.co_consts if isinstance(const, types.CodeType)
                    for nested in code_objects(const))]


@pytest.mark.parametrize("derived, reference, origin, inputs", DERIVED)
def test_derived_twin_equals_the_hand_written_one(derived, reference, origin, inputs):
    assert ([code.co_code for code in code_objects(derived.__code__)]
            == [code.co_code for code in code_objects(reference.__code__)])
    for index, (derived_args, reference_args) in enumerate(zip(inputs(), inputs())):
        assert derived(*derived_args) == reference(*reference_args), (inputs.__name__, index)


@pytest.mark.parametrize("derived, origin", [(derived, origin)
                                             for derived, _, origin, _ in DERIVED])
def test_derived_twin_keeps_its_name_and_source_location(derived, origin):
    module = sys.modules[origin.__module__]
    assert getattr(module, derived.__name__) is derived
    assert derived.__qualname__ == derived.__name__
    assert derived.__module__ == origin.__module__
    assert derived.__code__.co_filename == module.__file__
    assert derived.__code__.co_firstlineno == origin.__code__.co_firstlineno
    assert derived.__doc__ and derived.__doc__ != origin.__doc__


def test_derive_rejects_an_edit_that_matches_nothing():
    with pytest.raises(ValueError, match=re.escape("'arr[k]' occurs 0 times in bubble_sort")):
        derive(sorting.bubble_sort, "no_site", "doc", ("arr[k]", "arr[i]"))


def test_derive_rejects_an_edit_that_matches_twice():
    # arr[j] is read in the comparison and in the swap's source tuple
    with pytest.raises(ValueError, match=re.escape("'arr[j]' occurs 2 times in bubble_sort")):
        derive(sorting.bubble_sort, "two_sites", "doc", ("arr[j]", "arr[i]"))


def test_derive_rejects_a_derived_function():
    # its lines are bubble_sort's, so the swap-index edit would be lost
    with pytest.raises(ValueError, match="no def of bubble_sort_swap_index at .*sorting.py:"):
        derive(sorting.bubble_sort_swap_index, "again", "doc",
               ("arr[j] > arr[j + 1]", "arr[j] < arr[j + 1]"))


def test_derive_renames_recursive_calls():
    names = ast_printing.infix_paren_left_as_right.__code__.co_names
    assert "infix_paren_left_as_right" in names
    assert "as_string_infix" not in names


@pytest.mark.parametrize("origin", [sorting.bubble_sort, knapsack.knapsack_greedy])
def test_derive_sets_the_docstring(origin):
    # bubble_sort has no docstring; knapsack_greedy's is replaced, not inherited
    assert derive(origin, "documented", "the given doc").__doc__ == "the given doc"


def test_derive_leaves_the_original_untouched():
    code = sorting.bubble_sort.__code__
    flipped = derive(sorting.bubble_sort, "flipped", "doc",
                     ("arr[j] > arr[j + 1]", "arr[j] < arr[j + 1]"))
    assert flipped([1, 3, 2]) == [3, 2, 1]
    assert sorting.bubble_sort.__code__ is code and sorting.bubble_sort.__name__ == "bubble_sort"
    assert sorted_copy(sorting.bubble_sort, [1, 3, 2]) == [1, 2, 3]
    assert not hasattr(sorting, "flipped")


def test_derive_parses_a_module_once_and_edits_a_copy():
    # the second derivation reuses the first one's parse: had the first edited
    # the parsed def in place, the second would find no site to edit
    edit = ("arr[j] > arr[j + 1]", "arr[j] < arr[j + 1]")
    first = derive(sorting.bubble_sort, "first", "doc", edit)
    hits = cases._parse.cache_info().hits
    second = derive(sorting.bubble_sort, "second", "doc", edit)
    assert cases._parse.cache_info().hits == hits + 1
    assert first.__code__.co_code == second.__code__.co_code
    assert first([1, 3, 2]) == second([1, 3, 2]) == [3, 2, 1]
