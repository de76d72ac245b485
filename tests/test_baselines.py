"""Unit, differential, and metamorphic oracles against correct and buggy sorts."""

import dataclasses
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intramorph.baselines import (UnitCase, differential_oracle,
                                  metamorphic_removal_oracle, unit_oracle)
from intramorph.cases import sorting
from intramorph.core import InputCase, Provenance, RelationStatus, guarded_evaluator
from intramorph.registry import UNIT_CASE, get_campaign
from intramorph.seeds import SeededSource

arrays = st.lists(st.integers(min_value=0, max_value=9), max_size=8)

HANDWRITTEN_CASE = UnitCase(values=(3, 1, 2), expected=(1, 2, 3))


class FixedPicker:
    """Stands in for a seeded source; always picks the given index."""

    def __init__(self, index):
        self.index = index

    def below(self, bound):
        assert self.index < bound
        return self.index


# --- unit oracle -----------------------------------------------------------

def test_unit_oracle_holds_for_correct_sort():
    outcome = unit_oracle(sorting.bubble_sort, HANDWRITTEN_CASE)
    assert outcome.status is RelationStatus.HOLDS


def test_unit_oracle_catches_swap_index_bug():
    outcome = unit_oracle(sorting.bubble_sort_swap_index, HANDWRITTEN_CASE)
    assert outcome.status is RelationStatus.VIOLATED
    assert outcome.variant_output == [1, 2, 1]
    assert outcome.original_output == [1, 2, 3]


def test_unit_oracle_empty_case():
    outcome = unit_oracle(sorting.bubble_sort, UnitCase((), ()))
    assert outcome.status is RelationStatus.HOLDS


def test_unit_oracle_reports_crash():
    def broken(arr):
        raise IndexError("off the end")

    evaluate = guarded_evaluator(None, lambda case: unit_oracle(broken, case.payload))
    outcome = evaluate(InputCase(HANDWRITTEN_CASE, Provenance(0, 1)))
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert "IndexError" in outcome.error_detail


@pytest.mark.parametrize("campaign", ["sorting-unit", "sorting-differential",
                                      "sorting-metamorphic"])
def test_baseline_evaluation_is_bounded_by_the_budget(campaign):
    def sleepy_sort(arr):
        time.sleep(0.3)
        return sorted(arr)

    default = get_campaign(campaign)
    sleepy = dataclasses.replace(
        default, components={**default.components, "ascending": sleepy_sort})
    evaluate = sleepy.build_evaluator(sleepy.programs(None), None, 0.05)
    payload = UNIT_CASE if campaign == "sorting-unit" else (3, 1, 2)
    started = time.monotonic()
    outcome = evaluate(InputCase(payload, Provenance(0, 1)))
    assert time.monotonic() - started < 0.2
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert "budget" in outcome.error_detail


def test_unit_case_rejects_wrong_expected():
    with pytest.raises(ValueError):
        UnitCase(values=(3, 1, 2), expected=(3, 2, 1))


# --- differential oracle -----------------------------------------------------

ALL_SORTS = {"bubble": sorting.bubble_sort, "merge": sorting.merge_sort,
             "insertion": sorting.insertion_sort}


def test_differential_holds_for_agreeing_algorithms():
    outcome = differential_oracle(ALL_SORTS, [3, 1, 2])
    assert outcome.status is RelationStatus.HOLDS
    assert outcome.original_output == [1, 2, 3]


@given(arrays)
def test_differential_holds_on_all_inputs_for_correct_sorts(values):
    assert differential_oracle(ALL_SORTS, values).status is RelationStatus.HOLDS


def test_differential_single_algorithm_is_vacuous():
    outcome = differential_oracle({"swap-index": sorting.bubble_sort_swap_index}, [3, 1, 2])
    assert outcome.status is RelationStatus.HOLDS


def test_differential_catches_disagreement():
    outcome = differential_oracle({"swap-index": sorting.bubble_sort_swap_index,
                                   "merge": sorting.merge_sort}, [3, 1, 2])
    assert outcome.status is RelationStatus.VIOLATED
    assert outcome.original_output == [1, 2, 1]
    assert outcome.variant_output == [[1, 2, 1], [1, 2, 3]]


def test_differential_reports_which_algorithm_failed():
    def broken(arr):
        raise IndexError("off the end")

    evaluate = guarded_evaluator(
        None, lambda case: differential_oracle({**ALL_SORTS, "broken": broken}, case.payload))
    outcome = evaluate(InputCase((3, 1, 2), Provenance(0, 1)))
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert outcome.error_detail == "broken: IndexError: off the end"


def test_differential_requires_algorithms():
    with pytest.raises(ValueError):
        differential_oracle({}, [1])


def test_differential_does_not_mutate_input():
    values = [3, 1, 2]
    differential_oracle(ALL_SORTS, values)
    assert values == [3, 1, 2]


# --- metamorphic removal oracle ------------------------------------------------

def test_removal_holds_for_correct_sort():
    # sorted [3,1,2] is [1,2,3]; removing 2 leaves [1,3] on both sides
    outcome = metamorphic_removal_oracle(sorting.bubble_sort, [3, 1, 2], FixedPicker(1))
    assert outcome.status is RelationStatus.HOLDS
    assert outcome.original_output == [1, 3]


def test_removal_catches_swap_index_bug():
    # buggy sort yields [1,2,1]; removing 2 predicts [1,1], actual sort gives [1,3]
    outcome = metamorphic_removal_oracle(sorting.bubble_sort_swap_index, [3, 1, 2],
                                         FixedPicker(1))
    assert outcome.status is RelationStatus.VIOLATED
    assert outcome.original_output == [1, 1]
    assert outcome.variant_output == [1, 3]


def test_removal_singleton_reduces_to_empty():
    outcome = metamorphic_removal_oracle(sorting.bubble_sort, [5], FixedPicker(0))
    assert outcome.status is RelationStatus.HOLDS
    assert outcome.original_output == []
    assert outcome.variant_output == []


def test_removal_holds_vacuously_on_empty_input_without_sorting():
    def unreachable_sort(arr):
        raise AssertionError("an empty input must not be sorted")

    outcome = metamorphic_removal_oracle(unreachable_sort, [], FixedPicker(0))
    assert outcome.status is RelationStatus.HOLDS
    assert outcome.original_output == []
    assert outcome.variant_output == []


@given(arrays.filter(lambda v: len(v) >= 1),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_removal_holds_for_correct_sort_with_seeded_picker(values, seed):
    # duplicates included: first-occurrence removal keeps both sides aligned
    outcome = metamorphic_removal_oracle(sorting.bubble_sort, values, SeededSource(seed))
    assert outcome.status is RelationStatus.HOLDS


@given(arrays.filter(lambda v: len(v) >= 1),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_removal_removes_exactly_one_element_per_side(values, seed):
    outcome = metamorphic_removal_oracle(sorting.bubble_sort, values, SeededSource(seed))
    assert len(outcome.original_output) == len(values) - 1
    assert len(outcome.variant_output) == len(values) - 1


def test_removal_picker_is_replayable():
    first = metamorphic_removal_oracle(sorting.bubble_sort, [4, 4, 1, 9],
                                       SeededSource(77))
    second = metamorphic_removal_oracle(sorting.bubble_sort, [4, 4, 1, 9],
                                        SeededSource(77))
    assert first == second
