"""Black-box comparison oracles: unit, differential, and metamorphic removal.

These are the standard alternatives the harness runs side by side with the
program-pair oracles. They return the same outcome type and raise when a
sort fails, labelled by which sort call it was, as a program pair's failure
is labelled by its side; the registry guards them like every other oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .core import EXECUTION_FAILURES, ProgramFailed, RelationOutcome
from .seeds import SeededSource

SortFunction = Callable[[list], list]


def not_a_list(output: Any) -> TypeError:
    """The failure of a sort that returned ``output`` where a list was due."""
    return TypeError(f"sort returned {type(output).__name__}, not a list")


def _sort_copy(sort_fn: SortFunction, values: Sequence[int], label: str) -> list:
    """Sorts a private copy; a sort that returns no list failed, not answered.
    A failure of the sort is labelled with ``label``; an overrun is not."""
    try:
        output = sort_fn(list(values))
    except EXECUTION_FAILURES as exc:
        raise ProgramFailed(label) from exc
    if not isinstance(output, list):
        raise ProgramFailed(label) from not_a_list(output)
    return output


@dataclass(frozen=True)
class UnitCase:
    """Hand-written input/expected pair for one sort invocation."""

    values: tuple[int, ...]
    expected: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.values) != list(self.expected):
            raise ValueError(
                f"expected {list(self.expected)} is not the sorted form of {list(self.values)}")


def unit_oracle(sort_fn: SortFunction, case: UnitCase) -> RelationOutcome:
    """Holds iff sorting a copy of the input yields the expected array."""
    expected = list(case.expected)
    actual = _sort_copy(sort_fn, case.values, "sort")
    return RelationOutcome.from_check(actual == expected, expected, actual)


def differential_oracle(algorithms: Mapping[str, SortFunction], values: Sequence[int]
                        ) -> RelationOutcome:
    """Holds iff every algorithm's output equals the first algorithm's output.

    ``algorithms`` maps the label a failure of each algorithm carries to it."""
    if not algorithms:
        raise ValueError("differential oracle needs at least one algorithm")
    outputs = [_sort_copy(algorithm, values, label) for label, algorithm in algorithms.items()]
    all_same = all(output == outputs[0] for output in outputs)
    return RelationOutcome.from_check(all_same, outputs[0], outputs)


def metamorphic_removal_oracle(sort_fn: SortFunction, values: Sequence[int],
                               picker: SeededSource) -> RelationOutcome:
    """Removing one element must keep the relative order of the rest.

    Sorts the input, picks an element from the sorted output via the seeded
    picker, deletes its first occurrence from both the input and the sorted
    output, and checks that sorting the reduced input matches the reduced
    sorted output. First-occurrence removal keeps both sides aligned when
    the array contains duplicates. An empty input has nothing to remove, so
    the relation holds vacuously, with outputs ``([], [])``, and nothing is
    sorted.
    """
    if len(values) < 1:
        return RelationOutcome.from_check(True, [], [])
    sorted_full = _sort_copy(sort_fn, values, "sort of the full input")
    chosen = sorted_full[picker.below(len(sorted_full))]
    reduced_input = list(values)
    reduced_input.remove(chosen)
    expected = list(sorted_full)
    expected.remove(chosen)
    actual = _sort_copy(sort_fn, reduced_input, "sort of the reduced input")
    return RelationOutcome.from_check(actual == expected, expected, actual)
