"""Seeded input generation and shrinking for each case study's input domain.

Each case study has one input domain, fixed by the module constants below:
the original and its twin always run on inputs drawn from it. The ranges
are deliberately small (values 0..9, length <= 8) so repeated elements show
up often; duplicates are where removal and reversal relations get
interesting. All generators are pure functions of the source's seed.
"""

from __future__ import annotations

from functools import lru_cache

from .cases.ast_printing import Constant, ExprNode, Operation, Variable
from .cases.knapsack import KnapsackInstance, KnapsackItem
from .seeds import SeededSource

ARRAY_MAX_LENGTH = 8
ARRAY_VALUE_MIN, ARRAY_VALUE_MAX = 0, 9

TREE_MAX_DEPTH = 4
TREE_VARIABLES = ("a", "b", "c")
TREE_CONSTANT_MIN, TREE_CONSTANT_MAX = 0, 9

KNAPSACK_MAX_ITEMS = 6
KNAPSACK_VALUE_MIN, KNAPSACK_VALUE_MAX = 1, 20
# weights start at 1: a zero weight would make the greedy fill loop spin
KNAPSACK_WEIGHT_MIN, KNAPSACK_WEIGHT_MAX = 1, 10
KNAPSACK_CAPACITY_MIN, KNAPSACK_CAPACITY_MAX = 1, 50

_new = tuple.__new__


def random_array(source: SeededSource) -> tuple[int, ...]:
    """Length uniform in 0..ARRAY_MAX_LENGTH, elements uniform in the value range."""
    length = source.below(ARRAY_MAX_LENGTH + 1)
    span = ARRAY_VALUE_MAX - ARRAY_VALUE_MIN + 1
    return tuple([ARRAY_VALUE_MIN + source.below(span) for _ in range(length)])


def random_tree(source: SeededSource, _depth: int = 0) -> ExprNode:
    """Tree over {+, *} operations, variables, and constants, depth <= TREE_MAX_DEPTH.

    Draw order is fixed (branch flag, then kind/operator, then left before
    right) so a seed always produces the same tree. The nodes are valid by
    construction, so they are built with ``tuple.__new__``, which skips the
    constructors' frames and ``Operation``'s operator check.
    """
    branch = _depth < TREE_MAX_DEPTH and source.below(2) == 0
    if branch:
        operator = "+" if source.below(2) == 0 else "*"
        left = random_tree(source, _depth + 1)
        right = random_tree(source, _depth + 1)
        return _new(Operation, (operator, left, right))
    if source.below(2) == 0:
        return _new(Variable, (source.choice(TREE_VARIABLES),))
    span = TREE_CONSTANT_MAX - TREE_CONSTANT_MIN + 1
    return _new(Constant, (TREE_CONSTANT_MIN + source.below(span),))


def random_knapsack_instance(source: SeededSource) -> KnapsackInstance:
    """0..KNAPSACK_MAX_ITEMS uniquely named items plus a capacity, all uniform
    in range. ``KnapsackInstance`` still rejects a bad instance."""
    count = source.below(KNAPSACK_MAX_ITEMS + 1)
    value_span = KNAPSACK_VALUE_MAX - KNAPSACK_VALUE_MIN + 1
    weight_span = KNAPSACK_WEIGHT_MAX - KNAPSACK_WEIGHT_MIN + 1
    items = tuple([
        KnapsackItem(name=chr(ord("A") + index),
                     value=KNAPSACK_VALUE_MIN + source.below(value_span),
                     weight=KNAPSACK_WEIGHT_MIN + source.below(weight_span))
        for index in range(count)])
    capacity_span = KNAPSACK_CAPACITY_MAX - KNAPSACK_CAPACITY_MIN + 1
    capacity = KNAPSACK_CAPACITY_MIN + source.below(capacity_span)
    return KnapsackInstance(items, capacity)


def shrink_array(payload: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Single-element deletions first, then per-position magnitude cuts.

    Candidates are distinct: a deletion is shorter than any cut, and cuts
    at different positions differ where each one cut, so only the
    replacements at one position need deduplicating.
    """
    candidates = [payload[:index] + payload[index + 1:] for index in range(len(payload))]
    for index, value in enumerate(payload):
        if value == 0:
            continue
        head, tail = payload[:index], payload[index + 1:]
        for cut in _cuts(value):
            candidates.append(head + cut + tail)
    return candidates


@lru_cache(maxsize=256, typed=True)
def _cuts(value: int) -> tuple[tuple[int], ...]:
    """The replacements of a nonzero value, towards zero in big steps, then
    by one, each as a 1-tuple."""
    step_down = value - 1 if value > 0 else value + 1
    return tuple((replacement,) for replacement in dict.fromkeys((0, value // 2, step_down))
                 if abs(replacement) < abs(value))


def shrink_tree(payload: ExprNode) -> list[ExprNode]:
    """Replace any operation node by either of its children (one at a time).

    A candidate keeps a valid operation's operator, so it is built unchecked."""
    if not isinstance(payload, Operation):
        return []
    operator, left, right = payload
    candidates: list[ExprNode] = [left, right]
    for smaller_left in shrink_tree(left):
        candidates.append(_new(Operation, (operator, smaller_left, right)))
    for smaller_right in shrink_tree(right):
        candidates.append(_new(Operation, (operator, left, smaller_right)))
    return candidates


def shrink_knapsack(payload: KnapsackInstance) -> list[KnapsackInstance]:
    """Single-item deletions first, then capacity cuts. A deletion has fewer
    items than any cut, so only the cut capacities need deduplicating.

    The candidates are built unchecked: each one of a valid instance is
    valid, since its items are a subset of uniquely named ones with their
    weights and values unchanged, and its capacity is 0, half or one less
    than a capacity >= 1."""
    items, capacity = payload.items, payload.capacity
    unchecked = KnapsackInstance._unchecked
    candidates = [unchecked(items[:index] + items[index + 1:], capacity)
                  for index in range(len(items))]
    if capacity > 0:
        for smaller in dict.fromkeys((0, capacity // 2, capacity - 1)):
            candidates.append(unchecked(items, smaller))
    return candidates
