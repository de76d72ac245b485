"""Seeded input generation and shrinking for each case study's input domain.

Each case study has one input domain, fixed by the module constants below:
the original and its twin always run on inputs drawn from it. The ranges
are deliberately small (values 0..9, length <= 8) so repeated elements show
up often; duplicates are where removal and reversal relations get
interesting. All generators are pure functions of the source's seed.

Each domain's scalar generator (``random_array``) has a block form
(``random_arrays``) that returns ``[random_array(generation_source(seed,
first + k)) for k in range(count)]`` from one matrix of the block's draws
(``core.generation_draws``), ``*_DRAWS`` wide: the most draws the scalar
generator can take. ``below(bound)`` is a draw modulo ``bound``, so the
block forms reduce whole columns in numpy and read the rows back as small
ints.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from .cases.ast_printing import Constant, ExprNode, Operation, Variable
from .cases.knapsack import KnapsackInstance, KnapsackItem
from .core import generation_draws
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

# the most draws each scalar generator takes: a length and its values; a full
# tree's 2 ** (depth + 1) - 1 nodes at 2 draws each; a count, two draws per
# item and a capacity
ARRAY_DRAWS = 1 + ARRAY_MAX_LENGTH
TREE_DRAWS = 2 * (2 ** (TREE_MAX_DEPTH + 1) - 1)
KNAPSACK_DRAWS = 2 + 2 * KNAPSACK_MAX_ITEMS

_ARRAY_SPAN = ARRAY_VALUE_MAX - ARRAY_VALUE_MIN + 1
_CONSTANT_SPAN = TREE_CONSTANT_MAX - TREE_CONSTANT_MIN + 1
# a multiple of every bound a tree's draws are reduced by, so a draw reduced
# by it still gives each of them
_TREE_MODULUS = math.lcm(2, len(TREE_VARIABLES), _CONSTANT_SPAN)
_VALUE_SPAN = KNAPSACK_VALUE_MAX - KNAPSACK_VALUE_MIN + 1
_WEIGHT_SPAN = KNAPSACK_WEIGHT_MAX - KNAPSACK_WEIGHT_MIN + 1
_CAPACITY_SPAN = KNAPSACK_CAPACITY_MAX - KNAPSACK_CAPACITY_MIN + 1
_ITEM_NAMES = tuple(chr(ord("A") + index) for index in range(KNAPSACK_MAX_ITEMS))

_new = tuple.__new__


def random_array(source: SeededSource) -> tuple[int, ...]:
    """Length uniform in 0..ARRAY_MAX_LENGTH, elements uniform in the value range."""
    length = source.below(ARRAY_MAX_LENGTH + 1)
    return tuple([ARRAY_VALUE_MIN + source.below(_ARRAY_SPAN) for _ in range(length)])


def random_arrays(seed: int, first: int, count: int) -> list[tuple[int, ...]]:
    """The block form of :func:`random_array`."""
    draws = generation_draws(seed, first, count, ARRAY_DRAWS)
    lengths = (draws[:, 0] % (ARRAY_MAX_LENGTH + 1)).tolist()
    values = draws[:, 1:] % _ARRAY_SPAN
    values += ARRAY_VALUE_MIN
    return [tuple(row[:length]) for row, length in zip(values.tolist(), lengths)]


def random_tree(source: SeededSource) -> ExprNode:
    """Tree over {+, *} operations, variables, and constants, depth <= TREE_MAX_DEPTH.

    Draw order is fixed (branch flag, then kind/operator, then left before
    right) so a seed always produces the same tree."""
    return _tree(source.next_u64, 0)


def random_trees(seed: int, first: int, count: int) -> list[ExprNode]:
    """The block form of :func:`random_tree`."""
    rows = (generation_draws(seed, first, count, TREE_DRAWS) % _TREE_MODULUS).tolist()
    return [_tree(iter(row).__next__, 0) for row in rows]


def _tree(draw: Callable[[], int], depth: int) -> ExprNode:
    """The tree whose draws ``draw()`` returns in turn, each reduced by its
    bound. The nodes are valid by construction, so they are built with
    ``tuple.__new__``, which skips the constructors' frames and
    ``Operation``'s operator check."""
    if depth < TREE_MAX_DEPTH and draw() % 2 == 0:
        operator = "+" if draw() % 2 == 0 else "*"
        left = _tree(draw, depth + 1)
        return _new(Operation, (operator, left, _tree(draw, depth + 1)))
    if draw() % 2 == 0:
        return _new(Variable, (TREE_VARIABLES[draw() % len(TREE_VARIABLES)],))
    return _new(Constant, (TREE_CONSTANT_MIN + draw() % _CONSTANT_SPAN,))


def random_knapsack_instance(source: SeededSource) -> KnapsackInstance:
    """0..KNAPSACK_MAX_ITEMS uniquely named items plus a capacity, all uniform
    in range. ``KnapsackInstance`` still rejects a bad instance."""
    count = source.below(KNAPSACK_MAX_ITEMS + 1)
    items = tuple([
        KnapsackItem(name=_ITEM_NAMES[index],
                     value=KNAPSACK_VALUE_MIN + source.below(_VALUE_SPAN),
                     weight=KNAPSACK_WEIGHT_MIN + source.below(_WEIGHT_SPAN))
        for index in range(count)])
    capacity = KNAPSACK_CAPACITY_MIN + source.below(_CAPACITY_SPAN)
    return KnapsackInstance(items, capacity)


def random_knapsack_instances(seed: int, first: int, count: int) -> list[KnapsackInstance]:
    """The block form of :func:`random_knapsack_instance`. Item i's value and
    weight are columns 1 + 2i and 2 + 2i, and the capacity is the column
    after the last item's. The instances are valid by construction, so they
    are built unchecked; the tests compare them with the scalar form's
    checked ones."""
    draws = generation_draws(seed, first, count, KNAPSACK_DRAWS)
    counts = draws[:, 0] % (KNAPSACK_MAX_ITEMS + 1)
    capacities = draws[range(count), 1 + 2 * counts] % _CAPACITY_SPAN
    capacities += KNAPSACK_CAPACITY_MIN
    values = draws[:, 1::2] % _VALUE_SPAN
    values += KNAPSACK_VALUE_MIN
    weights = draws[:, 2::2] % _WEIGHT_SPAN
    weights += KNAPSACK_WEIGHT_MIN
    unchecked = KnapsackInstance._unchecked
    return [unchecked(tuple([_new(KnapsackItem, item)
                             for item in zip(_ITEM_NAMES[:items], value_row, weight_row)]),
                      capacity)
            for items, value_row, weight_row, capacity
            in zip(counts.tolist(), values.tolist(), weights.tolist(), capacities.tolist())]


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
