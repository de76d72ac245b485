"""Unbounded knapsack case study: greedy solver vs. exhaustive replacement.

The production algorithm is the density-ordered greedy; replacing it with an
exhaustive search over every feasible multiset, filled in one table row by
remaining capacity, gives an oracle, since the exhaustive value can never be
worse.
Each greedy bug is one edit of the greedy; the exhaustive bug is written out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ..core import BudgetExceededError
from . import derive

# Reject searches whose item-count * (capacity / min weight) bound exceeds
# this; the generated instances stay orders of magnitude below.
SEARCH_NODE_BUDGET = 1_000_000
# Most copies one packing holds plus the item count: no stack limit, since
# nothing recurses, but kept as the search-size contract.
SEARCH_DEPTH_BUDGET = 900


class KnapsackItem(NamedTuple):
    name: str
    value: int
    weight: int


@dataclass(frozen=True)
class KnapsackInstance:
    items: tuple[KnapsackItem, ...]
    capacity: int

    def __post_init__(self) -> None:
        names = [item.name for item in self.items]
        if len(set(names)) != len(names):
            raise ValueError(f"item names must be unique, got {names}")
        for item in self.items:
            if item.weight < 1:
                # zero weights would make the greedy fill loop spin forever
                raise ValueError(f"item weights must be >= 1, got {item}")
            if item.value < 1:
                raise ValueError(f"item values must be >= 1, got {item}")
        if self.capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {self.capacity}")


@dataclass(frozen=True)
class KnapsackSolution:
    packed: tuple[str, ...]
    cum_value: int
    cum_weight: int
    capacity: int

    @property
    def feasible(self) -> bool:
        return self.cum_weight <= self.capacity


def knapsack_greedy(instance: KnapsackInstance) -> KnapsackSolution:
    """Fill by non-increasing value density; feasible but not always optimal.

    Density ties keep the original item order (stable sort); densities are
    exact rationals so the ordering never depends on float rounding.
    """
    packed: list[str] = []
    cum_value = 0
    cum_weight = 0
    order = sorted(instance.items, key=lambda item: Fraction(item.value, item.weight),
                   reverse=True)
    for name, value, weight in order:
        while cum_weight + weight <= instance.capacity:
            cum_weight += weight
            cum_value += value
            packed.append(name)
    return KnapsackSolution(tuple(packed), cum_value, cum_weight, instance.capacity)


def _check_search_budget(instance: KnapsackInstance) -> None:
    if not instance.items or instance.capacity == 0:
        return
    min_weight = min(item.weight for item in instance.items)
    if len(instance.items) * (instance.capacity / min_weight) > SEARCH_NODE_BUDGET:
        raise BudgetExceededError(
            f"search bound exceeds {SEARCH_NODE_BUDGET} nodes for {len(instance.items)} "
            f"items at capacity {instance.capacity}")
    most_copies = instance.capacity // min_weight
    if most_copies + len(instance.items) > SEARCH_DEPTH_BUDGET:
        raise BudgetExceededError(
            f"search size exceeds {SEARCH_DEPTH_BUDGET}: up to {most_copies} copies in one "
            f"packing plus {len(instance.items)} items")


def knapsack_exhaustive(instance: KnapsackInstance) -> KnapsackSolution:
    """The most valuable feasible multiset, by the include-or-move-past search.

    At ``(capacity, index)`` the search includes one more copy of the item
    (index unchanged) or moves past it. Its states are filled bottom-up in one
    row ``best`` by remaining capacity: walking the items in reverse, ``best[c]``
    holds ``(c, index + 1)`` until the item's pass reaches ``c`` in increasing
    order, when ``best[c - weight]`` already holds ``(c - weight, index)``.
    Exclusion wins ties: one more copy must be strictly more valuable."""
    _check_search_budget(instance)
    # (value, weight, names) of the best packing of each remaining capacity;
    # names is a cons chain (name, rest) to share tails
    best = [(0, 0, None)] * (instance.capacity + 1)
    for name, value, weight in reversed(instance.items):
        for capacity in range(weight, len(best)):
            sub_value, sub_weight, sub_names = best[capacity - weight]
            if value + sub_value > best[capacity][0]:
                best[capacity] = (value + sub_value, weight + sub_weight, (name, sub_names))
    cum_value, cum_weight, chain = best[-1]
    names: list[str] = []
    while chain is not None:
        names.append(chain[0])
        chain = chain[1]
    return KnapsackSolution(tuple(names), cum_value, cum_weight, instance.capacity)


def optimality_relation(exhaustive_solution: KnapsackSolution,
                        greedy_solution: KnapsackSolution) -> bool:
    """The exhaustive replacement must be at least as valuable as the greedy."""
    return exhaustive_solution.cum_value >= greedy_solution.cum_value


knapsack_greedy_sorted_ascending = derive(
    knapsack_greedy, "knapsack_greedy_sorted_ascending",
    "Seeded bug: density sort runs the wrong way, so the worst items go first. The packing "
    "stays feasible and only loses value, so the optimality relation holds on every input; "
    "the bug shows only statistically, as a higher rate of strictly better exhaustive values.",
    ("sorted(instance.items, key=lambda item: Fraction(item.value, item.weight),"
     " reverse=True)",
     "sorted(instance.items, key=lambda item: Fraction(item.value, item.weight))"))
knapsack_greedy_capacity_off_by_one = derive(
    knapsack_greedy, "knapsack_greedy_capacity_off_by_one",
    "Seeded bug: the fill loop admits one weight unit beyond the capacity.",
    ("cum_weight + weight <= instance.capacity",
     "cum_weight + weight <= instance.capacity + 1"))


def knapsack_exhaustive_skip_include(instance: KnapsackInstance) -> KnapsackSolution:
    """Seeded bug: the include branch is never taken, so only the empty packing
    is ever explored."""
    _check_search_budget(instance)
    return KnapsackSolution((), 0, 0, instance.capacity)


def render_instance(instance: KnapsackInstance) -> str:
    triples = ", ".join(f"({item.name!r}, {item.value}, {item.weight})"
                        for item in instance.items)
    return f"items=[{triples}], capacity={instance.capacity}"


def render_solution(solution: KnapsackSolution) -> str:
    return (f"packed={list(solution.packed)}, value={solution.cum_value}, "
            f"weight={solution.cum_weight}, capacity={solution.capacity}")
