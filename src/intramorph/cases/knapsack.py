"""Unbounded knapsack case study: greedy solver vs. exhaustive replacement.

The production algorithm is the density-ordered greedy; replacing it with an
exhaustive search over every feasible multiset (a value row and a decision row
per item, at most ``SEARCH_CELL_BUDGET`` cells) gives an oracle, since the
exhaustive value can never be worse. Each greedy bug is one edit of the greedy;
the exhaustive bug is written out, as a derived copy would still fill each row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ..core import BudgetExceededError
from . import derive

# Reject tables of more cells (items times capacities 0..capacity): each row is
# allocated in one C call that the budget's alarm cannot interrupt, so only a
# size bound keeps it small. Cells bound the bytes too, about 57 per capacity
# plus 1 per cell: at the bound, one item at capacity 999,999 took 0.2 s and
# 55 MB (2 CPUs, Python 3.11). A generated instance has at most 306 cells.
SEARCH_CELL_BUDGET = 1_000_000


class KnapsackItem(NamedTuple):
    name: str
    value: int
    weight: int


@dataclass(frozen=True)
class KnapsackInstance:
    """Items with unique names, weights and values >= 1, and a capacity >= 0.

    The constructor validates, so a generated instance or one a user builds
    is checked. ``_unchecked`` skips the checks, for an instance derived
    from a valid one that is valid by construction (a shrink candidate)."""

    items: tuple[KnapsackItem, ...]
    capacity: int

    @classmethod
    def _unchecked(cls, items: tuple[KnapsackItem, ...], capacity: int) -> KnapsackInstance:
        instance = object.__new__(cls)
        # the frozen class's __setattr__ raises
        instance.__dict__.update(items=items, capacity=capacity)
        return instance

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
    cells = len(instance.items) * (instance.capacity + 1)
    if cells > SEARCH_CELL_BUDGET:
        raise BudgetExceededError(
            f"search table of {cells} cells exceeds {SEARCH_CELL_BUDGET}: "
            f"{len(instance.items)} items at capacity {instance.capacity}")


def knapsack_exhaustive(instance: KnapsackInstance) -> KnapsackSolution:
    """The most valuable feasible multiset, by the include-or-move-past search.

    At ``(capacity, index)`` the search includes one more copy of the item
    (index unchanged) or moves past it. Walking the items in reverse, ``best[c]``
    holds ``(c, index + 1)`` until the item's pass reaches ``c`` in increasing
    order, when ``best[c - weight]`` holds ``(c - weight, index)``. The item's
    row marks each ``c`` where one more copy is strictly more valuable (exclusion
    wins ties); the packing is read back from ``(capacity, 0)`` by those marks."""
    _check_search_budget(instance)
    if not instance.items:   # no table, so no row: the bound counts no cells
        return KnapsackSolution((), 0, 0, instance.capacity)
    best = [0] * (instance.capacity + 1)
    takes = [bytearray(len(best)) for _ in instance.items]   # one row per item
    for (_, value, weight), row in zip(reversed(instance.items), reversed(takes)):
        for c in range(weight, len(best)):
            included = value + best[c - weight]
            if included > best[c]:
                best[c] = included
                row[c] = 1
    names, left = [], instance.capacity
    for (name, _, weight), row in zip(instance.items, takes):
        while row[left]:
            names.append(name)
            left -= weight
    return KnapsackSolution(tuple(names), best[-1], instance.capacity - left, instance.capacity)


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
    is ever explored. Written out: a derived copy would fill every row, 5x slower."""
    _check_search_budget(instance)
    return KnapsackSolution((), 0, 0, instance.capacity)


def render_instance(instance: KnapsackInstance) -> str:
    triples = ", ".join(f"({item.name!r}, {item.value}, {item.weight})"
                        for item in instance.items)
    return f"items=[{triples}], capacity={instance.capacity}"


def render_solution(solution: KnapsackSolution) -> str:
    return (f"packed={list(solution.packed)}, value={solution.cum_value}, "
            f"weight={solution.cum_weight}, capacity={solution.capacity}")
