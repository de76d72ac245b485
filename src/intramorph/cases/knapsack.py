"""Unbounded knapsack case study: greedy solver vs. exhaustive replacement.

The production algorithm is the density-ordered greedy; replacing it with an
exhaustive search that explores every feasible multiset gives an oracle,
since the exhaustive value can never be worse. A classic table-filling
dynamic program serves as an independent cross-check on the exhaustive side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ..core import BudgetExceededError

# Reject searches whose item-count * (capacity / min weight) bound exceeds
# this; generator defaults stay orders of magnitude below.
SEARCH_NODE_BUDGET = 1_000_000
# Include-branch recursion depth is capacity / min weight; keep it well under
# the interpreter's stack limit.
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


def make_instance(triples, capacity: int) -> KnapsackInstance:
    return KnapsackInstance(tuple(KnapsackItem(*t) for t in triples), capacity)


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
    if instance.capacity // min_weight + len(instance.items) > SEARCH_DEPTH_BUDGET:
        raise BudgetExceededError(
            f"search recursion would exceed depth {SEARCH_DEPTH_BUDGET}")


def knapsack_exhaustive(instance: KnapsackInstance) -> KnapsackSolution:
    """Search every feasible multiset for the most valuable one.

    At each index the search branches on including one more copy of the item
    (index unchanged, unbounded copies) or moving past it. The best packing
    of the remaining capacity from a state depends only on
    ``(capacity, index)``, so each state is solved once and memoized for
    the duration of the call: at most items x capacity states, further
    guarded by the search budget. Exclusion wins ties: when including one
    more copy is no more valuable than moving past the item, the search
    moves past it.
    """
    _check_search_budget(instance)
    items = instance.items
    count = len(items)
    empty = (0, 0, None)
    memo: dict[tuple[int, int], tuple] = {}

    def best_suffix(capacity, index):
        # (value, weight, names) of the best packing of the remaining
        # capacity; names is a cons chain (name, rest) to share tails
        if capacity <= 0 or index >= count:
            return empty
        key = (capacity, index)
        best = memo.get(key)
        if best is None:
            name, value, weight = items[index]
            best = best_suffix(capacity, index + 1)
            if weight <= capacity:
                sub_value, sub_weight, sub_names = best_suffix(capacity - weight, index)
                if value + sub_value > best[0]:
                    best = (value + sub_value, weight + sub_weight, (name, sub_names))
            memo[key] = best
        return best

    cum_value, cum_weight, chain = best_suffix(instance.capacity, 0)
    names: list[str] = []
    while chain is not None:
        names.append(chain[0])
        chain = chain[1]
    return KnapsackSolution(tuple(names), cum_value, cum_weight, instance.capacity)


def dp_reference(instance: KnapsackInstance) -> int:
    """Independent oracle: best[c] = max over fitting items of value + best[c - weight]."""
    best = [0] * (instance.capacity + 1)
    for cap in range(1, instance.capacity + 1):
        top = 0
        for _, value, weight in instance.items:
            if weight <= cap:
                candidate = value + best[cap - weight]
                if candidate > top:
                    top = candidate
        best[cap] = top
    return best[instance.capacity]


def optimality_relation(exhaustive_solution: KnapsackSolution,
                        greedy_solution: KnapsackSolution) -> bool:
    """The exhaustive replacement must be at least as valuable as the greedy."""
    return exhaustive_solution.cum_value >= greedy_solution.cum_value


def knapsack_greedy_sorted_ascending(instance: KnapsackInstance) -> KnapsackSolution:
    """Seeded bug: density sort runs the wrong way, so the worst items go first.

    The packing stays feasible and can only lose value, so the optimality
    relation still holds on every input; the bug only shows statistically,
    as a jump in how often the exhaustive value is strictly better.
    """
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


def knapsack_greedy_capacity_off_by_one(instance: KnapsackInstance) -> KnapsackSolution:
    """Seeded bug: the fill loop admits one weight unit beyond the capacity."""
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
