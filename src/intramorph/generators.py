"""Seeded input generation and shrinking for each case study's input domain.

Default ranges are deliberately small (values 0..9, length <= 8) so repeated
elements show up often; duplicates are where removal and reversal relations
get interesting. All generators are pure functions of the source's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cases.ast_printing import Constant, ExprNode, Operation, Variable
from .cases.knapsack import KnapsackInstance, KnapsackItem
from .seeds import SeededSource


@dataclass(frozen=True)
class ArrayConfig:
    max_length: int = 8
    value_min: int = 0
    value_max: int = 9

    def __post_init__(self) -> None:
        if self.max_length < 0:
            raise ValueError(f"max_length must be >= 0, got {self.max_length}")
        if self.value_min > self.value_max:
            raise ValueError(f"empty value range {self.value_min}..{self.value_max}")


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 4
    variable_names: tuple[str, ...] = ("a", "b", "c")
    constant_min: int = 0
    constant_max: int = 9

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if not self.variable_names:
            raise ValueError("variable_names must be non-empty")
        if self.constant_min > self.constant_max:
            raise ValueError(f"empty constant range {self.constant_min}..{self.constant_max}")


@dataclass(frozen=True)
class KnapsackConfig:
    max_items: int = 6
    value_min: int = 1
    value_max: int = 20
    weight_min: int = 1
    weight_max: int = 10
    capacity_min: int = 1
    capacity_max: int = 50

    def __post_init__(self) -> None:
        if self.max_items < 0:
            raise ValueError(f"max_items must be >= 0, got {self.max_items}")
        if self.weight_min < 1:
            # zero-weight items would make the greedy fill loop diverge
            raise ValueError(f"weight_min must be >= 1, got {self.weight_min}")
        for low, high, label in ((self.value_min, self.value_max, "value"),
                                 (self.weight_min, self.weight_max, "weight"),
                                 (self.capacity_min, self.capacity_max, "capacity")):
            if low > high:
                raise ValueError(f"empty {label} range {low}..{high}")


@dataclass(frozen=True)
class GeneratorConfig:
    array: ArrayConfig = field(default_factory=ArrayConfig)
    tree: TreeConfig = field(default_factory=TreeConfig)
    knapsack: KnapsackConfig = field(default_factory=KnapsackConfig)


DEFAULT_CONFIG = GeneratorConfig()


def random_array(source: SeededSource, config: ArrayConfig = DEFAULT_CONFIG.array
                 ) -> tuple[int, ...]:
    """Length uniform in 0..max_length, elements uniform in the value range."""
    length = source.below(config.max_length + 1)
    span = config.value_max - config.value_min + 1
    return tuple(config.value_min + source.below(span) for _ in range(length))


def random_tree(source: SeededSource, config: TreeConfig = DEFAULT_CONFIG.tree,
                _depth: int = 0) -> ExprNode:
    """Tree over {+, *} operations, variables, and constants, depth <= max_depth.

    Draw order is fixed (branch flag, then kind/operator, then left before
    right) so a seed always produces the same tree.
    """
    branch = _depth < config.max_depth and source.below(2) == 0
    if branch:
        operator = "+" if source.below(2) == 0 else "*"
        left = random_tree(source, config, _depth + 1)
        right = random_tree(source, config, _depth + 1)
        return Operation(operator, left, right)
    if source.below(2) == 0:
        return Variable(source.choice(config.variable_names))
    span = config.constant_max - config.constant_min + 1
    return Constant(config.constant_min + source.below(span))


def random_knapsack_instance(source: SeededSource,
                             config: KnapsackConfig = DEFAULT_CONFIG.knapsack
                             ) -> KnapsackInstance:
    """0..max_items uniquely named items plus a capacity, all uniform in range."""
    count = source.below(config.max_items + 1)
    value_span = config.value_max - config.value_min + 1
    weight_span = config.weight_max - config.weight_min + 1
    items = tuple(
        KnapsackItem(name=chr(ord("A") + index),
                     value=config.value_min + source.below(value_span),
                     weight=config.weight_min + source.below(weight_span))
        for index in range(count))
    capacity_span = config.capacity_max - config.capacity_min + 1
    capacity = config.capacity_min + source.below(capacity_span)
    return KnapsackInstance(items, capacity)


def shrink_array(payload: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Single-element deletions first, then per-position magnitude cuts.

    Candidates are distinct: a deletion is shorter than any cut, and cuts
    at different positions differ where each one cut, so only the
    replacements at one position need deduplicating.
    """
    candidates: list[tuple[int, ...]] = []
    for index in range(len(payload)):
        candidates.append(payload[:index] + payload[index + 1:])
    # magnitude cuts: towards zero in big steps, then by one
    for index, value in enumerate(payload):
        if value == 0:
            continue
        step_down = value - 1 if value > 0 else value + 1
        for replacement in dict.fromkeys((0, value // 2, step_down)):
            if abs(replacement) >= abs(value):
                continue
            candidates.append(payload[:index] + (replacement,) + payload[index + 1:])
    return candidates


def shrink_tree(payload: ExprNode) -> list[ExprNode]:
    """Replace any operation node by either of its children (one at a time)."""
    if not isinstance(payload, Operation):
        return []
    candidates: list[ExprNode] = [payload.left, payload.right]
    for smaller_left in shrink_tree(payload.left):
        candidates.append(Operation(payload.operator, smaller_left, payload.right))
    for smaller_right in shrink_tree(payload.right):
        candidates.append(Operation(payload.operator, payload.left, smaller_right))
    return candidates


def shrink_knapsack(payload: KnapsackInstance) -> list[KnapsackInstance]:
    """Single-item deletions first, then capacity cuts."""
    candidates: list[KnapsackInstance] = []
    for index in range(len(payload.items)):
        candidates.append(KnapsackInstance(
            payload.items[:index] + payload.items[index + 1:], payload.capacity))
    if payload.capacity > 0:
        for smaller in (0, payload.capacity // 2, payload.capacity - 1):
            if smaller < payload.capacity:
                candidate = KnapsackInstance(payload.items, smaller)
                if candidate not in candidates:
                    candidates.append(candidate)
    return candidates
