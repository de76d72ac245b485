"""Sorting case study: three ascending sorts, a descending twin, seeded bugs.

The descending twins are derived from the ascending bubble sorts by
flip_comparisons, so reversing one output must reproduce the other. The
catalogued bugs target the swap statement and the comparison flip.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable

_FLIPPED = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE}


def flip_comparisons(fn: Callable, name: str) -> Callable:
    """``fn`` recompiled from its source as ``name``, with ``<``/``>`` and
    ``<=``/``>=`` swapped in every comparison, at ``fn``'s file and lines."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            node.ops = [_FLIPPED.get(type(op), type(op))() for op in node.ops]
    tree.body[0].name = name
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    namespace: dict = {}
    exec(compile(tree, fn.__code__.co_filename, "exec"), fn.__globals__, namespace)
    return namespace[name]


def bubble_sort(arr: list) -> list:
    length = len(arr)
    for i in range(length):
        for j in range(0, length - i - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return arr


def insertion_sort(arr: list) -> list:
    for i in range(1, len(arr)):
        value = arr[i]
        j = i - 1
        while j >= 0 and arr[j] > value:
            arr[j + 1] = arr[j]
            j -= 1
        arr[j + 1] = value
    return arr


def merge_sort(arr: list) -> list:
    if len(arr) <= 1:
        return arr
    mid = len(arr) // 2
    left = merge_sort(arr[:mid])
    right = merge_sort(arr[mid:])
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    arr[:] = merged
    return arr


def bubble_sort_swap_index(arr: list) -> list:
    """Seeded bug: the swap's second source reads the outer index i, not j."""
    length = len(arr)
    for i in range(length):
        for j in range(0, length - i - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[i]
    return arr


# the descending twins; the unflipped twin is bubble_sort itself
bubble_sort_reverse = flip_comparisons(bubble_sort, "bubble_sort_reverse")
bubble_sort_reverse_swap_index = flip_comparisons(bubble_sort_swap_index,
                                                  "bubble_sort_reverse_swap_index")


def reverse_relation(ascending: list, descending: list) -> bool:
    """True iff reversing the ascending output yields the descending output."""
    return list(reversed(ascending)) == list(descending)
