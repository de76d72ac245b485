"""Sorting case study: three ascending sorts, a descending twin, seeded bugs.

The descending twin is the ascending bubble sort with the comparison flipped,
so reversing one output must reproduce the other. The catalogued bugs target
the swap statement and the comparison flip.
"""

from __future__ import annotations


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


def bubble_sort_reverse(arr: list) -> list:
    """Descending bubble sort: only the comparison differs from bubble_sort."""
    length = len(arr)
    for i in range(length):
        for j in range(0, length - i - 1):
            if arr[j] < arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return arr


def bubble_sort_swap_index(arr: list) -> list:
    """Seeded bug: the swap's second source reads the outer index i, not j."""
    length = len(arr)
    for i in range(length):
        for j in range(0, length - i - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[i]
    return arr


def bubble_sort_reverse_swap_index(arr: list) -> list:
    """The descending twin derived from the buggy sort: flipped comparison,
    same swap-index bug."""
    length = len(arr)
    for i in range(length):
        for j in range(0, length - i - 1):
            if arr[j] < arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[i]
    return arr


def bubble_sort_reverse_not_flipped(arr: list) -> list:
    """Seeded bug for the twin: the comparison flip was forgotten, so this
    "descending" sort actually sorts ascending."""
    length = len(arr)
    for i in range(length):
        for j in range(0, length - i - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return arr


def reverse_relation(ascending: list, descending: list) -> bool:
    """True iff reversing the ascending output yields the descending output."""
    return list(reversed(ascending)) == list(descending)
