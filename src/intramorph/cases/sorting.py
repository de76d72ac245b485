"""Sorting case study: three ascending sorts, a descending twin, seeded bugs.

The descending twin and the swap-index bug are each one edit of the ascending
bubble sort, and the buggy twin makes both; reversing one sort's output must
reproduce its twin's.
"""

from __future__ import annotations

from . import derive


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


_SWAP_INDEX = ("arr[j + 1], arr[j]", "arr[j + 1], arr[i]")
_FLIP = ("arr[j] > arr[j + 1]", "arr[j] < arr[j + 1]")

bubble_sort_swap_index = derive(
    bubble_sort, "bubble_sort_swap_index",
    "Seeded bug: the swap's second source reads the outer index i, not j.", _SWAP_INDEX)
# the descending twins; the unflipped twin is bubble_sort itself
bubble_sort_reverse = derive(bubble_sort, "bubble_sort_reverse",
                             "bubble_sort with its comparison flipped: sorts descending.", _FLIP)
bubble_sort_reverse_swap_index = derive(
    bubble_sort, "bubble_sort_reverse_swap_index",
    "Seeded bug: the descending twin of bubble_sort_swap_index.", _SWAP_INDEX, _FLIP)


def reverse_relation(ascending: list, descending: list) -> bool:
    """True iff reversing the ascending output yields the descending output."""
    return list(reversed(ascending)) == list(descending)
