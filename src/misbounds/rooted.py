"""Rooted trees as ranked ints.

A rooted tree is held as its code: its rank among all rooted trees,
ordered by size and then by the tuple of its child codes, which
_CHILDREN[code] lists non-increasing. Comparing two codes as ints
therefore compares their trees by size and then child by child. The
table grows one whole size at a time, so a tree's code never depends on
which sizes were asked for first (ranked rooted trees: Beyer and
Hedetniemi 1980). generate builds its shapes from these codes and
counting folds them; both read this one table.
"""

from __future__ import annotations

from typing import Iterator

LEAF = 0  # the one-vertex tree
_CHILDREN: list[tuple[int, ...]] = [()]  # code -> its child codes, non-increasing
_SIZE = [1]  # code -> the order of its tree
# _FIRST[s] is the first code of order s, and _FIRST[-1] one past the last code.
_FIRST = [0, 0, 1]


def rooted_tree_codes(order: int) -> range:
    """All rooted trees on `order` vertices, as codes, descending."""
    if order < 1:
        return range(0)
    while len(_FIRST) <= order + 1:
        size = len(_FIRST) - 1
        codes = list(child_multisets(size - 1, _FIRST[size] - 1))
        codes.reverse()
        _CHILDREN.extend(codes)
        _SIZE.extend([size] * len(codes))
        _FIRST.append(len(_CHILDREN))
    return range(_FIRST[order + 1] - 1, _FIRST[order] - 1, -1)


def last_code(order: int) -> int:
    """The largest code of order at most `order` (-1 for order 0), growing
    the table to it."""
    rooted_tree_codes(order)
    return _FIRST[order + 1] - 1


def child_multisets(total: int, top: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of codes, each at most `top`, whose orders sum
    to total, lexicographically descending. `top` is a code in the table,
    or -1 for none."""
    if total == 0:
        yield ()
        return
    end = _FIRST[min(total + 1, len(_FIRST) - 1)]
    for code in range(min(top, end - 1), -1, -1):
        for rest in child_multisets(total - _SIZE[code], code):
            yield (code,) + rest
