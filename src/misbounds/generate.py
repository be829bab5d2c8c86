"""Isomorph-free streaming generation of free trees, unicyclic graphs,
and forests of a given order.

Rooted trees are represented by nested canonical codes: a code is the
tuple of its child codes sorted descending under (size, code). Free
trees are rooted at their centroid, so each isomorphism class appears
exactly once: either a root whose child subtrees all have at most
floor((n-1)/2) vertices, or (even n) an unordered pair of rooted trees
of order n/2 joined at the roots. Unicyclic graphs choose a cycle
length c and a sequence of rooted trees hanging off the cycle that is
canonical (maximal) under the dihedral symmetry of the cycle. Forests
are non-increasing multisets of free trees whose orders partition n.

Each class has one enumerator, which yields shapes: the generator's own
canonical codes. A tree is (centroid code,) or (half1, half2) for a
bicentroid, a unicyclic graph is its necklace of c rooted codes, and a
forest is its tuple of tree shapes. The graph streams map the class's
builder over its shapes; counting.shape_mis_alpha counts a shape without
building it.

Streams are deterministic and restartable: the same order always yields
the same graphs in the same sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Iterator, Optional

from .counting import shape_mis_alpha
from .graphs import Graph, make_graph

TREE_LIMIT = 18
UNICYCLIC_LIMIT = 14
FOREST_LIMIT = 16

Code = tuple  # nested tuples; the leaf is ()
Shape = tuple  # a class's own canonical code, see the module docstring


@lru_cache(maxsize=None)
def _code_key(code: Code) -> tuple:
    """Total order on rooted-tree codes: by size, then recursively."""
    keys = tuple(_code_key(child) for child in code)
    return (1 + sum(k[0] for k in keys), keys)


@lru_cache(maxsize=None)
def rooted_tree_codes(order: int) -> tuple[Code, ...]:
    """All canonical rooted trees on `order` vertices, descending by key."""
    if order < 1:
        return ()
    if order == 1:
        return ((),)
    out = [tuple(children) for children in _child_multisets(order - 1, order - 1, None)]
    out.sort(key=_code_key, reverse=True)
    return tuple(out)


def _child_multisets(
    total: int, max_size: int, bound: Optional[Code]
) -> Iterator[tuple[Code, ...]]:
    """Key-descending multisets of rooted codes with sizes summing to total.

    max_size caps every part; bound (when given) caps the first part's
    key so the multiset stays non-increasing along the recursion.
    """
    if total == 0:
        yield ()
        return
    top = min(total, max_size)
    for size in range(top, 0, -1):
        for code in rooted_tree_codes(size):
            if bound is not None and _code_key(code) > _code_key(bound):
                continue
            for rest in _child_multisets(total - size, max_size, code):
                yield (code,) + rest


def _add_rooted(
    edges: list[tuple[int, int]], code: Code, root: int, next_free: int
) -> int:
    """Wire `code`'s tree rooted at `root`; returns the next free index."""
    for child in code:
        edges.append((root, next_free))
        next_free = _add_rooted(edges, child, next_free, next_free + 1)
    return next_free


def _add_tree(edges: list[tuple[int, int]], shape: Shape, root: int) -> int:
    """Wire a tree shape from `root` on; returns the next free index. A
    second half code hangs at the first index after the first half."""
    nxt = _add_rooted(edges, shape[0], root, root + 1)
    if len(shape) == 2:
        edges.append((root, nxt))
        nxt = _add_rooted(edges, shape[1], nxt, nxt + 1)
    return nxt


def tree_graph(shape: Shape) -> Graph:
    edges: list[tuple[int, int]] = []
    return make_graph(_add_tree(edges, shape, 0), edges)


def unicyclic_graph(shape: Shape) -> Graph:
    """Cycle vertex i carries the rooted code shape[i]."""
    c = len(shape)
    edges = [(i, (i + 1) % c) for i in range(c)]
    nxt = c
    for pos, code in enumerate(shape):
        nxt = _add_rooted(edges, code, pos, nxt)
    return make_graph(nxt, edges)


def forest_graph(shape: Shape) -> Graph:
    """The trees of the shape side by side, in order."""
    edges: list[tuple[int, int]] = []
    nxt = 0
    for tree in shape:
        nxt = _add_tree(edges, tree, nxt)
    return make_graph(nxt, edges)


_GRAPH_OF = {"tree": tree_graph, "unicyclic": unicyclic_graph, "forest": forest_graph}


def shape_graph(graph_class: str, shape: Shape) -> Graph:
    """The labelled graph the class's stream yields for `shape`."""
    return _GRAPH_OF[graph_class](shape)


def tree_shapes(n: int, unsafe: bool = False) -> Iterator[Shape]:
    """One shape per isomorphism class of trees on n vertices: (code,)
    rooted at the centroid, or (half1, half2) for a bicentroid."""
    if n < 1:
        raise ValueError(f"trees need n >= 1, got {n}")
    if n > TREE_LIMIT and not unsafe:
        raise ValueError(f"order {n} above tree limit {TREE_LIMIT}")
    if n == 1:
        yield ((),)
        return
    for children in _child_multisets(n - 1, (n - 1) // 2, None):
        yield (children,)
    if n % 2 == 0:
        halves = rooted_tree_codes(n // 2)
        for i, t1 in enumerate(halves):
            for t2 in halves[i:]:
                yield (t1, t2)


def free_trees(n: int, unsafe: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices."""
    return map(tree_graph, tree_shapes(n, unsafe))


def unicyclic_shapes(
    n: int, unsafe: bool = False, cycle: Optional[int] = None
) -> Iterator[Shape]:
    """One shape per isomorphism class of unicyclic graphs, by cycle
    length: the necklace of rooted codes around the cycle; only cycles of
    length `cycle` if given."""
    if n < 3:
        raise ValueError(f"unicyclic graphs need n >= 3, got {n}")
    if n > UNICYCLIC_LIMIT and not unsafe:
        raise ValueError(f"order {n} above unicyclic limit {UNICYCLIC_LIMIT}")
    for c in range(3, n + 1):
        if cycle is None or c == cycle:
            yield from _necklace_sequences(n, c)


def unicyclic_graphs(n: int, unsafe: bool = False, cycle: Optional[int] = None) -> Iterator[Graph]:
    """One representative per isomorphism class of unicyclic graphs, by
    cycle length; only those whose cycle has length `cycle` if given."""
    return map(unicyclic_graph, unicyclic_shapes(n, unsafe, cycle))


def _necklace_sequences(n: int, c: int) -> Iterator[tuple[Code, ...]]:
    """Length-c sequences of rooted codes, sizes >= 1 summing to n,
    canonical (maximal key tuple) under rotation and reflection."""
    first_choices = [
        code for size in range(n - c + 1, 0, -1) for code in rooted_tree_codes(size)
    ]

    def extend(seq: list[Code], used: int) -> Iterator[tuple[Code, ...]]:
        pos = len(seq)
        if pos == c:
            if used == n:
                cand = tuple(seq)
                if _is_necklace_canonical(cand):
                    yield cand
            return
        remaining = n - used
        slots_left = c - pos
        max_here = remaining - (slots_left - 1)
        bound_key = _code_key(seq[0])
        for size in range(min(max_here, bound_key[0]), 0, -1):
            for code in rooted_tree_codes(size):
                if _code_key(code) > bound_key:
                    continue
                seq.append(code)
                yield from extend(seq, used + size)
                seq.pop()

    for first in first_choices:
        yield from extend([first], _code_key(first)[0])


def _is_necklace_canonical(seq: tuple[Code, ...]) -> bool:
    keys = tuple(_code_key(code) for code in seq)
    c = len(keys)
    doubled = keys + keys
    rev = keys[::-1] + keys[::-1]
    for s in range(c):
        if doubled[s : s + c] > keys or rev[s : s + c] > keys:
            return False
    return True


def forest_shapes(n: int, unsafe: bool = False) -> Iterator[Shape]:
    """One shape per isomorphism class of forests on n vertices: a tuple of
    tree shapes, a non-increasing multiset over a partition of n."""
    if n < 1:
        raise ValueError(f"forests need n >= 1, got {n}")
    if n > FOREST_LIMIT and not unsafe:
        raise ValueError(f"order {n} above forest limit {FOREST_LIMIT}")
    for partition in _partitions_desc(n):
        combos = [
            combinations_with_replacement(_tree_shape_list(s), partition.count(s))
            for s in sorted(set(partition), reverse=True)
        ]
        for parts in product(*combos):
            yield sum(parts, ())


def forests(n: int, unsafe: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of forests on n vertices,
    as non-increasing multisets of free trees over partitions of n."""
    return map(forest_graph, forest_shapes(n, unsafe))


@lru_cache(maxsize=None)
def _tree_shape_list(order: int) -> tuple[Shape, ...]:
    return tuple(tree_shapes(order, unsafe=True))


def _partitions_desc(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for part in range(top, 0, -1):
        for rest in _partitions_desc(n - part, part):
            yield (part,) + rest


@dataclass(frozen=True)
class GenerationTask:
    """A stream request: class, order, optional cycle-length / alpha filters."""

    graph_class: str  # tree | forest | unicyclic
    order: int
    cycle_length: Optional[int] = None
    alpha: Optional[int] = None


def shape_stream(task: GenerationTask, unsafe: bool = False) -> Iterator[Shape]:
    """The task's shapes; a bad filter or class is refused before any is made."""
    if task.cycle_length is not None and task.graph_class != "unicyclic":
        raise ValueError("cycle-length filter only applies to unicyclic graphs")
    if task.graph_class == "tree":
        stream: Iterator[Shape] = tree_shapes(task.order, unsafe)
    elif task.graph_class == "forest":
        stream = forest_shapes(task.order, unsafe)
    elif task.graph_class == "unicyclic":
        stream = unicyclic_shapes(task.order, unsafe, task.cycle_length)
    else:
        raise ValueError(f"unknown graph class {task.graph_class!r}")
    if task.alpha is not None:
        cls, want = task.graph_class, task.alpha
        stream = (s for s in stream if shape_mis_alpha(cls, s)[1] == want)
    return stream


def task_stream(task: GenerationTask, unsafe: bool = False) -> Iterator[Graph]:
    shapes = shape_stream(task, unsafe)
    return map(_GRAPH_OF[task.graph_class], shapes)
