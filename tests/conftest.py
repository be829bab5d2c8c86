from __future__ import annotations

from itertools import combinations

import hypothesis.strategies as st
from hypothesis import settings

from misbounds.graphs import Graph, make_graph

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 9, p_edge: float = 0.4) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return make_graph(n, [])
    picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))
    return make_graph(n, picks)


@st.composite
def labeled_trees(draw, min_n: int = 1, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((parent, v))
    return make_graph(n, edges)


@st.composite
def trees_with_extra_edges(draw, max_n: int = 14, max_extra: int = 4) -> Graph:
    """A labeled tree grown one vertex at a time, plus up to max_extra
    further edges: connected, with at most max_extra independent cycles."""
    tree = draw(labeled_trees(max_n=max_n))
    absent = [e for e in combinations(range(tree.order), 2) if not tree.has_edge(*e)]
    if not absent:
        return tree
    extra = draw(st.lists(st.sampled_from(absent), max_size=max_extra, unique=True))
    return make_graph(tree.order, tree.edges() + extra)


@st.composite
def labeled_forests(draw, min_n: int = 0, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = []
    for v in range(1, n):
        parent = draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=v - 1))
        )
        if parent is not None:
            edges.append((parent, v))
    return make_graph(n, edges)


@st.composite
def permutations_of(draw, n: int):
    return draw(st.permutations(list(range(n))))
