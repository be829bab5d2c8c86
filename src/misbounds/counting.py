"""Exact counting and enumeration of maximal independent sets.

Routes, each checked in the test suite against oracles that share no
code with them (tests/oracle_helpers.py):

- a component whose BFS co-tree edges have at most PIN_LIMIT endpoints:
  one linear pass over the spanning tree (Wilf 1986; Sagan 1988) per
  independent set of those endpoints, which are pinned in or out; a
  tree takes one pass and a unicyclic graph three,
- a pivoted branch-and-bound walk over the complement's maximal
  cliques, the route for every other component,
- the cycle recurrence mis(C_n) = mis(C_{n-2}) + mis(C_{n-3}), kept for
  the cycle-bound report.

mis_alpha finds each component by the pinned route's BFS in the graph's
own labels and relabels only one that takes the walk; mis_count and
independence_number read it. Both the tree pass and shape_mis_alpha
grow a vertex's state one child at a time through _adopt.

shape_mis_alpha counts a generator shape (trees, forests, unicyclic
graphs) without building its graph. It reads each rooted code's root
state from _code_state, a cache keyed by (code, pin): at most four
entries per rooted code that generate's own code tables hold. All
functions are pure; only mis_enumerate stores maximal sets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .graphs import Graph, _bits, _induced
from .graphs import classify  # noqa: F401  bench/child.py traces counting.classify

# Pinned runs cost up to 2^|W| tree passes; at |W| = 8 they tie the clique
# walk near order 24 (timings in README "Counting routes").
PIN_LIMIT = 8

# A vertex's state (in_s, out, bare, inc, exc) is defined in _adopt. A pin
# is a starting state: free, in S, out and dominated across an edge into
# the pinned set, or out and to be dominated inside the tree. _FORBIDDEN
# marks the alpha choice a pin rules out; it lies below minus any order a
# Graph can hold, so every sum that takes it in stays negative.
State = tuple[int, int, int, int, int]
_FORBIDDEN = -(1 << 32)
_FREE = (1, 1, 1, 1, 0)
_S_IN = (1, 0, 0, 1, _FORBIDDEN)
_COVERED = (0, 1, 0, _FORBIDDEN, 0)
_S_OUT = (0, 1, 1, _FORBIDDEN, 0)


def mis_enumerate(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every maximal independent set exactly once, in lexicographic
    order of the sorted member lists."""
    found: list[int] = []
    _clique_walk(g, found)
    for members in sorted(tuple(_bits(r)) for r in found):
        yield frozenset(members)


def _clique_walk(g: Graph, found: Optional[list[int]] = None) -> tuple[int, int]:
    """(count, largest size) of the maximal independent sets of g: the
    maximal cliques of the complement, walked by pivoted branch and bound
    (pivot = most candidates excluded). Each set's bitmask is stored only
    when found is given."""
    n = g.order
    full = (1 << n) - 1
    comp = tuple(full & ~g.adj[v] & ~(1 << v) for v in range(n))
    count = largest = 0

    def expand(r: int, p: int, x: int) -> None:
        nonlocal count, largest
        if p == 0 and x == 0:
            count += 1
            largest = max(largest, r.bit_count())
            if found is not None:
                found.append(r)
            return
        pivot_pool = p | x
        pivot = max(_bits(pivot_pool), key=lambda u: (comp[u] & p).bit_count())
        branch = p & ~comp[pivot]
        for v in _bits(branch):
            vb = 1 << v
            expand(r | vb, p & comp[v], x & comp[v])
            p &= ~vb
            x |= vb

    expand(0, full, 0)
    return count, largest


def mis_count_cycle(n: int) -> int:
    """mis(C_n) via mis(C_n) = mis(C_{n-2}) + mis(C_{n-3})."""
    if n < 3:
        raise ValueError(f"cycles need n >= 3, got {n}")
    vals = {3: 3, 4: 2, 5: 5}
    if n in vals:
        return vals[n]
    a, b, c = 3, 2, 5  # mis(C_{k-3}), mis(C_{k-2}), mis(C_{k-1}) at k=6
    for _ in range(n - 5):
        a, b, c = b, c, a + b
    return c


def mis_count(g: Graph) -> int:
    """Count maximal independent sets of any graph."""
    return mis_alpha(g)[0]


def independence_number(g: Graph) -> int:
    """Size of a maximum independent set of any graph."""
    return mis_alpha(g)[1]


def mis_alpha(g: Graph) -> tuple[int, int]:
    """(mis, alpha) over components, each walked once: counts multiply and
    alphas add (the walk's largest set is alpha: maximum sets are maximal)."""
    mis, alpha = 1, 0
    rest = (1 << g.order) - 1
    while rest:
        comp, counts = _pinned_mis_alpha(g, (rest & -rest).bit_length() - 1)
        rest &= ~comp
        m, a = counts or _clique_walk(_induced(g, tuple(_bits(comp))))
        mis *= m
        alpha += a
    return mis, alpha


def _pinned_mis_alpha(g: Graph, start: int = 0) -> tuple[int, Optional[tuple[int, int]]]:
    """(vertex mask, (mis, alpha)) of the component of g holding start,
    through a BFS spanning tree; the count is None when the co-tree edges
    have more than PIN_LIMIT endpoints.

    Every maximal set S meets the co-tree endpoints W in an independent
    set I, so the tree pass runs once per such I with each vertex of W
    pinned: in S (I), out and dominated across an edge into I, or out
    and to be dominated inside the tree. mis is the sum of the runs and
    alpha the largest. A tree takes one run, a unicyclic graph three.
    """
    adj = g.adj
    order, parent = [start], [0]  # BFS order; order[i]'s parent is order[parent[i]]
    seen = 1 << start
    ends = []  # (position, vertex) of each co-tree endpoint: a seen neighbour besides the parent
    for i, v in enumerate(order):
        if adj[v] & seen & ~(1 << order[parent[i]]):
            ends.append((i, v))
        for w in _bits(adj[v] & ~seen):
            order.append(w)
            parent.append(i)
        seen |= adj[v]
    if len(ends) > PIN_LIMIT:
        return seen, None
    picks = [0]  # the independent subsets of ends, grown one vertex at a time
    for _, w in ends:
        picks += [i | 1 << w for i in picks if not adj[w] & i]
    mis = alpha = 0
    for i in picks:
        pins = [(p, _S_IN if i >> w & 1 else _COVERED if adj[w] & i else _S_OUT) for p, w in ends]
        m, a = _tree_pass(parent, pins)
        mis += m
        alpha = max(alpha, a)
    return seen, (mis, alpha)


def _tree_pass(parent: list[int], pins: Iterable[tuple[int, State]] = ()) -> tuple[int, int]:
    """(mis, alpha) of the tree on vertices 0..n-1 (n = len(parent), root 0,
    every parent before its children) by one bottom-up pass: each vertex
    adopts its children's states. A pin replaces a vertex's starting state.
    """
    state = [_FREE] * len(parent)
    for v, pin in pins:
        state[v] = pin
    for v in range(len(parent) - 1, 0, -1):
        p = parent[v]
        state[p] = _adopt(state[p], state[v])
    return _root_mis_alpha(state[0])


def _adopt(state: State, child: State) -> State:
    """The state of a vertex once it gains a child subtree whose root has
    state `child`.

    Over the sets S of v's subtree that are independent and in which
    every vertex but v is in S or has a neighbour in S, in_s counts those
    with v in S, out those without, and bare those where no child of v is
    in S either (v's parent must then be in S). inc and exc are the
    largest independent sets of the subtree with and without v.
    """
    in_s, out, bare, inc, exc = state
    c_in, c_out, c_bare, c_inc, c_exc = child
    dom = c_out - c_bare
    return (in_s * c_out, out * (c_in + dom), bare * dom, inc + c_exc, exc + max(c_inc, c_exc))


def _root_mis_alpha(state: State) -> tuple[int, int]:
    in_s, out, bare, inc, exc = state
    return in_s + out - bare, max(inc, exc)


def shape_mis_alpha(graph_class: str, shape: tuple) -> tuple[int, int]:
    """(mis, alpha) of the graph that generate builds from `shape`, folded
    from cached per-code states without building it.

    A tree folds its root's children; a forest multiplies its trees'
    counts and adds their alphas; a unicyclic graph sums the three runs of
    _pinned_mis_alpha along its cycle, with the edge from the last cycle
    vertex back to the first as the co-tree edge.
    """
    if graph_class == "tree":
        return _root_mis_alpha(_tree_state(shape))
    if graph_class == "forest":
        mis, alpha = 1, 0
        for tree in shape:
            m, a = _root_mis_alpha(_tree_state(tree))
            mis *= m
            alpha += a
        return mis, alpha
    if graph_class == "unicyclic":
        return _cycle_mis_alpha(shape)
    raise ValueError(f"unknown graph class {graph_class!r}")


def _tree_state(shape: tuple) -> State:
    """Root state of a tree shape: (centroid code,) or two half codes
    whose roots are joined."""
    if len(shape) == 2:
        return _adopt(_code_state(shape[0], _FREE), _code_state(shape[1], _FREE))
    return _fold(_FREE, shape[0])


def _cycle_mis_alpha(seq: tuple) -> tuple[int, int]:
    """Cycle vertex i carries rooted code seq[i]; the spanning tree is the
    path 0..c-1 rooted at 0, and the pins go on 0 and c-1."""
    mis = alpha = 0
    for first, last in ((_S_OUT, _S_OUT), (_S_IN, _COVERED), (_COVERED, _S_IN)):
        state = _code_state(seq[-1], last)
        for code in seq[-2:0:-1]:
            state = _adopt(_code_state(code, _FREE), state)
        m, a = _root_mis_alpha(_adopt(_code_state(seq[0], first), state))
        mis += m
        alpha = max(alpha, a)
    return mis, alpha


@lru_cache(maxsize=None)
def _code_state(code: tuple, pin: State) -> State:
    """Root state of a rooted code (generate's nested tuples of child
    codes) started from `pin`. Shapes reach it only with codes from
    generate's own rooted-code tables and with four pins, so it holds at
    most four states per code those tables hold."""
    return _fold(pin, code)


def _fold(state: State, children: tuple) -> State:
    for child in children:
        state = _adopt(state, _code_state(child, _FREE))
    return state
