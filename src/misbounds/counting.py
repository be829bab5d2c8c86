"""Exact counting of maximal independent sets.

Routes, each checked in the test suite against oracles that share no
code with them (tests/oracle_helpers.py):

- a component of order k whose BFS co-tree edges have endpoints W with
  at most max(2^PIN_LIMIT, k^2) independent subsets: one linear pass
  over the spanning tree (Wilf 1986; Sagan 1988) per such subset, whose
  vertices are pinned in and the rest of W out; a tree takes one pass
  and a unicyclic graph three,
- a pivoted branch-and-bound walk over the complement's maximal
  cliques, the route for every other component.

mis_alpha finds each component by the pinned route's BFS in the graph's
own labels, and walks a component that takes the walk by its vertex
mask in those labels; mis_count and independence_number read it. The
tree pass grows a vertex's state one child at a time through _adopt;
shape_mis_alpha does the same steps with the states held in locals.

shape_mis_alpha counts a generator shape (trees, forests, unicyclic
graphs) without building its graph. It reads each rooted code's free
root state from one list indexed by code, which grows in code order
whenever the rooted table (misbounds.rooted) has grown; a pinned cycle
end zeroes or forbids entries of that state. Apart from that table the
functions are pure, and none stores a maximal set.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .graphs import Graph, _bits
from .graphs import classify  # noqa: F401  bench/child.py traces counting.classify
from .rooted import _CHILDREN

# Pinned runs cost one tree pass over the component's k vertices per
# independent subset of the co-tree endpoints W. A component takes them
# while it has at most max(2^PIN_LIMIT, k^2) such subsets, so they cost at
# most about k^3 adopt steps; at 2^8 runs they tie the clique walk near
# order 24 (timings in README "Counting routes" and CHANGES.md).
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


def _clique_walk(g: Graph, mask: int) -> tuple[int, int]:
    """(count, largest size) of the maximal independent sets of the
    subgraph of g on the vertices in mask, in g's own labels: the maximal
    cliques of its complement, walked by pivoted branch and bound
    (pivot = most candidates excluded)."""
    # v's neighbours in the complement within mask; read only for v in mask
    comp = tuple(mask & ~a & ~(1 << v) for v, a in enumerate(g.adj))
    count = largest = 0

    def expand(r: int, p: int, x: int) -> None:
        nonlocal count, largest
        if p == 0 and x == 0:
            count += 1
            largest = max(largest, r.bit_count())
            return
        pivot_pool = p | x
        pivot = max(_bits(pivot_pool), key=lambda u: (comp[u] & p).bit_count())
        branch = p & ~comp[pivot]
        for v in _bits(branch):
            vb = 1 << v
            expand(r | vb, p & comp[v], x & comp[v])
            p &= ~vb
            x |= vb

    expand(0, mask, 0)
    return count, largest


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
        m, a = counts or _clique_walk(g, comp)
        mis *= m
        alpha += a
    return mis, alpha


def _pinned_mis_alpha(g: Graph, start: int = 0) -> tuple[int, Optional[tuple[int, int]]]:
    """(vertex mask, (mis, alpha)) of the component of g holding start,
    through a BFS spanning tree; the count is None when its co-tree
    endpoints have more independent subsets than the PIN_LIMIT rule
    allows, found as soon as the subsets built so far pass it.

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
    cap = max(1 << PIN_LIMIT, len(order) ** 2)
    picks = [0]  # the independent subsets of ends, grown one vertex at a time
    for _, w in ends:
        picks += [i | 1 << w for i in picks if not adj[w] & i]
        if len(picks) > cap:
            return seen, None
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
    best = c_inc if c_inc > c_exc else c_exc
    return (in_s * c_out, out * (c_in + dom), bare * dom, inc + c_exc, exc + best)


def _root_mis_alpha(state: State) -> tuple[int, int]:
    in_s, out, bare, inc, exc = state
    return in_s + out - bare, max(inc, exc)


def shape_mis_alpha(graph_class: str, shape: tuple) -> tuple[int, int]:
    """(mis, alpha) of the graph that generate builds from `shape`, folded
    from per-code root states without building it.

    A tree folds its root's children; a forest multiplies its trees'
    counts and adds their alphas; a unicyclic graph sums the three runs of
    _pinned_mis_alpha along its cycle, with the edge from the last cycle
    vertex back to the first as the co-tree edge.
    """
    if len(_FREE_STATES) < len(_CHILDREN):
        _grow_code_states()
    if graph_class == "tree":
        return _tree_mis_alpha(shape)
    if graph_class == "forest":
        mis, alpha = 1, 0
        for tree in shape:
            m, a = _tree_mis_alpha(tree)
            mis *= m
            alpha += a
        return mis, alpha
    if graph_class == "unicyclic":
        return _cycle_mis_alpha(shape)
    raise ValueError(f"unknown graph class {graph_class!r}")


# The free root state of each rooted code (misbounds.rooted), indexed by
# code; _grow_code_states extends it whenever the rooted table has grown.
_FREE_STATES: list[State] = []


def _grow_code_states() -> None:
    """Append the free states of every code past the table's end; a
    code's children come before it, so their states are already there."""
    for code in range(len(_FREE_STATES), len(_CHILDREN)):
        state = _FREE
        for child in _CHILDREN[code]:
            state = _adopt(state, _FREE_STATES[child])
        _FREE_STATES.append(state)


def _tree_mis_alpha(shape: tuple) -> tuple[int, int]:
    """(mis, alpha) of a tree shape: (centroid's child codes,) or two half
    codes whose roots are joined. The centroid adopts its children as
    _adopt does, with its state held in locals."""
    if len(shape) == 2:
        return _root_mis_alpha(_adopt(_FREE_STATES[shape[0]], _FREE_STATES[shape[1]]))
    in_s, out, bare, inc, exc = _FREE
    for child in shape[0]:
        c_in, c_out, c_bare, c_inc, c_exc = _FREE_STATES[child]
        dom = c_out - c_bare
        in_s *= c_out
        out *= c_in + dom
        bare *= dom
        inc += c_exc
        exc += c_inc if c_inc > c_exc else c_exc
    return in_s + out - bare, inc if inc > exc else exc


def _cycle_mis_alpha(seq: tuple) -> tuple[int, int]:
    """Cycle vertex i carries rooted code seq[i]; the spanning tree is the
    path 0..c-1 rooted at 0, and the pins go on 0 and c-1.

    The three runs of _pinned_mis_alpha move down the path together, each
    vertex adopting the run's state below it as _adopt does: a, neither
    end of the co-tree edge in S, each to be dominated inside the tree;
    b, 0 in S and c-1 dominated by it; c, c-1 in S and 0 dominated by
    it. Each pinned end is its free state with the entries its pin rules
    out zeroed or _FORBIDDEN, so runs a and b share one alpha track. The
    root's step adds each run's mis and alpha directly.
    """
    in_s, out, bare, inc, exc = _FREE_STATES[seq[-1]]
    a_in, a_out, a_bare, a_inc, a_exc = 0, out, bare, _FORBIDDEN, exc
    b_in, b_out, b_bare = 0, out, 0
    c_in, c_out, c_bare, c_inc, c_exc = in_s, 0, 0, inc, _FORBIDDEN
    for code in seq[-2:0:-1]:
        in_s, out, bare, inc, exc = _FREE_STATES[code]
        dom = a_out - a_bare
        a_in, a_out, a_bare = in_s * a_out, out * (a_in + dom), bare * dom
        a_inc, a_exc = inc + a_exc, exc + (a_inc if a_inc > a_exc else a_exc)
        dom = b_out - b_bare
        b_in, b_out, b_bare = in_s * b_out, out * (b_in + dom), bare * dom
        dom = c_out - c_bare
        c_in, c_out, c_bare = in_s * c_out, out * (c_in + dom), bare * dom
        c_inc, c_exc = inc + c_exc, exc + (c_inc if c_inc > c_exc else c_exc)
    in_s, out, bare, inc, exc = _FREE_STATES[seq[0]]
    dom = a_out - a_bare
    mis = out * (a_in + dom) - bare * dom + in_s * b_out + out * (c_in + c_out - c_bare)
    alpha = max(exc + (a_inc if a_inc > a_exc else a_exc), inc + a_exc,
                exc + (c_inc if c_inc > c_exc else c_exc))
    return mis, alpha
