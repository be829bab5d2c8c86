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

mis_count and independence_number read one (mis, alpha) pass over the
components. All functions are pure; nothing is memoized, and only
mis_enumerate stores maximal sets.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .graphs import Graph, _bits, components
from .graphs import classify  # noqa: F401  bench/child.py traces counting.classify

# Pinned runs cost up to 2^|W| tree passes; at |W| = 8 they tie the clique
# walk near order 24 (timings in README "Counting routes").
PIN_LIMIT = 8


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
    return _mis_alpha(g)[0]


def independence_number(g: Graph) -> int:
    """Size of a maximum independent set of any graph."""
    return _mis_alpha(g)[1]


def _mis_alpha(g: Graph) -> tuple[int, int]:
    """(mis, alpha) over components: counts multiply, alphas add. The
    walk's largest set is alpha, since every maximum set is maximal."""
    mis, alpha = 1, 0
    for comp, _ in components(g):
        m, a = _pinned_mis_alpha(comp) or _clique_walk(comp)
        mis *= m
        alpha += a
    return mis, alpha


def _pinned_mis_alpha(c: Graph) -> Optional[tuple[int, int]]:
    """(mis, alpha) of a connected graph through a BFS spanning tree;
    None when the co-tree edges have more than PIN_LIMIT endpoints.

    Every maximal set S meets the co-tree endpoints W in an independent
    set I, so the tree pass runs once per such I with each vertex of W
    pinned: in S (I), out and dominated across an edge into I, or out
    and to be dominated inside the tree. mis is the sum of the runs and
    alpha the largest. A tree takes one run, a unicyclic graph three.
    """
    adj = c.adj
    parent = [0] * c.order
    order = [0]
    seen = 1
    ends = []  # co-tree endpoints: a seen neighbour other than the parent
    for v in order:
        if adj[v] & seen & ~(1 << parent[v]):
            ends.append(v)
        for w in _bits(adj[v] & ~seen):
            parent[w] = v
            order.append(w)
        seen |= adj[v]
    if len(ends) > PIN_LIMIT:
        return None
    picks = [0]  # the independent subsets of ends, grown one vertex at a time
    for w in ends:
        picks += [i | 1 << w for i in picks if not adj[w] & i]
    # Pinned states (in_s, out, bare, inc, exc): in S; out and dominated
    # across an edge into I; out and to be dominated inside the tree.
    neg = -c.order
    s_in, covered, s_out = (1, 0, 0, 1, neg), (0, 1, 0, neg, 0), (0, 1, 1, neg, 0)
    mis = alpha = 0
    for i in picks:
        pins = [(w, s_in if i >> w & 1 else covered if adj[w] & i else s_out) for w in ends]
        m, a = _tree_pass(order, parent, pins)
        mis += m
        alpha = max(alpha, a)
    return mis, alpha


def _tree_pass(
    order: list[int], parent: list[int], pins: Iterable[tuple[int, tuple]] = ()
) -> tuple[int, int]:
    """(mis, alpha) of a tree by one bottom-up pass, children first.

    Over the sets S of v's subtree that are independent and in which
    every vertex but v is in S or has a neighbour in S, in_s[v] counts
    those with v in S, out[v] those without, and bare[v] those where no
    child of v is in S either (v's parent must then be in S). inc[v]
    and exc[v] are the largest independent sets of the subtree with and
    without v. A pin replaces a vertex's starting values; a negative
    alpha value of at most -n marks a choice the pin forbids.
    """
    n = len(order)
    in_s, out, bare, inc, exc = [1] * n, [1] * n, [1] * n, [1] * n, [0] * n
    for v, state in pins:
        in_s[v], out[v], bare[v], inc[v], exc[v] = state
    for v in reversed(order[1:]):
        p = parent[v]
        dom = out[v] - bare[v]
        in_s[p] *= out[v]
        out[p] *= in_s[v] + dom
        bare[p] *= dom
        inc[p] += exc[v]
        exc[p] += max(inc[v], exc[v])
    r = order[0]
    return in_s[r] + out[r] - bare[r], max(inc[r], exc[r])
