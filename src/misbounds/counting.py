"""Exact counting and enumeration of maximal independent sets.

Routes, each checked in the test suite against oracles that share no
code with them (tests/oracle_helpers.py):

- trees and forest components: one iterative pass over the rooted tree
  that yields both the maximal-independent-set count and alpha in linear
  time (Wilf 1986; Sagan 1988),
- unicyclic components, bare cycles included: the same pass with one
  cycle edge deleted, run three times under the three ways a maximal set
  can meet that edge,
- the cycle recurrence mis(C_n) = mis(C_{n-2}) + mis(C_{n-3}), kept for
  the cycle-bound report,
- a pivoted branch-and-bound walk over the complement's maximal
  cliques, the route for every other component.

mis_count and independence_number read one (mis, alpha) pass over the
components. All functions are pure; nothing is memoized, and only
mis_enumerate stores maximal sets.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .graphs import Graph, _bits, classify, components


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
        m, a = _sparse_mis_alpha(comp) or _clique_walk(comp)
        mis *= m
        alpha += a
    return mis, alpha


def _sparse_mis_alpha(c: Graph) -> Optional[tuple[int, int]]:
    """(mis, alpha) of a connected tree or unicyclic graph; None otherwise.

    A unicyclic graph loses one cycle edge (u, x) and the tree left is
    counted three times, once for each way a maximal set meets that
    edge: u in and x out (x dominated by u), u out (dominated by x) and
    x in, or both out and each dominated inside the tree.
    """
    cls = classify(c)
    if cls.kind == "tree":
        return _tree_pass(*_rooted(c.adj, 0))
    if cls.kind != "unicyclic":
        return None
    u, x = cls.cycle[0], cls.cycle[1]
    adj = list(c.adj)
    adj[u] ^= 1 << x
    adj[x] ^= 1 << u
    order, parent = _rooted(adj, u)
    # Pinned states (in_s, out, bare, inc, exc): in S; out and dominated
    # across the deleted edge; out and to be dominated inside the tree.
    neg = -c.order
    s_in, covered, s_out = (1, 0, 0, 1, neg), (0, 1, 0, neg, 0), (0, 1, 1, neg, 0)
    runs = [
        _tree_pass(order, parent, ((u, pu), (x, px)))
        for pu, px in ((s_in, covered), (covered, s_in), (s_out, s_out))
    ]
    return sum(m for m, _ in runs), max(a for _, a in runs)


def _rooted(adj: Sequence[int], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order of a tree from root, and each vertex's parent."""
    parent = [-1] * len(adj)
    order = [root]
    seen = 1 << root
    for v in order:
        for w in _bits(adj[v] & ~seen):
            parent[w] = v
            order.append(w)
        seen |= adj[v]
    return order, parent


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
