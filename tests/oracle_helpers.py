"""Independent oracles the tests check production code against.

Everything here is deliberately naive: subset loops (one vectorized
with numpy, one in plain Python), the paper's support-vertex recursion,
permutation sweeps, Pruefer decoding, and levelwise labeled growth with
canonical dedup. None of it shares algorithms with the package's
counting routes, and the package itself does not import this module.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Optional

import numpy as np

from misbounds.counting import mis_count_cycle
from misbounds.graphs import (
    Graph,
    canonical_form,
    classify,
    components,
    make_graph,
    write_graph6,
)

BRUTEFORCE_LIMIT = 25
_BRUTE_CHUNK = 1 << 20


def mis_count_bruteforce(g: Graph) -> int:
    """Count maximal independent sets by iterating all 2^n subsets.

    The ground-truth oracle for every other counter. A subset S is
    counted when no member's neighborhood meets S and the closed
    neighborhoods of its members cover every vertex.
    """
    n = g.order
    if n > BRUTEFORCE_LIMIT:
        raise ValueError(f"order {n} exceeds brute-force guard {BRUTEFORCE_LIMIT}")
    if n == 0:
        return 1
    full = np.uint64((1 << n) - 1)
    masks = [np.uint64(m) for m in g.adj]
    count = 0
    for lo in range(0, 1 << n, _BRUTE_CHUNK):
        hi = min(lo + _BRUTE_CHUNK, 1 << n)
        idx = np.arange(lo, hi, dtype=np.uint64)
        viol = np.zeros(idx.shape, dtype=bool)
        dom = idx.copy()
        for v in range(n):
            member = (idx >> np.uint64(v) & np.uint64(1)).astype(bool)
            if g.adj[v]:
                viol |= member & ((idx & masks[v]) != 0)
                dom[member] |= masks[v]
        count += int(np.count_nonzero(~viol & (dom == full)))
    return count


def brute_mis_count(g: Graph) -> int:
    """Pure-python subset loop; independent of the numpy oracle."""
    n = g.order
    full = (1 << n) - 1
    count = 0
    for s in range(1 << n):
        ok = True
        dom = s
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            if g.adj[v] & s:
                ok = False
                break
            dom |= g.adj[v]
            t &= t - 1
        if ok and dom == full:
            count += 1
    return count


def brute_maximal_sets(g: Graph) -> list[frozenset[int]]:
    n = g.order
    full = (1 << n) - 1
    out = []
    for s in range(1 << n):
        ok = True
        dom = s
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            if g.adj[v] & s:
                ok = False
                break
            dom |= g.adj[v]
            t &= t - 1
        if ok and dom == full:
            out.append(frozenset(v for v in range(n) if s >> v & 1))
    return out


def brute_alpha(g: Graph) -> int:
    """Max cardinality over brute-forced maximal sets."""
    return max((len(s) for s in brute_maximal_sets(g)), default=0)


def _neighbors(g: Graph, v: int) -> list[int]:
    return [w for w in range(g.order) if g.adj[v] >> w & 1]


def delete_vertices(g: Graph, s: Iterable[int]) -> Graph:
    """Induced subgraph on V minus s, relabeled order-preservingly."""
    drop = set(s)
    pos = {v: i for i, v in enumerate(v for v in range(g.order) if v not in drop)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return make_graph(len(pos), edges)


def closed_neighborhood(g: Graph, v: int) -> frozenset[int]:
    return frozenset([v, *_neighbors(g, v)])


@dataclass(frozen=True)
class SupportReduction:
    """A support vertex y together with its full set Q of leaf neighbors."""

    support: int
    leaves: frozenset[int]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)


def distance_to_cycle(g: Graph, cycle: Iterable[int]) -> list[int]:
    """BFS layering from the whole cycle at once; -1 for unreachable."""
    dist = [-1] * g.order
    frontier = []
    for v in cycle:
        dist[v] = 0
        frontier.append(v)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in _neighbors(g, v):
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def find_support_reduction(g: Graph) -> Optional[SupportReduction]:
    """Pick a support vertex and its full leaf set, or None if leafless.

    A support vertex has degree >= 2 and a degree-1 neighbor. For a bare
    single edge both ends are leaves; the higher-indexed end is treated
    as the support so recursions over it still terminate. When the graph
    is unicyclic the chosen support maximizes distance to the cycle
    (ties to the lowest index); otherwise the lowest index wins.
    """
    n = g.order
    deg = [g.degree(v) for v in range(n)]
    candidates = set()
    for v in range(n):
        if deg[v] != 1:
            continue
        w = _neighbors(g, v)[0]
        if deg[w] >= 2:
            candidates.add(w)
        else:
            candidates.add(max(v, w))
    if not candidates:
        return None
    cls = classify(g)
    if cls.kind == "unicyclic":
        dist = distance_to_cycle(g, cls.cycle)
        y = min(candidates, key=lambda v: (-dist[v], v))
    else:
        y = min(candidates)
    leaves = frozenset(w for w in _neighbors(g, y) if deg[w] == 1)
    return SupportReduction(support=y, leaves=leaves)


def support_vertex_mis_count(g: Graph) -> int:
    """mis(g) by the support-vertex recursion of the paper's Lemma 3.

    Components multiply. A component with a support vertex y and leaf
    set Q counts as mis(C - Q - y) + mis(C - N[y]); a leafless component
    is a bare cycle (cycle recurrence) or is counted by the subset loop.
    Exponential without a memo, so keep it to small orders.
    """
    total = 1
    for comp, _ in components(g):
        if comp.order <= 2:
            total *= comp.order or 1
            continue
        red = find_support_reduction(comp)
        if red is not None:
            bundle = delete_vertices(comp, red.leaves | {red.support})
            closed = delete_vertices(comp, closed_neighborhood(comp, red.support))
            total *= support_vertex_mis_count(bundle) + support_vertex_mis_count(closed)
        elif classify(comp).kind == "unicyclic":
            total *= mis_count_cycle(comp.order)
        else:
            total *= brute_mis_count(comp)
    return total


def brute_canonical(g: Graph) -> str:
    """Minimum graph6 text over all vertex permutations."""
    best = None
    for perm in permutations(range(g.order)):
        h = make_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
        s = write_graph6(h)
        if best is None or s < best:
            best = s
    return best


def permute(g: Graph, perm) -> Graph:
    return make_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# Labeled-generation + canonical-dedup oracles for the three graph classes.
# Literal full labeled enumeration where tractable; levelwise labeled
# growth with canonical dedup above that.
# ---------------------------------------------------------------------------


def pruefer_tree(seq: tuple[int, ...], n: int) -> Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    seq_list = list(seq)
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq_list:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return make_graph(n, edges)


def labeled_tree_classes(n: int) -> set[bytes]:
    """Canonical forms of all n^(n-2) labeled trees (use only for small n)."""
    if n == 1:
        return {canonical_form(make_graph(1, []))}
    if n == 2:
        return {canonical_form(make_graph(2, [(0, 1)]))}
    forms = set()
    for seq in product(range(n), repeat=n - 2):
        forms.add(canonical_form(pruefer_tree(seq, n)))
    return forms


def _edge_subset_classes(n: int, edge_count: int, keep) -> set[bytes]:
    pairs = list(combinations(range(n), 2))
    forms = set()
    for subset in combinations(pairs, edge_count):
        g = make_graph(n, subset)
        if keep(g):
            forms.add(canonical_form(g))
    return forms


def labeled_unicyclic_classes(n: int) -> set[bytes]:
    """All labeled graphs with n edges that are connected (small n only)."""
    return _edge_subset_classes(n, n, lambda g: classify(g).kind == "unicyclic")


def labeled_forest_classes(n: int) -> set[bytes]:
    """All labeled acyclic graphs on n vertices (small n only)."""
    pairs = list(combinations(range(n), 2))
    forms = set()
    for m in range(n):
        for subset in combinations(pairs, m):
            g = make_graph(n, subset)
            if classify(g).kind in ("tree", "forest"):
                forms.add(canonical_form(g))
    return forms


def grown_tree_classes(n: int) -> dict[int, set[bytes]]:
    """Levelwise labeled leaf-growth with canonical dedup, orders 1..n."""
    reps: dict[bytes, Graph] = {canonical_form(make_graph(1, [])): make_graph(1, [])}
    levels = {1: set(reps)}
    for k in range(2, n + 1):
        nxt: dict[bytes, Graph] = {}
        for g in reps.values():
            for v in range(g.order):
                h = make_graph(g.order + 1, g.edges() + [(v, g.order)])
                form = canonical_form(h)
                if form not in nxt:
                    nxt[form] = h
        reps = nxt
        levels[k] = set(reps)
    return levels


def grown_forest_classes(n: int) -> dict[int, set[bytes]]:
    """Grow forests by adding a leaf or a fresh isolated vertex."""
    start = make_graph(1, [])
    reps: dict[bytes, Graph] = {canonical_form(start): start}
    levels = {1: set(reps)}
    for k in range(2, n + 1):
        nxt: dict[bytes, Graph] = {}
        for g in reps.values():
            grown = [make_graph(g.order + 1, g.edges())]
            grown += [
                make_graph(g.order + 1, g.edges() + [(v, g.order)])
                for v in range(g.order)
            ]
            for h in grown:
                form = canonical_form(h)
                if form not in nxt:
                    nxt[form] = h
        reps = nxt
        levels[k] = set(reps)
    return levels


def grown_unicyclic_classes(n: int) -> dict[int, set[bytes]]:
    """Grow unicyclic graphs by pendant attachment, seeding each order
    with the bare cycle."""
    levels: dict[int, set[bytes]] = {}
    reps: dict[bytes, Graph] = {}
    for k in range(3, n + 1):
        nxt: dict[bytes, Graph] = {}
        cyc = make_graph(k, [(i, (i + 1) % k) for i in range(k)])
        nxt[canonical_form(cyc)] = cyc
        for g in reps.values():
            for v in range(g.order):
                h = make_graph(g.order + 1, g.edges() + [(v, g.order)])
                form = canonical_form(h)
                if form not in nxt:
                    nxt[form] = h
        reps = nxt
        levels[k] = set(reps)
    return levels
