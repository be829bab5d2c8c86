"""Independent oracles the tests check production code against.

Everything here is deliberately naive: subset loops (one vectorized
with numpy, one in plain Python), the paper's support-vertex recursion,
the Perrin-type cycle recurrence, a depth-first component split,
permutation sweeps, the partition refinement as it was before inert
splitters, the inert-splitter refinement as it was before its masks
were walked inline (`_refine`), the single canonical path before twin
cells were split in one step, the backtracking canonical search
(`_CanonSearch`, with twin classes and automorphism pruning) that the
single path replaced in the package and that still takes any graph,
the upper-triangle encoder and graph6 packer that search compares and
writes its candidates with (`_encode`, `_pack_graph6`; the package
writes graph6 only through `write_graph6`), rooted trees as nested
tuples, the unicyclic necklaces filtered by comparing every rotation
and reflection, Pruefer decoding, levelwise labeled growth with
canonical dedup, lemma 2's sampling loop
drawn one randrange at a time, and the majorization order lemma 2 is
stated in. None of it shares algorithms
with the package's counting routes, and the package itself does not
import this module.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Optional

import numpy as np

from misbounds.graphs import (
    Graph,
    _bits,
    _g6_size_prefix,
    canonical_form,
    classify,
    make_graph,
    write_graph6,
)
from misbounds.rooted import _FIRST, _SIZE, last_code

BRUTEFORCE_LIMIT = 25
_BRUTE_CHUNK = 1 << 20

# Cap on stored automorphisms during canonical labeling; only affects
# pruning strength, never correctness.
_MAX_STORED_AUTOMORPHISMS = 512


def majorizes(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """(a1,a2) majorizes (b1,b2) iff a1 >= b1 and a1+a2 >= b1+b2."""
    return a[0] >= b[0] and a[0] + a[1] >= b[0] + b[1]


def lemma2_tuples_reference(samples: int, seed: int, value_range: int = 10_000) -> list[tuple]:
    """The (a, b, c, d, e, f, g, h) tuples of the lemma-2 sweep, drawn with
    one rng.randrange per variable."""
    rng = random.Random(seed)
    M = value_range
    out = []
    for _ in range(samples):
        d = rng.randrange(M)
        c = d + rng.randrange(M)
        a = c + rng.randrange(M)
        b = max(0, c + d - a) + rng.randrange(M)
        h = rng.randrange(M)
        g = h + rng.randrange(M)
        e = g + rng.randrange(M)
        f = max(0, g + h - e) + rng.randrange(M)
        out.append((a, b, c, d, e, f, g, h))
    return out


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


def split_components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Connected components by smallest vertex, found by depth-first
    search: each as its own graph (labels kept in order) with the
    original labels of its vertices."""
    out = []
    placed: set[int] = set()
    for start in range(g.order):
        if start in placed:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in _neighbors(g, stack.pop()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        placed |= comp
        out.append((delete_vertices(g, set(range(g.order)) - comp), tuple(sorted(comp))))
    return out


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
    for comp, _ in split_components(g):
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


def refine_reference(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition to an equitable one.

    The package's refinement before it skipped inert splitters, kept
    as written: after every split it tries every cell as a splitter
    again from the first, so it shares no bookkeeping with the new one.
    """
    while True:
        changed = False
        for splitter in cells:
            smask = 0
            for v in splitter:
                smask |= 1 << v
            new_cells: list[list[int]] = []
            did = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) > 1:
                    did = True
                for key in sorted(groups):
                    new_cells.append(groups[key])
            if did:
                cells = new_cells
                changed = True
                break
        if not changed:
            return cells


# The package's refinement as it was before it walked its masks inline,
# stopped at the last hit and resumed after the last split; the search
# and the vertex-by-vertex single path below refine with it.
def _refine(
    adj: tuple[int, ...], cells: list[int], inert: set[int]
) -> tuple[list[int], set[int]]:
    """Refine an ordered partition, one vertex mask per cell, to an
    equitable one.

    Repeatedly splits every cell by neighbor counts into the first cell
    that splits anything; subcells inherit position and are ordered by
    count. A cell holding no neighbor of the splitter has one count and
    is passed over. The result depends only on the partition structure,
    not on vertex labels, so isomorphic inputs refine in lockstep.

    Once a cell has been the splitter, every cell has one count into it,
    and so does every cell of a finer partition: while it is still a cell
    it splits nothing. Such cells' masks are kept in `inert` and skipped.
    The set is returned with the cells and then holds every cell's mask.
    """
    inert = set(inert)
    while True:
        for smask in cells:
            if smask in inert:
                continue
            inert.add(smask)
            single = not smask & (smask - 1)
            reach = 0
            for v in _bits(smask):
                reach |= adj[v]
            new_cells: list[int] = []
            for cell in cells:
                hit = cell & reach
                if not hit or not cell & (cell - 1) or single and hit == cell:
                    new_cells.append(cell)
                elif single:  # the counts are 0 and 1
                    new_cells += (cell ^ hit, hit)
                else:
                    groups = {0: cell ^ hit} if hit != cell else {}
                    for v in _bits(hit):
                        key = (adj[v] & smask).bit_count()
                        groups[key] = groups.get(key, 0) | 1 << v
                    new_cells += (groups[key] for key in sorted(groups))
            if len(new_cells) > len(cells):
                cells = new_cells
                break
        else:
            return cells, inert


def _encode(adj: tuple[int, ...], lab: list[int]) -> int:
    """Upper-triangle column-order bitstring of the relabeled graph,
    packed into an int with the first bit most significant. That is
    graph6's bit order, so _pack_graph6 writes it as it stands."""
    enc = 0
    for j in range(1, len(lab)):
        row = adj[lab[j]]
        for i in range(j):
            enc = enc << 1 | (row >> lab[i] & 1)
    return enc


def _pack_graph6(n: int, enc: int) -> bytes:
    """graph6 bytes of the order-n graph whose _encode bitstring is enc:
    the size prefix, then six bits per character, zero-padded at the end."""
    bits = n * (n - 1) // 2
    chars = (bits + 5) // 6
    enc <<= 6 * chars - bits
    body = bytes(63 + (enc >> 6 * i & 63) for i in reversed(range(chars)))
    return _g6_size_prefix(n).encode("ascii") + body


def single_path_reference(adj: tuple[int, ...], n: int) -> int:
    """The single-path encoding before twin cells were split in one step:
    refine, split off the lowest vertex of the first non-singleton cell,
    and repeat, one vertex at a time."""
    cells, inert = [(1 << n) - 1], set()
    while True:
        cells, inert = _refine(adj, cells, inert)
        k = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), None)
        if k is None:
            return _encode(adj, [cell.bit_length() - 1 for cell in cells])
        low = cells[k] & -cells[k]
        cells = cells[:k] + [low, cells[k] ^ low] + cells[k + 1 :]


# ---------------------------------------------------------------------------
# The package's canonical labeling before every graph it accepts took the
# single path: a backtracking search over every individualization, pruned
# by twin classes and discovered automorphisms. It accepts any graph.
# ---------------------------------------------------------------------------


class _CanonSearch:
    """Individualization-refinement search for the minimum encoding."""

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.n = g.order
        self.m = g.order * (g.order - 1) // 2
        self.best_enc: Optional[int] = None
        self.best_lab: Optional[list[int]] = None
        self.autos: list[tuple[int, ...]] = []
        # Twin classes: vertices with identical open (or closed)
        # neighborhoods are interchangeable by a transposition, which
        # prunes the leaf-bundle and clique blowups without waiting for
        # automorphism discovery.
        groups: dict[tuple[int, int], list[int]] = {}
        for v in range(self.n):
            groups.setdefault((0, g.adj[v]), []).append(v)
            groups.setdefault((1, g.adj[v] | 1 << v), []).append(v)
        self.twin_groups = [vs for vs in groups.values() if len(vs) > 1]

    def run(self) -> int:
        """The minimum encoding."""
        self._search([(1 << self.n) - 1], [], set())
        assert self.best_enc is not None
        return self.best_enc

    def _orbit_reps(self, fixed: list[int]) -> list[int]:
        """Union-find parents under automorphisms fixing `fixed` pointwise."""
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        fixed_set = set(fixed)
        for group in self.twin_groups:
            free = [v for v in group if v not in fixed_set]
            for u, v in zip(free, free[1:]):
                a, b = find(u), find(v)
                if a != b:
                    parent[max(a, b)] = min(a, b)
        for sigma in self.autos:
            if any(sigma[w] != w for w in fixed):
                continue
            for v in range(self.n):
                a, b = find(v), find(sigma[v])
                if a != b:
                    parent[max(a, b)] = min(a, b)
        return [find(v) for v in range(self.n)]

    def _search(self, cells: list[int], fixed: list[int], inert: set[int]) -> None:
        cells, inert = _refine(self.adj, cells, inert)
        k = 0
        while k < len(cells) and not cells[k] & (cells[k] - 1):
            k += 1
        prefix = [cells[i].bit_length() - 1 for i in range(k)]
        if k == len(cells):
            enc = _encode(self.adj, prefix)
            if self.best_enc is None or enc < self.best_enc:
                self.best_enc = enc
                self.best_lab = prefix
            elif enc == self.best_enc and prefix != self.best_lab:
                if len(self.autos) < _MAX_STORED_AUTOMORPHISMS:
                    sigma = [0] * self.n
                    assert self.best_lab is not None
                    for bv, nv in zip(self.best_lab, prefix):
                        sigma[bv] = nv
                    self.autos.append(tuple(sigma))
            return
        if self.best_enc is not None and k > 1:
            kbits = k * (k - 1) // 2
            if _encode(self.adj, prefix) > self.best_enc >> (self.m - kbits):
                return
        target = cells[k]
        tried: list[int] = []
        for v in _bits(target):
            if tried:
                # recomputed per candidate: child searches append automorphisms
                reps = self._orbit_reps(fixed)
                if any(reps[v] == reps[u] for u in tried):
                    continue
            tried.append(v)
            child = cells[:k] + [1 << v, target & ~(1 << v)] + cells[k + 1 :]
            self._search(child, fixed + [v], inert)


def search_canonical_form(g: Graph) -> bytes:
    """canonical_form's bytes, reached by the full search."""
    return _pack_graph6(g.order, _CanonSearch(g).run())


# ---------------------------------------------------------------------------
# Rooted trees as nested tuples, as the generator held them before its
# codes became ranked ints: a code is the tuple of its child codes, sorted
# descending by code_key.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def code_key(code: tuple) -> tuple:
    """Total order on nested codes: by size, then recursively."""
    keys = tuple(code_key(child) for child in code)
    return (1 + sum(k[0] for k in keys), keys)


@lru_cache(maxsize=None)
def nested_rooted_codes(order: int) -> tuple[tuple, ...]:
    """All rooted trees on `order` vertices as nested codes, descending by key."""
    if order == 1:
        return ((),)
    out = list(_nested_child_multisets(order - 1, order - 1, None))
    out.sort(key=code_key, reverse=True)
    return tuple(out)


def _nested_child_multisets(total: int, max_size: int, bound: Optional[tuple]):
    """Key-descending multisets of nested codes with sizes summing to
    total, every size at most max_size, the first key at most bound's."""
    if total == 0:
        yield ()
        return
    for size in range(min(total, max_size), 0, -1):
        for code in nested_rooted_codes(size):
            if bound is not None and code_key(code) > code_key(bound):
                continue
            for rest in _nested_child_multisets(total - size, max_size, code):
                yield (code,) + rest


def necklace_sequences_reference(n: int, c: int):
    """The unicyclic generator's necklaces before it tracked the period:
    every code at most the first, and each full sequence compared with
    all its rotations and reflections (_is_necklace_canonical)."""

    def extend(seq: tuple[int, ...], used: int):
        left = n - used
        if len(seq) == c - 1:  # the last code takes exactly the vertices left
            for code in range(min(seq[0], _FIRST[left + 1] - 1), _FIRST[left] - 1, -1):
                cand = seq + (code,)
                if _is_necklace_canonical(cand):
                    yield cand
            return
        max_here = left - (c - len(seq) - 1)
        for code in range(min(seq[0], _FIRST[max_here + 1] - 1), -1, -1):
            yield from extend(seq + (code,), used + _SIZE[code])

    for first in range(last_code(n - c + 1), -1, -1):
        yield from extend((first,), _SIZE[first])


def _is_necklace_canonical(seq: tuple[int, ...]) -> bool:
    c = len(seq)
    doubled = seq + seq
    rev = seq[::-1] * 2
    for s in range(c):
        if doubled[s : s + c] > seq or rev[s : s + c] > seq:
            return False
    return True


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
