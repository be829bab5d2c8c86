"""Small simple undirected graphs: construction, structure queries,
classification, canonical forms, and graph6/DOT serialization.

Vertices are integers 0..n-1. Adjacency is stored as one bitmask per
vertex, which keeps set operations (neighborhood intersection, subset
tests) cheap in pure Python at the orders this package works with.
Graph values are immutable; every function here is pure.

A canonical form is the graph6 text of the graph relabeled to its
minimum upper-triangle encoding, packed straight from that encoding.
A forest reaches the minimum along one path of refinement and
individualization; every other graph takes a backtracking search
with orbit pruning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Iterator, Optional

# Largest order canonical_form accepts: the search can be exponential on
# highly regular graphs, and every class this package scans stays below it.
ISO_LIMIT = 20

# Cap on stored automorphisms during canonical labeling; only affects
# pruning strength, never correctness.
_MAX_STORED_AUTOMORPHISMS = 512


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..order-1.

    ``adj[v]`` is the neighbor set of v encoded as a bitmask. Order 0 is
    the null graph. Equality is labeled equality (same order, same
    adjacency), not isomorphism.
    """

    order: int
    adj: tuple[int, ...]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, sorted."""
        out = []
        for u, mask in enumerate(self.adj):
            rest = mask >> u + 1 << u + 1  # the neighbours above u, lowest first
            while rest:
                low = rest & -rest
                out.append((u, low.bit_length() - 1))
                rest ^= low
        return out

    @property
    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.order)) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(order={self.order}, edges={self.edges()})"


@dataclass(frozen=True)
class Classification:
    """Structural class of a graph.

    kind is one of tree / forest / unicyclic / other. ``cycle`` lists the
    unique cycle in order when kind is unicyclic, and is empty otherwise.
    The null graph classifies as a forest with component_count 0.
    """

    kind: str
    cycle: tuple[int, ...] = ()
    cycle_parity: Optional[str] = None
    component_count: int = 0


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def make_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list; duplicate edges collapse.

    Raises ValueError on self-loops or out-of-range endpoints.
    """
    if order < 0:
        raise ValueError(f"negative order {order}")
    adj = [0] * order
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u},{v}) out of range for order {order}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(order, tuple(adj))


def _component_masks(g: Graph) -> Iterator[int]:
    """Vertex mask of each connected component, by smallest vertex."""
    rest = (1 << g.order) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
            comp |= nxt
        rest &= ~comp
        yield comp


def _induced(g: Graph, verts: tuple[int, ...]) -> Graph:
    if len(verts) == g.order:  # verts ascend, so this is g unchanged
        return g
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, v in enumerate(verts):
        for w in _bits(g.adj[v]):
            j = pos.get(w)
            if j is not None:
                adj[i] |= 1 << j
    return Graph(len(verts), tuple(adj))


def _strip_to_cycle(g: Graph) -> list[int]:
    """Vertices left after iteratively removing degree-1 vertices."""
    deg = [g.adj[v].bit_count() for v in range(g.order)]
    alive = [True] * g.order
    queue = [v for v in range(g.order) if deg[v] == 1]
    while queue:
        v = queue.pop()
        if not alive[v] or deg[v] != 1:
            continue
        alive[v] = False
        for w in _bits(g.adj[v]):
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    return [v for v in range(g.order) if alive[v] and deg[v] >= 2]


def _order_cycle(g: Graph, cyc_verts: list[int]) -> tuple[int, ...]:
    cyc_set = set(cyc_verts)
    start = min(cyc_verts)
    on_cycle = [w for w in _bits(g.adj[start]) if w in cyc_set]
    walk = [start, min(on_cycle)]
    while True:
        prev, cur = walk[-2], walk[-1]
        nxt = [w for w in _bits(g.adj[cur]) if w in cyc_set and w != prev]
        if nxt[0] == start:
            break
        walk.append(nxt[0])
    return tuple(walk)


def classify(g: Graph) -> Classification:
    """Classify as tree / forest / unicyclic / other.

    A connected graph with n-1 edges is a tree, with n edges unicyclic
    (the cycle is recovered by leaf stripping). Acyclic but disconnected
    graphs are forests; everything else is other.
    """
    n = g.order
    if n == 0:
        return Classification(kind="forest", component_count=0)
    k = sum(1 for _ in _component_masks(g))
    m = g.edge_count
    if k == 1:
        if m == n - 1:
            return Classification(kind="tree", component_count=1)
        if m == n:
            cyc = _order_cycle(g, _strip_to_cycle(g))
            parity = "even" if len(cyc) % 2 == 0 else "odd"
            return Classification(
                kind="unicyclic", cycle=cyc, cycle_parity=parity, component_count=1
            )
        return Classification(kind="other", component_count=1)
    if m == n - k:
        return Classification(kind="forest", component_count=k)
    return Classification(kind="other", component_count=k)


# ---------------------------------------------------------------------------
# graph6 encoding (6 bits per character, upper-triangle column order)
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
_G6_OUT_OF_RANGE = re.compile(r"[^?-~]")
_G6_NONZERO = re.compile(r"[^?]")
_G6_ADD_63 = bytes(range(63, 127)).ljust(256, b"?")  # six data bits -> character


def _g6_size_prefix(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    raise ValueError(f"order {n} too large for supported graph6 size forms")


def write_graph6(g: Graph) -> str:
    """Encode as graph6 text (one-byte size for n <= 62, 4-byte above).

    Only the edge bits are set in a zeroed buffer, so a sparse graph is
    written in time linear in the string.
    """
    n = g.order
    vals = bytearray((n * (n - 1) // 2 + 5) // 6)
    for j in range(1, n):
        for i in _bits(g.adj[j] & ((1 << j) - 1)):
            k = j * (j - 1) // 2 + i  # bit k is the pair i < j
            vals[k // 6] |= 32 >> k % 6
    return _g6_size_prefix(n) + vals.translate(_G6_ADD_63).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional ``>>graph6<<`` header).

    Only the characters other than ``?`` (six zero bits) are decoded, so
    a sparse graph parses in time linear in the string and its edges.
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    bad = _G6_OUT_OF_RANGE.search(s)
    if bad:
        raise ValueError(f"character {bad.group()!r} outside graph6 range [63,126]")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise ValueError("8-byte graph6 size form not supported")
        if len(s) < 4:
            raise ValueError("truncated graph6 size prefix")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(body) < nchars:
        raise ValueError("graph6 data shorter than the declared order requires")
    if len(body) > nchars:
        raise ValueError("trailing garbage after graph6 data")
    adj = [0] * n
    for m in _G6_NONZERO.finditer(body):
        base = 6 * m.start() + 5
        for shift in _bits(ord(m.group()) - 63):
            k = base - shift  # bit k is the pair i < j with k = j(j-1)/2 + i
            if k >= nbits:  # padding
                continue
            j = (1 + isqrt(1 + 8 * k)) // 2
            i = k - j * (j - 1) // 2
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def to_dot(g: Graph) -> str:
    """Deterministic DOT text: every vertex stated, edges sorted."""
    lines = ["graph {"]
    for v in range(g.order):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot(text: str) -> Graph:
    """Read the DOT dialect produced by to_dot: vertex and edge statements
    ended by ';' or a line break, on one line or many, inside the
    `graph {` opener and `}` closer."""
    verts: set[int] = set()
    edges: list[tuple[int, int]] = []
    for raw in re.split(r"[;\n]", re.sub(r"\bgraph\s*\w*\s*\{|\}", "\n", text)):
        stmt = raw.strip()
        if not stmt:
            continue
        m = re.fullmatch(r"(\d+)\s*--\s*(\d+)", stmt)
        if m:
            u, v = int(m.group(1)), int(m.group(2))
            verts.update((u, v))
            edges.append((u, v))
            continue
        m = re.fullmatch(r"(\d+)", stmt)
        if m:
            verts.add(int(m.group(1)))
            continue
        raise ValueError(f"unrecognized DOT statement: {stmt!r}")
    order = max(verts) + 1 if verts else 0
    return make_graph(order, edges)


# ---------------------------------------------------------------------------
# Canonical form: equitable refinement plus backtracking over the
# remaining cells, with discovered-automorphism orbit pruning.
# ---------------------------------------------------------------------------


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


def _single_path(adj: tuple[int, ...], n: int) -> int:
    """Encoding of the labeling reached by refining, splitting off the
    lowest vertex of the first non-singleton cell, and repeating.

    It is the minimum encoding whenever each such cell is one orbit of
    the automorphisms fixing the current partition, which holds on
    forests: there colour refinement finds the orbit partition (Immerman
    and Lander 1990; Arvind, Köbler, Rattan and Verbitsky 2017).

    A twin cell, whose vertices share one neighbour mask (so none is
    adjacent to another), is split into singletons, lowest first, in one
    step. In an equitable partition every other cell lies inside that
    mask or misses it, so splitting off a twin splits nothing else, and
    the vertex-by-vertex loop would reach the same partition.
    """
    cells, inert = [(1 << n) - 1], set()
    while True:
        cells, inert = _refine(adj, cells, inert)
        k = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), None)
        if k is None:
            return _encode(adj, [cell.bit_length() - 1 for cell in cells])
        cell = cells[k]
        low = cell & -cell
        if all(adj[v] == adj[low.bit_length() - 1] for v in _bits(cell)):
            split = [1 << v for v in _bits(cell)]
            inert.update(split)
        else:
            split = [low, cell ^ low]
        cells[k : k + 1] = split


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


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal for two graphs iff they are isomorphic.

    The bytes are the graph6 encoding of the graph relabeled to its
    minimum encoding, so any canonical form parses back into a
    representative. A forest takes the single path, any other graph the
    full search.
    """
    n = g.order
    if n > ISO_LIMIT:
        raise ValueError(f"order {n} exceeds isomorphism limit {ISO_LIMIT}")
    if n <= 1:
        enc = 0
    elif g.edge_count == n - sum(1 for _ in _component_masks(g)):
        enc = _single_path(g.adj, n)
    else:
        enc = _CanonSearch(g).run()
    return _pack_graph6(n, enc)
