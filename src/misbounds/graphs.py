"""Small simple undirected graphs: construction, structure queries,
classification, canonical forms, and graph6/DOT serialization.

Vertices are integers 0..n-1. Adjacency is stored as one bitmask per
vertex, which keeps set operations (neighborhood intersection, subset
tests) cheap in pure Python at the orders this package works with.
Graph values are immutable; every function here is pure.

A canonical form is the graph6 text of the graph relabeled to its
least upper-triangle bits, written by write_graph6 like any other.
Every graph with at most one cycle reaches the minimum along one path
of refinement and individualization; graphs with more cycles are
refused.
"""

from __future__ import annotations

import re
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class Graph(NamedTuple):
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
        return sum(map(int.bit_count, self.adj)) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(order={self.order}, edges={self.edges()})"


class Classification(NamedTuple):
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
            while frontier:
                low = frontier & -frontier
                nxt |= g.adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~comp
            comp |= nxt
        rest &= ~comp
        yield comp


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
_G6_MAX_ORDER = 258047  # the largest order the one- and four-byte size forms hold
_G6_BLOCK_BITS = 6 << 20  # the most bits in one body block of graph6_blocks


def _g6_size_prefix(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= _G6_MAX_ORDER:
        return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    raise ValueError(f"order {n} too large for supported graph6 size forms")


def graph6_blocks(g: Graph, lab: Optional[Sequence[int]] = None) -> Iterator[str]:
    """graph6 text of g in pieces: the size prefix, then the body in
    blocks of whole columns, each about a million characters at most.
    Joined they are write_graph6(g, lab); written one at a time they hold
    one block in memory. With a labeling, vertex lab[i] is written as
    label i. An order too large for the size forms, or a labeling that
    does not list each vertex once, is refused before the first piece.

    Column j holds bits j(j-1)/2 .. j(j+1)/2 - 1, one per pair i < j,
    and begins on a character when j is 1 or a multiple of 12, where
    every block but the first starts. Only the edge bits are set in a
    zeroed buffer, so a sparse graph is written in time linear in the
    string.
    """
    n = g.order
    prefix = _g6_size_prefix(n)
    adj = g.adj
    if lab is not None:
        if sorted(lab) != list(range(n)):
            raise ValueError(f"a labeling must list each of the {n} vertices once")
        pos = [0] * n  # pos[v] is the label of vertex v
        for i, v in enumerate(lab):
            pos[v] = i
    yield prefix
    start = 1
    while start < n:
        stop = min(n, max(start + 12, isqrt(start * start + 2 * _G6_BLOCK_BITS)) // 12 * 12)
        base = start * (start - 1) // 2
        vals = bytearray((stop * (stop - 1) // 2 - base + 5) // 6)
        for j in range(start, stop):
            first = j * (j - 1) // 2 - base  # bit first + i is the pair i < j
            if lab is None:
                m = adj[j] & ((1 << j) - 1)
                while m:
                    low = m & -m
                    k = first + low.bit_length() - 1
                    vals[k // 6] |= 32 >> k % 6
                    m ^= low
            else:
                m = adj[lab[j]]
                while m:
                    low = m & -m
                    i = pos[low.bit_length() - 1]
                    if i < j:
                        k = first + i
                        vals[k // 6] |= 32 >> k % 6
                    m ^= low
        yield vals.translate(_G6_ADD_63).decode("ascii")
        start = stop


def write_graph6(g: Graph, lab: Optional[Sequence[int]] = None) -> str:
    """Encode as graph6 text (one-byte size for n <= 62, 4-byte above):
    the pieces of graph6_blocks, joined; with a labeling, vertex lab[i]
    is written as label i."""
    return "".join(graph6_blocks(g, lab))


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


def _dot_vertex(digits: str) -> int:
    """A DOT vertex number, refused at or above graph6's largest order
    before the graph is built; one of more digits than that order's six
    is refused by its length, without converting it."""
    if len(digits.lstrip("0")) > 6 or int(digits) >= _G6_MAX_ORDER:
        raise ValueError(f"DOT vertex numbers must be below {_G6_MAX_ORDER}, "
                         "the largest graph6 order")
    return int(digits)


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
            u, v = _dot_vertex(m.group(1)), _dot_vertex(m.group(2))
            verts.update((u, v))
            edges.append((u, v))
            continue
        m = re.fullmatch(r"(\d+)", stmt)
        if m:
            verts.add(_dot_vertex(m.group(1)))
            continue
        raise ValueError(f"unrecognized DOT statement: {stmt!r}")
    order = max(verts) + 1 if verts else 0
    return make_graph(order, edges)


# ---------------------------------------------------------------------------
# Canonical form: equitable refinement, then one path of
# individualization, for graphs with at most one cycle.
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

    A splitter's neighbours are met cell by cell, and the walk stops once
    none is left outside singletons, which never split. A new cell list
    is built only when some cell splits, and the next splitter is sought
    from the first cell that may have changed.
    """
    inert = set(inert)
    multi = 0  # the vertices in cells of two or more
    for cell in cells:
        if cell & (cell - 1):
            multi |= cell
    start = 0  # every cell before it is inert and unchanged since it was a splitter
    while True:
        for s in range(start, len(cells)):
            smask = cells[s]
            if smask in inert:
                continue
            inert.add(smask)
            single = not smask & (smask - 1)
            if single:
                reach = adj[smask.bit_length() - 1] if smask else 0
            else:
                reach = 0
                m = smask
                while m:
                    low = m & -m
                    reach |= adj[low.bit_length() - 1]
                    m ^= low
            todo = reach & multi  # the neighbours not yet met outside singletons
            if not todo:
                continue
            splits = []  # (position, subcells) of each cell that splits
            for i, cell in enumerate(cells):
                if not todo:
                    break
                hit = cell & todo
                if not hit:
                    continue
                todo ^= hit
                if single:  # the counts are 0 and 1
                    if hit != cell:
                        splits.append((i, (cell ^ hit, hit)))
                    continue
                groups = {0: cell ^ hit} if hit != cell else {}
                m = hit
                while m:
                    low = m & -m
                    key = (adj[low.bit_length() - 1] & smask).bit_count()
                    groups[key] = groups.get(key, 0) | low
                    m ^= low
                if len(groups) > 1:
                    splits.append((i, [groups[key] for key in sorted(groups)]))
            if splits:
                new_cells: list[int] = []
                done = 0
                for i, parts in splits:
                    new_cells += cells[done:i]
                    new_cells += parts
                    done = i + 1
                    for part in parts:
                        if not part & (part - 1):
                            multi ^= part
                new_cells += cells[done:]
                cells = new_cells
                start = min(s + 1, splits[0][0])
                break
        else:
            return cells, inert


def _single_path(adj: tuple[int, ...], n: int) -> list[int]:
    """The labeling reached by refining, splitting off the lowest vertex
    of the first non-singleton cell, and repeating: entry i is the vertex
    that takes label i. The null graph starts from no cells.

    The relabeled graph's upper-triangle bits, in graph6's column order,
    are the least over all labelings whenever each such cell is one orbit
    of the automorphisms fixing the current partition. On a graph with at
    most one cycle colour refinement finds that orbit partition
    (canonical_form has the argument; for forests see also Arvind,
    Köbler, Rattan and Verbitsky 2017).

    A twin cell, whose vertices share one neighbour mask (so none is
    adjacent to another), is split into singletons, lowest first, in one
    step. In an equitable partition every other cell lies inside that
    mask or misses it, so splitting off a twin splits nothing else, and
    the vertex-by-vertex loop would reach the same partition.
    """
    cells, inert = [(1 << n) - 1] if n else [], set()
    k = 0  # cells before k are singletons, which refinement leaves in place
    while True:
        cells, inert = _refine(adj, cells, inert)
        while k < len(cells) and not cells[k] & (cells[k] - 1):
            k += 1
        if k == len(cells):
            return [cell.bit_length() - 1 for cell in cells]
        cell = cells[k]
        low = cell & -cell
        row = adj[low.bit_length() - 1]
        split = []
        m = cell
        while m:
            bit = m & -m
            if adj[bit.bit_length() - 1] != row:
                split = [low, cell ^ low]
                break
            split.append(bit)
            m ^= bit
        else:
            inert.update(split)
        cells[k : k + 1] = split


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal for two graphs iff they are isomorphic.

    The bytes are write_graph6 of the graph relabeled along the single
    path, whose upper-triangle bits are the least over all labelings, so
    any canonical form parses back into a representative. The graph must
    have at most one cycle (edge_count <= order - components + 1);
    ValueError otherwise.

    Every such graph takes the single path, which is exact when each
    cell it individualizes from is one orbit of the automorphisms that
    fix the partition so far. Two vertices share a stable colour exactly
    when their coloured universal covers, rooted at them, are isomorphic
    (Angluin 1980):
    - the cover of a connected unicyclic graph is its cycle unrolled
      into a line with period c, with finite trees hanging off it, and
      the line is its only bi-infinite path;
    - so a rooted isomorphism of covers maps the line to itself by a
      shift or a reflection that keeps the colours; reduced mod c that
      is a rotation or reflection of the cycle with its trees, an
      automorphism of the graph taking one root to the other;
    - a tree component has a finite cover and the cycle's component an
      infinite one, so their vertices never share a colour; trees among
      themselves are the forest case (Immerman and Lander 1990).
    Two cycles break the argument: C_3 + C_6 refines to one colour class
    that holds two orbits.
    """
    n = g.order
    rank = g.edge_count - n + sum(1 for _ in _component_masks(g))
    if rank > 1:
        raise ValueError(f"canonical_form needs at most one cycle, got cycle rank {rank}")
    return write_graph6(g, _single_path(g.adj, n)).encode("ascii")
