"""Reference values computed without the misbounds package.

Everything the benchmark compares the program's outputs against comes
from here: OEIS class counts, the bound formula with the benchmark's own
Fibonacci numbers, the Perrin values for cycles, a graph6 codec and
networkx's clique enumerator on the complement.
Nothing here imports misbounds.
"""

from __future__ import annotations

from functools import lru_cache

# Isomorphism classes per order: OEIS A000055 (trees), A001429 (connected
# unicyclic graphs), A005195 (forests, the Euler transform of A000055).
TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
         11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
         17: 48629, 18: 123867}
UNICYCLIC = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657,
             11: 1806, 12: 5026, 13: 13999, 14: 39260}
FORESTS = {1: 1, 2: 2, 3: 3, 4: 6, 5: 10, 6: 20, 7: 37, 8: 76, 9: 153,
           10: 329, 11: 710, 12: 1601, 13: 3658, 14: 8599, 15: 20514,
           16: 49905}
CLASS_COUNTS = {"tree": TREES, "unicyclic": UNICYCLIC, "forest": FORESTS}
CLASS_MIN_N = {"tree": 2, "unicyclic": 3, "forest": 1}


@lru_cache(maxsize=None)
def fib(k: int) -> int:
    """f(0) = 0, f(1) = 1."""
    return k if k < 2 else fib(k - 1) + fib(k - 2)


def bound(graph_class: str, n: int, alpha: int) -> int:
    """The abstract's bound for one (class, n, alpha) cell.

    The unicyclic cases are evaluated exactly as the abstract prints
    them. The tree case is f(n - alpha + 2): with f(0) = 0 it is the
    only shift of the abstract's f(n - alpha) that is sharp (the star
    K_{1,n-1} has n - alpha = 1 and two maximal independent sets).
    Forests share the tree bound.
    """
    p = n - alpha
    if graph_class in ("tree", "forest"):
        return fib(p + 2)
    if graph_class != "unicyclic":
        raise ValueError(graph_class)
    if n == 4 and alpha == 2:
        return 2
    if alpha == n - 2:
        return 3
    if n >= 5 and -(-n // 2) <= alpha < n - 2:
        return 2 * fib(p)
    if n >= 5 and n % 2 == 1 and alpha == n // 2:
        return fib(p + 2) - fib(p - 3)
    raise ValueError(f"no case of the abstract covers (n={n}, alpha={alpha})")


def cycle_mis(n: int) -> int:
    """Perrin numbers 3, 0, 2, 3, 2, 5, ...: mis(C_n) for n >= 3."""
    vals = [3, 0, 2]
    while len(vals) <= n:
        vals.append(vals[-2] + vals[-3])
    return vals[n]


def lemma_tuple_count(limit: int, samples: int = 100_000) -> int:
    """Tuples `misbounds lemmas --limit` checks: the pair lemmas over
    n1 + n2 <= limit (lower ends 0/0, 1/1, 2/0, 3/0, 3/0) plus the
    sampled majorization lemma."""
    def pairs(lo1: int, lo2: int) -> int:
        return sum(max(0, limit - n1 - lo2 + 1) for n1 in range(lo1, limit + 1))

    return pairs(0, 0) + pairs(1, 1) + pairs(2, 0) + pairs(3, 0) * 2 + samples


# ---------------------------------------------------------------------------
# graph6


def to_graph6(n: int, edges) -> str:
    if n > 62:
        raise ValueError("the benchmark only writes orders up to 62")
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def from_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = [(ord(ch) - 63) >> s & 1 for ch in text[1:] for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [pairs[k] for k in range(len(pairs)) if bits[k]]


# ---------------------------------------------------------------------------
# counting


def nx_mis_alpha(n: int, edges) -> tuple[int, int]:
    """(mis, alpha) as networkx sees them: the maximal cliques of the
    complement are the maximal independent sets."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    count = alpha = 0
    for clique in nx.find_cliques(nx.complement(g)):
        count += 1
        alpha = max(alpha, len(clique))
    return count, alpha


def nx_class(n: int, edges) -> str:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    k = nx.number_connected_components(g)
    m = g.number_of_edges()
    if k == 1 and m == n - 1:
        return "tree"
    if k == 1 and m == n:
        return "unicyclic"
    if m == n - k:
        return "forest"
    return "other"
