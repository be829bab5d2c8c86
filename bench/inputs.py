"""Seeded input lists for the dense-count workload.

A run processes chunks 0, 1, 2, ... until its time is up. Every chunk
has the same make-up; chunk i of seed s is drawn from
random.Random(s * 1_000_003 + i), so the same seed always gives the
same graphs. `entries` adds the values the program must print, computed
with networkx and without misbounds; the benchmark calls it after the
timed loop, so the reference work does not eat into a run's seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference


@dataclass(frozen=True)
class Drawn:
    label: str
    n: int
    edges: tuple

    @property
    def graph6(self) -> str:
        return reference.to_graph6(self.n, self.edges)


@dataclass(frozen=True)
class Entry:
    label: str
    graph6: str
    mis: int
    alpha: int


@dataclass(frozen=True)
class DenseScope:
    # Connected G(n, p) with more than n edges: neither a forest nor unicyclic.
    # Mid-sized graphs (2,000 to 20,000 maximal sets): the cost of G(n, p)
    # varies by 10-20% between draws, so many moderate graphs give a
    # steadier rate than a few large ones.
    schedule: tuple = (
        (30, 0.30), (35, 0.25), (40, 0.25), (45, 0.25), (45, 0.20),
        (50, 0.30), (50, 0.25), (55, 0.30), (55, 0.28), (50, 0.20),
    )


SMOKE_DENSE = DenseScope(schedule=((12, 0.4), (15, 0.3), (18, 0.25)))


def chunk_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def dense_chunk(seed: int, index: int, scope: DenseScope) -> list[Drawn]:
    rng = chunk_rng(seed, index)
    return [Drawn(f"G({n},{p})#{k}", n, tuple(_connected_gnp(rng, n, p)))
            for k, (n, p) in enumerate(scope.schedule)]


def entries(chunk: list[Drawn]) -> list[Entry]:
    return [Entry(d.label, d.graph6, *reference.nx_mis_alpha(d.n, d.edges)) for d in chunk]


def _connected_gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if len(edges) > n and _connected(n, edges):
            return edges


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n
