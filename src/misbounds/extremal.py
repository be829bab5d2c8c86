"""Constructors for the sharpness-witness families.

Each family attains its class's minimum MIS count at the given order
and independence number:

- T: a caterpillar tree hitting g(n - alpha),
- H: a 4-cycle with a pendant caterpillar hitting h(n - alpha),
- L: a 7-cycle with a pendant caterpillar hitting l((n+1)/2),
- triangle_star: a triangle with extra leaves on one vertex (value 3),
- star and cycle: the classical boundary graphs.

Labelings are fixed (cycle, then spine, then pendants, then the leaf
bundle) so graph6 output is reproducible byte for byte.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bounds import ell_seq, g_seq, h_seq
from .counting import mis_count
from .graphs import Graph, make_graph


class ExtremalSpec(NamedTuple):
    """Which family to build; alpha is given for T and H and only for them."""

    family: str
    n: int
    alpha: Optional[int] = None


def build_T(n: int, alpha: int) -> Graph:
    """Caterpillar tree of order n with independence number alpha.

    A spine path of n-alpha-1 vertices, each carrying one pendant leaf,
    ends in a hub carrying 2*alpha-n+1 leaves. Spine vertices come
    first (indices 0..k-1), then the hub, the spine pendants, and the
    hub's leaf bundle. With alpha = n-1 the spine is empty and the
    graph degenerates to the star.
    """
    if n < 2 or not -(-n // 2) <= alpha <= n - 1:
        raise ValueError(f"infeasible tree pair (n={n}, alpha={alpha})")
    k = n - alpha - 1
    bundle = 2 * alpha - n + 1
    hub = k
    edges = [(i, i + 1) for i in range(k - 1)]
    if k >= 1:
        edges.append((k - 1, hub))
    edges += [(i, hub + 1 + i) for i in range(k)]
    edges += [(hub, 2 * k + 1 + j) for j in range(bundle)]
    return make_graph(n, edges)


def build_H(n: int, alpha: int) -> Graph:
    """Unicyclic witness for the h(n - alpha) bound.

    A 4-cycle (vertices 0..3), a hub (4) joined to cycle vertex 0 and
    carrying 2*alpha-n+1 leaves, and from the hub a spine of
    n-alpha-3 vertices each with one pendant leaf.
    """
    if n < 6 or not -(-n // 2) <= alpha < n - 2:
        raise ValueError(f"infeasible pair (n={n}, alpha={alpha}) for this family")
    m = n - alpha - 3
    bundle = 2 * alpha - n + 1
    hub = 4
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, hub)]
    edges += [(hub + i, hub + i + 1) for i in range(m)]
    edges += [(4 + i, 4 + m + i) for i in range(1, m + 1)]
    edges += [(hub, 4 + 2 * m + j) for j in range(1, bundle + 1)]
    return make_graph(n, edges)


def build_L(n: int) -> Graph:
    """Unicyclic witness for the l((n+1)/2) bound at odd n.

    A 7-cycle (vertices 0..6) with a spine of (n-7)/2 vertices hanging
    off cycle vertex 0, each spine vertex carrying one pendant leaf.
    n = 7 degenerates to the bare 7-cycle.
    """
    if n < 7 or n % 2 == 0:
        raise ValueError(f"this family needs odd n >= 7, got {n}")
    m = (n - 7) // 2
    edges = [(i, (i + 1) % 7) for i in range(7)]
    if m:
        edges.append((0, 7))
        edges += [(6 + i, 6 + i + 1) for i in range(1, m)]
        edges += [(6 + i, 6 + m + i) for i in range(1, m + 1)]
    return make_graph(n, edges)


def build_triangle_star(n: int) -> Graph:
    """Triangle with n-3 extra leaves on one vertex; alpha = n-2, MIS = 3."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    edges = [(0, 1), (1, 2), (0, 2)] + [(0, i) for i in range(3, n)]
    return make_graph(n, edges)


def build_star(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    if n < 1:
        raise ValueError(f"stars need n >= 1, got {n}")
    return make_graph(n, [(0, i) for i in range(1, n)])


def build_cycle(n: int) -> Graph:
    """C_n on vertices 0..n-1 in ring order."""
    if n < 3:
        raise ValueError(f"cycles need n >= 3, got {n}")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def build_family(spec: ExtremalSpec) -> Graph:
    """The family member spec names. T and H need an alpha; the other
    families fix alpha by n, so an alpha given for them is refused."""
    fam = spec.family
    if fam in ("T", "H") and spec.alpha is None:
        raise ValueError(f"family {fam} needs an independence number")
    if fam in ("L", "star", "cycle", "triangle_star") and spec.alpha is not None:
        raise ValueError(f"family {fam} fixes alpha by n; give no independence number")
    if fam == "T":
        return build_T(spec.n, spec.alpha)
    if fam == "H":
        return build_H(spec.n, spec.alpha)
    if fam == "L":
        return build_L(spec.n)
    if fam == "star":
        return build_star(spec.n)
    if fam == "cycle":
        return build_cycle(spec.n)
    if fam == "triangle_star":
        return build_triangle_star(spec.n)
    raise ValueError(f"unknown family {fam!r}")


def predicted_mis(spec: ExtremalSpec) -> int:
    """The MIS count each family is built to attain."""
    g = build_family(spec)  # raises for an infeasible spec
    fam, n = spec.family, spec.n
    if fam == "T":
        return g_seq(n - spec.alpha)
    if fam == "H":
        return h_seq(n - spec.alpha)
    if fam == "L":
        return ell_seq((n + 1) // 2)
    if fam == "star":
        return 2 if n >= 2 else 1
    if fam == "cycle":
        return mis_count(g)
    return 3  # triangle_star
