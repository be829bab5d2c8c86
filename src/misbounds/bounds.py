"""Fibonacci-family sequences and the minimum-MIS lower bounds for
trees, forests, and unicyclic graphs with given order and independence
number, plus exact big-integer sweeps of the supporting sequence
inequalities.

Every value here is an exact Python int (arbitrary precision); no
floating point is used anywhere.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import islice
from typing import Iterator

BigCount = int

LEMMA2_SAMPLES = 100_000
LEMMA2_SEED = 0x5EED
_LEMMA2_VALUE_RANGE = 10_000


def fib(n: int) -> BigCount:
    """nth Fibonacci number: fib(0)=0, fib(1)=1."""
    if n < 0:
        raise ValueError(f"fib undefined for negative {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def g_seq(n: int) -> BigCount:
    """g(n) = fib(n+2); the tree/forest minimum for gap n."""
    if n < 0:
        raise ValueError(f"g_seq undefined for negative {n}")
    return fib(n + 2)


def h_seq(n: int) -> BigCount:
    """h(n) = 2*fib(n); the generic unicyclic minimum for gap n."""
    if n < 0:
        raise ValueError(f"h_seq undefined for negative {n}")
    return 2 * fib(n)


def ell_seq(n: int) -> BigCount:
    """l(n) = fib(n+2) - fib(n-3), defined for n >= 3.

    Satisfies l(n) = l(n-1) + l(n-2) for n >= 5 and also
    l(n) = 2*fib(n) + fib(n-2) >= h(n).
    """
    if n < 3:
        raise ValueError(f"ell_seq requires n >= 3, got {n}")
    return fib(n + 2) - fib(n - 3)


@dataclass(frozen=True)
class BoundQuery:
    """A (class, order, independence number) triple naming one bound cell."""

    graph_class: str  # tree | forest | unicyclic
    n: int
    alpha: int

    @property
    def p(self) -> int:
        return self.n - self.alpha

    def validate(self) -> None:
        cls, n, a = self.graph_class, self.n, self.alpha
        if cls == "tree":
            if n < 1:
                raise ValueError("trees have order >= 1")
            lo, hi = (-(-n // 2), n - 1) if n >= 2 else (1, 1)
            if not lo <= a <= hi:
                raise ValueError(f"infeasible tree pair (n={n}, alpha={a})")
        elif cls == "forest":
            if n < 0 or not -(-n // 2) <= a <= n:
                raise ValueError(f"infeasible forest pair (n={n}, alpha={a})")
        elif cls == "unicyclic":
            if n < 3 or not n // 2 <= a <= n - 2:
                raise ValueError(f"infeasible unicyclic pair (n={n}, alpha={a})")
        else:
            raise ValueError(f"unknown graph class {cls!r}")


def tree_bound(q: BoundQuery) -> BigCount:
    """Minimum MIS count over trees (or forests) with q's order and alpha.

    Equals g(n - alpha) for both classes.
    """
    if q.graph_class not in ("tree", "forest"):
        raise ValueError(f"tree_bound got class {q.graph_class!r}")
    q.validate()
    return g_seq(q.p)


def unicyclic_bound(q: BoundQuery) -> BigCount:
    """Minimum MIS count over unicyclic graphs with q's order and alpha.

    Piecewise: 2 for (n=4, alpha=2); 3 for alpha=n-2 with n != 4;
    l(n-alpha) for odd n >= 5 with alpha = floor(n/2); h(n-alpha) for
    n >= 5 with ceil(n/2) <= alpha < n-2. The guards are mutually
    exclusive, so at most one fires for any feasible pair.
    """
    if q.graph_class != "unicyclic":
        raise ValueError(f"unicyclic_bound got class {q.graph_class!r}")
    q.validate()
    n, a = q.n, q.alpha
    if n == 4 and a == 2:
        return 2
    if a == n - 2 and n != 4:
        return 3
    if n >= 5 and n % 2 == 1 and a == n // 2:
        return ell_seq(n - a)
    if n >= 5 and -(-n // 2) <= a < n - 2:
        return h_seq(n - a)
    raise ValueError(f"no bound case covers (n={n}, alpha={a})")


def bound(q: BoundQuery) -> BigCount:
    """Minimum MIS count over q's class with q's order and alpha."""
    return unicyclic_bound(q) if q.graph_class == "unicyclic" else tree_bound(q)


def majorizes(a: tuple[BigCount, BigCount], b: tuple[BigCount, BigCount]) -> bool:
    """(a1,a2) majorizes (b1,b2) iff a1 >= b1 and a1+a2 >= b1+b2."""
    return a[0] >= b[0] and a[0] + a[1] >= b[0] + b[1]


@dataclass
class LemmaSweep:
    """Result of exhaustively (or sampled) checking one sequence lemma."""

    lemma: str
    tuples_checked: int
    violations: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _sweep_pairs(name, lo1, lo2, limit, check) -> LemmaSweep:
    sweep = LemmaSweep(lemma=name, tuples_checked=0)
    for n1 in range(lo1, limit + 1):
        for n2 in range(lo2, limit - n1 + 1):
            sweep.tuples_checked += 1
            if not check(n1, n2):
                sweep.violations.append({"n1": n1, "n2": n2})
    return sweep


def check_lemma_limit(limit: int) -> None:
    if limit < 5:
        raise ValueError("limit must be at least 5")


def sweep_sequence_lemmas(
    limit: int,
    samples: int = LEMMA2_SAMPLES,
    seed: int = LEMMA2_SEED,
) -> list[LemmaSweep]:
    """Exact checks of the product/identity inequalities for g, h, l.

    Pair lemmas are enumerated over all in-range (n1, n2) with
    n1 + n2 <= limit, reading g, h and l from tables built once. The
    eight-variable majorization-product lemma is checked on
    pseudo-random tuples satisfying its hypotheses, with a fixed seed so
    runs are reproducible.
    """
    check_lemma_limit(limit)
    g = [g_seq(i) for i in range(limit + 2)]
    h = [h_seq(i) for i in range(limit + 1)]
    ell = [None] * 3 + [ell_seq(i) for i in range(3, limit + 1)]
    sweeps = [
        _sweep_pairs(
            "lemma1_product", 0, 0, limit,
            lambda n1, n2: g[n1] * g[n2] >= g[n1 + n2],
        ),
        _sweep_pairs(
            "lemma1_identity", 1, 1, limit,
            lambda n1, n2: g[n1] * g[n2] + g[n1 - 1] * g[n2 - 1] == g[n1 + n2 + 1],
        ),
        _sweep_lemma2(samples, seed),
        _sweep_pairs(
            "lemma5", 2, 0, limit,
            lambda n1, n2: h[n1] * g[n2] >= h[n1 + n2],
        ),
        _sweep_pairs(
            "lemma6", 3, 0, limit,
            lambda n1, n2: ell[n1] * g[n2] >= ell[n1 + n2],
        ),
        _sweep_pairs(
            "lemma10", 3, 0, limit,
            lambda n1, n2: ell[n1] * 2**n2 >= ell[n1 + n2],
        ),
    ]
    return sweeps


def _lemma2_tuples(samples: int, seed: int) -> Iterator[tuple[int, ...]]:
    """(a, b, c, d, e, f, g, h) for lemma 2: c >= d, a >= c, a + b >= c + d
    and the same for (e, f, g, h), built from eight uniform draws below
    _LEMMA2_VALUE_RANGE each. A draw is what rng.randrange(M) gives: it
    takes M.bit_length() random bits and draws again while they are at
    least M."""
    M = _LEMMA2_VALUE_RANGE
    draws = filter(M.__gt__, iter(partial(random.Random(seed).getrandbits, M.bit_length()), -1))
    for d, c, a, b, h, g, e, f in islice(zip(*[draws] * 8), samples):
        c += d
        a += c
        b += max(0, c + d - a)
        g += h
        e += g
        f += max(0, g + h - e)
        yield a, b, c, d, e, f, g, h


def _sweep_lemma2(samples: int, seed: int) -> LemmaSweep:
    sweep = LemmaSweep(lemma="lemma2_majorization", tuples_checked=0)
    for a, b, c, d, e, f, g, h in _lemma2_tuples(samples, seed):
        sweep.tuples_checked += 1
        if not majorizes((a * e, b * f), (c * g, d * h)):
            sweep.violations.append(
                {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f, "g": g, "h": h}
            )
    return sweep
