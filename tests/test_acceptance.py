"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
per-criterion timings. Every assertion is exact; there are no
tolerances anywhere.
"""

from __future__ import annotations

import hashlib
import random
import time
from itertools import combinations

import pytest

from misbounds.bounds import (
    BoundQuery,
    ell_seq,
    fib,
    g_seq,
    h_seq,
    sweep_sequence_lemmas,
    unicyclic_bound,
)
from misbounds.counting import (
    _clique_walk,
    independence_number,
    mis_count,
)
from misbounds.extremal import build_H, build_L, build_T
from misbounds.generate import forests, free_trees, unicyclic_graphs
from misbounds.graphs import make_graph, parse_graph6, write_graph6
from misbounds.verify import (
    records_to_csv,
    verify_claim1,
    verify_forest_corollary,
    verify_tree_theorem,
    verify_unicyclic_theorem,
)

from oracle_helpers import (
    brute_alpha,
    mis_count_bruteforce,
    grown_forest_classes,
    grown_tree_classes,
    grown_unicyclic_classes,
    labeled_forest_classes,
    labeled_tree_classes,
    labeled_unicyclic_classes,
    mis_count_cycle,
)

RANDOM_SEED = 987654321
JOBS = 2

# sha256 of records_to_csv(...) for trees <= 14, unicyclic <= 12 and
# forests <= 12: the tree.csv, unicyclic.csv and forest.csv that
# scripts/run_certification.py writes at its defaults. A change to any
# counting route must leave these certificates byte-identical.
GOLDEN_CSV_SHA256 = {
    "tree": "63784994cfe14b9d7064d279aba7eec9b8fd7309e2d857d5d3222463e579493b",
    "unicyclic": "a9062c82c35b0aab834ebd46f19483e62968a6a8569142f290b224f78ec0f274",
    "forest": "25d4a006c8572f445234bdb8e7d15e06c97d37525912232c68fe4ea52c54051c",
}


def _csv_sha256(records) -> str:
    return hashlib.sha256(records_to_csv(records).encode("ascii")).hexdigest()


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_tree_theorem_desk_scale(capsys):
    from misbounds.cli import main

    t0 = time.time()
    code = main(["verify", "--class", "tree", "--max-n", "14", "--jobs", str(JOBS)])
    cli_out = capsys.readouterr().out
    cli_ok = code == 0 and cli_out.splitlines()[-1] == "violations=0"
    res = verify_tree_theorem(14, jobs=JOBS)
    elapsed = time.time() - t0
    scanned = sum(r.graphs_scanned for r in res.records)
    golden_ok = _csv_sha256(res.records) == GOLDEN_CSV_SHA256["tree"]
    ok = (
        cli_ok
        and golden_ok
        and not res.violations
        and all(
            r.status == "holds_sharp" and r.min_mis == g_seq(r.n - r.alpha)
            for r in res.records
        )
    )
    _report(
        1,
        ok,
        f"trees n<=14: {scanned} trees, {len(res.records)} cells, "
        f"0 violations, all sharp, exit 0, golden csv {golden_ok}, {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 300


def test_criterion_02_unicyclic_theorem_desk_scale():
    t0 = time.time()
    res = verify_unicyclic_theorem(12, jobs=JOBS)
    elapsed = time.time() - t0
    cell = {(r.n, r.alpha): r for r in res.records}
    boundary_ok = cell[(4, 2)].min_mis == 2
    for n in range(3, 13):
        if n != 4:
            boundary_ok &= cell[(n, n - 2)].min_mis == 3
    for n in range(5, 13, 2):
        boundary_ok &= cell[(n, n // 2)].min_mis == ell_seq((n + 1) // 2)
    golden_ok = _csv_sha256(res.records) == GOLDEN_CSV_SHA256["unicyclic"]
    ok = (
        not res.violations
        and boundary_ok
        and golden_ok
        and all(
            r.status == "holds_sharp"
            and r.min_mis == unicyclic_bound(BoundQuery("unicyclic", r.n, r.alpha))
            for r in res.records
        )
    )
    scanned = sum(r.graphs_scanned for r in res.records)
    _report(
        2,
        ok,
        f"unicyclic n<=12: {scanned} graphs, {len(res.records)} cells, "
        f"0 violations, boundary cells exact, golden csv {golden_ok}, {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 600


def test_criterion_03_forest_corollary():
    res = verify_forest_corollary(12, jobs=JOBS)
    golden_ok = _csv_sha256(res.records) == GOLDEN_CSV_SHA256["forest"]
    ok = golden_ok and not res.violations and all(
        r.status == "holds_sharp" and r.min_mis == g_seq(r.n - r.alpha)
        for r in res.records
    )
    _report(
        3,
        ok,
        f"forests n<=12: {len(res.records)} cells, min mis = g(n-alpha), "
        f"golden csv {golden_ok}",
    )
    assert ok


def test_criterion_04_extremal_identities():
    bad = []
    for n in range(2, 41):
        for alpha in range(-(-n // 2), n):
            t = build_T(n, alpha)
            if mis_count(t) != g_seq(n - alpha) or independence_number(t) != alpha:
                bad.append(("T", n, alpha))
    for n in range(6, 41):
        for alpha in range(-(-n // 2), n - 2):
            h = build_H(n, alpha)
            if mis_count(h) != h_seq(n - alpha) or independence_number(h) != alpha:
                bad.append(("H", n, alpha))
    for n in range(7, 42, 2):
        l = build_L(n)
        if mis_count(l) != ell_seq((n + 1) // 2) or independence_number(l) != n // 2:
            bad.append(("L", n))
    ok = not bad
    _report(4, ok, f"extremal identities exact to n=40/41; mismatches: {bad}")
    assert ok


def test_criterion_05_cycle_values():
    small_ok = [mis_count_cycle(n) for n in range(3, 8)] == [3, 2, 5, 5, 7]
    brute_ok = all(
        mis_count_cycle(n)
        == mis_count_bruteforce(make_graph(n, [(i, (i + 1) % n) for i in range(n)]))
        for n in range(3, 23)
    )
    holds_ok = all(
        mis_count_cycle(n) >= ell_seq((n + 1) // 2) for n in range(5, 41)
    )
    equality_orders = [
        n for n in range(5, 41) if mis_count_cycle(n) == ell_seq((n + 1) // 2)
    ]
    exact_ok = equality_orders == [5, 6, 7, 9]
    # n = 9 belongs for reasons that share no code with the recurrence:
    # the 2^9 oracle counts 12 maximal independent sets in C_9, and
    # l(5) = f(7) - f(2) = 12. Since alpha(C_9) = 4 = floor(9/2), C_9 lies
    # in the odd cell (9, 4) of the unicyclic theorem and attains its bound.
    c9 = make_graph(9, [(i, (i + 1) % 9) for i in range(9)])
    c9_ok = (
        mis_count_bruteforce(c9) == 12
        and fib(7) - fib(2) == 12
        and independence_number(c9) == 4
        and unicyclic_bound(BoundQuery("unicyclic", 9, 4)) == 12
    )
    ok = small_ok and brute_ok and holds_ok and exact_ok and c9_ok
    _report(
        5,
        ok,
        "cycle values 3,2,5,5,7; recurrence == brute force n<=22: "
        f"{brute_ok}; bound holds 5..40: {holds_ok}; equality orders "
        f"{equality_orders} == [5, 6, 7, 9]: {exact_ok}; C_9 meets the "
        f"odd-cell bound at (9, 4) with 12 sets: {c9_ok}",
    )
    assert small_ok
    assert brute_ok
    assert holds_ok
    assert exact_ok, f"equality orders {equality_orders}, expected [5, 6, 7, 9]"
    assert c9_ok


def test_criterion_06_oracle_equivalence():
    checked = 0
    bad = 0

    def check(g):
        nonlocal checked, bad
        checked += 1
        want = mis_count_bruteforce(g), brute_alpha(g)
        if (mis_count(g), independence_number(g)) != want or _clique_walk(g) != want:
            bad += 1

    for n in range(1, 11):
        for t in free_trees(n):
            check(t)
    for n in range(3, 11):
        for g in unicyclic_graphs(n):
            check(g)
    rng = random.Random(RANDOM_SEED)
    densities = (0.2, 0.5, 0.8)
    for i in range(500):
        n = rng.randint(1, 12)
        p = densities[i % 3]
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        check(make_graph(n, edges))
    ok = bad == 0
    _report(6, ok, f"{checked} graphs, {bad} discrepancies against the brute-force oracles")
    assert ok


def test_criterion_07_sequence_lemma_sweep():
    sweeps = sweep_sequence_lemmas(60)
    total = sum(s.tuples_checked for s in sweeps)
    bad = sum(len(s.violations) for s in sweeps)
    lemma2 = next(s for s in sweeps if s.lemma == "lemma2_majorization")
    ok = bad == 0 and lemma2.tuples_checked == 100_000 and len(sweeps) == 6
    _report(7, ok, f"limit=60: {total} tuples over 6 lemma checks, {bad} violations")
    assert ok


def test_criterion_08_even_cycle_alpha():
    rep = verify_claim1(12)
    ok = not rep.violations
    _report(
        8,
        ok,
        f"even-cycle unicyclic n<=12: {rep.graphs_checked} graphs, "
        f"alpha >= ceil(n/2) throughout",
    )
    assert ok


def test_criterion_09_enumeration_cross_validation():
    from misbounds.graphs import canonical_form

    mismatches = []
    # trees: literal labeled oracle to n=7, levelwise labeled growth to n=9
    grown = grown_tree_classes(9)
    for n in range(1, 10):
        stream = {canonical_form(t) for t in free_trees(n)}
        oracle = labeled_tree_classes(n) if n <= 7 else grown[n]
        if stream != oracle:
            mismatches.append(("tree", n, len(stream), len(oracle)))
    grown_u = grown_unicyclic_classes(8)
    for n in range(3, 9):
        stream = {canonical_form(g) for g in unicyclic_graphs(n)}
        oracle = labeled_unicyclic_classes(n) if n <= 6 else grown_u[n]
        if stream != oracle:
            mismatches.append(("unicyclic", n, len(stream), len(oracle)))
    grown_f = grown_forest_classes(8)
    for n in range(1, 9):
        stream = {canonical_form(g) for g in forests(n)}
        oracle = labeled_forest_classes(n) if n <= 6 else grown_f[n]
        if stream != oracle:
            mismatches.append(("forest", n, len(stream), len(oracle)))
    ok = not mismatches
    _report(
        9,
        ok,
        "trees n<=9, unicyclic/forests n<=8 equal the labeled-generation "
        f"dedup oracle; mismatches: {mismatches}",
    )
    assert ok


def test_criterion_10_determinism():
    c1 = records_to_csv(verify_tree_theorem(10, jobs=1).records)
    c8 = records_to_csv(verify_tree_theorem(10, jobs=8).records)
    u1 = records_to_csv(verify_unicyclic_theorem(9, jobs=1).records)
    u8 = records_to_csv(verify_unicyclic_theorem(9, jobs=8).records)
    certs_ok = c1 == c8 and u1 == u8
    round_trip_bad = 0
    streams = (
        [t for n in range(1, 13) for t in free_trees(n)]
        + [g for n in range(3, 11) for g in unicyclic_graphs(n)]
        + [f for n in range(1, 11) for f in forests(n)]
    )
    for g in streams:
        if parse_graph6(write_graph6(g)) != g:
            round_trip_bad += 1
    ok = certs_ok and round_trip_bad == 0
    _report(
        10,
        ok,
        f"certificates byte-identical across jobs 1/8: {certs_ok}; "
        f"graph6 round-trip exact on {len(streams)} enumerated graphs "
        f"({round_trip_bad} failures)",
    )
    assert ok
