"""Correctness checks on the program's outputs.

Each check returns a list of problems (empty when the output is right).
The expected values come from bench/reference.py, never from misbounds.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import reference

CSV_COLUMNS = ["class", "n", "alpha", "bound", "min_mis", "minimizer_count",
               "witness_graph6", "graphs_scanned", "status"]
CLASS_FILES = [f"{cls}.{ext}" for cls in ("tree", "unicyclic", "forest") for ext in ("csv", "json")]


def class_certificate(cls: str, n_max: int, csv_text: str,
                      json_text: str | None = None) -> tuple[list[str], set[int], int]:
    """Check one class's certificate: OEIS totals per order, the bound
    formula, sharpness, every witness recounted by networkx, and (when
    given) that the JSON certificate holds the same records.

    Returns (problems, orders present, minimizers summed over cells)."""
    problems: list[str] = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != CSV_COLUMNS:
        return [f"{cls}: unexpected CSV header {rows[:1]}"], set(), 0
    records = [dict(zip(CSV_COLUMNS, r)) for r in rows[1:]]
    if json_text is not None and records != [
            {k: str(v) for k, v in d.items()} for d in json.loads(json_text)]:
        problems.append(f"{cls}: the JSON certificate differs from the CSV one")
    scanned: dict[int, int] = {}
    minimizers = 0
    for r in records:
        n, alpha = int(r["n"]), int(r["alpha"])
        where = f"{cls} n={n} alpha={alpha}"
        scanned[n] = scanned.get(n, 0) + int(r["graphs_scanned"])
        minimizers += int(r["minimizer_count"])
        if r["class"] != cls:
            problems.append(f"{where}: class column {r['class']!r}")
        try:
            want = reference.bound(cls, n, alpha)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if int(r["bound"]) != want:
            problems.append(f"{where}: bound {r['bound']}, formula gives {want}")
        if r["status"] != "holds_sharp" or int(r["min_mis"]) != want:
            problems.append(f"{where}: min_mis {r['min_mis']} status {r['status']}, bound {want}")
        wn, edges = reference.from_graph6(r["witness_graph6"])
        wcls = reference.nx_class(wn, edges)
        if wn != n or not (wcls == cls or (cls == "forest" and wcls == "tree")):
            problems.append(f"{where}: witness is a {wcls} on {wn} vertices")
            continue
        mis, walpha = reference.nx_mis_alpha(wn, edges)
        if (mis, walpha) != (int(r["min_mis"]), alpha):
            problems.append(f"{where}: witness has mis {mis}, alpha {walpha}")
    want_orders = set(range(reference.CLASS_MIN_N[cls], n_max + 1))
    for n in sorted(want_orders & set(scanned)):
        if scanned[n] != reference.CLASS_COUNTS[cls][n]:
            problems.append(f"{cls} n={n}: {scanned[n]} graphs scanned, OEIS has "
                            f"{reference.CLASS_COUNTS[cls][n]}")
    extra = set(scanned) - want_orders
    if extra:
        problems.append(f"{cls}: orders {sorted(extra)} outside the scope")
    return problems, set(scanned) & want_orders, minimizers


def certificate_dir(out: Path, classes) -> tuple[list[str], int, dict[str, int]]:
    """Check the class certificates in `out`. Returns (problems, scans that
    produced no rows, minimizers per class)."""
    problems: list[str] = []
    missing = 0
    minimizers = {}
    for cls, n_max in classes:
        want = n_max - reference.CLASS_MIN_N[cls] + 1
        try:
            csv_text = (out / f"{cls}.csv").read_text()
            json_text = (out / f"{cls}.json").read_text()
        except OSError as exc:
            problems.append(f"{cls}: {exc}")
            missing += want
            continue
        found, orders, minimizers[cls] = class_certificate(cls, n_max, csv_text, json_text)
        problems += found
        missing += want - len(orders)
    return problems, missing, minimizers


def identical(a: Path, b: Path, names=CLASS_FILES) -> list[str]:
    problems = []
    for name in names:
        try:
            same = (a / name).read_bytes() == (b / name).read_bytes()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if not same:
            problems.append(f"{name}: {a.name} and {b.name} differ")
    return problems


def claim1(payload: dict, n_max: int) -> list[str]:
    if payload.get("n_max") != n_max or payload.get("violations") != []:
        return [f"claim1: {payload.get('violations')!r} at n_max {payload.get('n_max')}"]
    if not payload.get("graphs_checked"):
        return ["claim1: no graphs checked"]
    return []


def cycle_bound(payload: dict, n_max: int) -> list[str]:
    problems = []
    rows = payload.get("rows", [])
    if [r["n"] for r in rows] != list(range(5, n_max + 1)):
        problems.append("cycles: orders do not run 5..n_max")
    for r in rows:
        k = (r["n"] + 1) // 2
        want = (reference.cycle_mis(r["n"]), reference.fib(k + 2) - reference.fib(k - 3))
        if (r["mis"], r["bound"]) != want or r["equality"] != (want[0] == want[1]):
            problems.append(f"cycles n={r['n']}: {r}, expected mis/bound {want}")
    if payload.get("violations") != []:
        problems.append(f"cycles: violations {payload.get('violations')}")
    return problems


def lemmas(payload: list, limit: int) -> list[str]:
    total = sum(s["tuples_checked"] for s in payload)
    problems = [f"lemma {s['lemma']}: {len(s['violations'])} violations"
                for s in payload if s["violations"]]
    if total != reference.lemma_tuple_count(limit):
        problems.append(f"lemmas: {total} tuples, expected {reference.lemma_tuple_count(limit)}")
    return problems


def extras_dir(out: Path, scope: dict) -> tuple[list[str], int]:
    """Check claim1, cycle-bound and lemma reports. Returns (problems,
    reports missing)."""
    problems: list[str] = []
    missing = 0
    for name, check, arg in (("claim1.json", claim1, scope["claim1"]),
                             ("cycle_bound.json", cycle_bound, scope["cycles"]),
                             ("lemma_sweep.json", lemmas, scope["lemmas"])):
        try:
            payload = json.loads((out / name).read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            missing += 1
            continue
        problems += check(payload, arg)
    return problems, missing


def counts(entries, count_text: str, alpha_text: str) -> tuple[list[str], int]:
    """Compare `count` and `alpha` output lines with the expected values.
    Returns (problems, graphs with a missing line)."""
    got_mis = count_text.split()
    got_alpha = alpha_text.split()
    problems = []
    missing = 0
    for i, e in enumerate(entries):
        if i >= len(got_mis) or i >= len(got_alpha):
            missing += 1
            continue
        if got_mis[i] != str(e.mis) or got_alpha[i] != str(e.alpha):
            problems.append(f"{e.label}: printed mis {got_mis[i]} alpha {got_alpha[i]}, "
                            f"expected {e.mis} and {e.alpha}")
    if len(got_mis) > len(entries) or len(got_alpha) > len(entries):
        problems.append("more output lines than graphs")
    return problems, missing
