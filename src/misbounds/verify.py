"""Exhaustive certification of the minimum-MIS lower bounds.

For every order up to a requested maximum, the harness streams the
isomorph-free graphs of a class, buckets them by independence number,
and tracks the minimum MIS count per bucket together with how many
graphs attain it and a canonical witness. Buckets merge by exact
comparison, so worker count and scheduling never change the output;
certificate files are sorted and byte-stable.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .bounds import BoundQuery, ell_seq, tree_bound, unicyclic_bound
from .counting import independence_number, mis_count, mis_count_cycle
from .generate import (
    FOREST_LIMIT,
    TREE_LIMIT,
    UNICYCLIC_LIMIT,
    forests,
    free_trees,
    unicyclic_graphs,
)
from .graphs import Graph, canonical_form, classify

CSV_COLUMNS = (
    "class",
    "n",
    "alpha",
    "bound",
    "min_mis",
    "minimizer_count",
    "witness_graph6",
    "graphs_scanned",
    "status",
)

STATUS_SHARP = "holds_sharp"
STATUS_NOT_SHARP = "holds_not_sharp"
STATUS_VIOLATED = "violated"

_ORDER_LIMITS = {"tree": TREE_LIMIT, "unicyclic": UNICYCLIC_LIMIT, "forest": FOREST_LIMIT}


@dataclass(frozen=True)
class VerificationRecord:
    """Certificate for one (class, n, alpha) cell."""

    graph_class: str
    n: int
    alpha: int
    bound: int
    min_mis: int
    minimizer_count: int
    witness: str
    graphs_scanned: int
    status: str

    def to_dict(self) -> dict:
        return {
            "class": self.graph_class,
            "n": self.n,
            "alpha": self.alpha,
            "bound": self.bound,
            "min_mis": self.min_mis,
            "minimizer_count": self.minimizer_count,
            "witness_graph6": self.witness,
            "graphs_scanned": self.graphs_scanned,
            "status": self.status,
        }


@dataclass
class _Bucket:
    """Minimum count of one alpha, the canonical forms of every graph
    attaining it, and how many graphs were scanned."""

    min_mis: int
    forms: list[str]
    scanned: int


def _class_stream(graph_class: str, n: int) -> Iterator[Graph]:
    if graph_class == "tree":
        return free_trees(n)
    if graph_class == "forest":
        return forests(n)
    if graph_class == "unicyclic":
        return unicyclic_graphs(n)
    raise ValueError(f"unknown graph class {graph_class!r}")


def _scan_slice(
    graph_class: str,
    n: int,
    slice_idx: int,
    slices: int,
) -> dict[int, _Bucket]:
    """One worker's share of a stream: every slices-th graph from slice_idx.

    Each alpha keeps the graphs tied at its running minimum; only those
    left when the slice ends are put in canonical form.
    """
    scanned: dict[int, int] = {}
    tied: dict[int, tuple[int, list[Graph]]] = {}
    for idx, g in enumerate(_class_stream(graph_class, n)):
        if idx % slices != slice_idx:
            continue
        alpha = independence_number(g)
        m = mis_count(g)
        scanned[alpha] = scanned.get(alpha, 0) + 1
        best = tied.get(alpha)
        if best is None or m < best[0]:
            tied[alpha] = (m, [g])
        elif m == best[0]:
            best[1].append(g)
    buckets: dict[int, _Bucket] = {}
    for alpha, (m, graphs) in tied.items():
        forms = [canonical_form(g).decode("ascii") for g in graphs]
        buckets[alpha] = _Bucket(m, forms, scanned[alpha])
    return buckets


def _merge(dst: dict[int, _Bucket], src: dict[int, _Bucket]) -> None:
    for alpha, b in src.items():
        a = dst.setdefault(alpha, _Bucket(b.min_mis, [], 0))
        a.scanned += b.scanned
        if b.min_mis < a.min_mis:
            a.min_mis, a.forms = b.min_mis, []
        if b.min_mis == a.min_mis:
            a.forms += b.forms


def _bound_for(graph_class: str, n: int, alpha: int) -> int:
    q = BoundQuery(graph_class, n, alpha)
    if graph_class == "unicyclic":
        return unicyclic_bound(q)
    return tree_bound(q)


@dataclass
class VerifyResult:
    records: list[VerificationRecord]
    all_witnesses: dict[tuple[str, int, int], list[str]] = field(default_factory=dict)

    @property
    def violations(self) -> list[VerificationRecord]:
        return [r for r in self.records if r.status == STATUS_VIOLATED]


def _verify_class(
    graph_class: str,
    n_values: Iterable[int],
    jobs: int = 1,
) -> VerifyResult:
    n_values = list(n_values)
    limit = _ORDER_LIMITS[graph_class]
    if n_values and max(n_values) > limit:
        raise ValueError(f"order {max(n_values)} above {graph_class} limit {limit}")
    # Output does not depend on the slice count; more workers than cores
    # would only fork idle processes.
    slices = max(1, min(jobs, os.cpu_count() or 1))
    tasks = [(graph_class, n, s, slices) for n in n_values for s in range(slices)]
    if slices == 1:
        partials = [_scan_slice(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=slices) as pool:
            partials = list(pool.map(_scan_slice_star, tasks))
    merged: dict[int, dict[int, _Bucket]] = {}
    for (_, n, _, _), part in zip(tasks, partials):
        _merge(merged.setdefault(n, {}), part)
    result = VerifyResult(records=[])
    for n in sorted(merged):
        for alpha in sorted(merged[n]):
            b = merged[n][alpha]
            forms = sorted(b.forms)
            bound = _bound_for(graph_class, n, alpha)
            if b.min_mis < bound:
                status = STATUS_VIOLATED
            elif b.min_mis == bound:
                status = STATUS_SHARP
            else:
                status = STATUS_NOT_SHARP
            result.records.append(
                VerificationRecord(
                    graph_class=graph_class,
                    n=n,
                    alpha=alpha,
                    bound=bound,
                    min_mis=b.min_mis,
                    minimizer_count=len(forms),
                    witness=forms[0],
                    graphs_scanned=b.scanned,
                    status=status,
                )
            )
            result.all_witnesses[(graph_class, n, alpha)] = forms
    return result


def _scan_slice_star(args: tuple) -> dict[int, _Bucket]:
    return _scan_slice(*args)


def verify_tree_theorem(n_max: int, jobs: int = 1) -> VerifyResult:
    """Check min mis = g(n - alpha) over all trees with 2 <= n <= n_max."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    return _verify_class("tree", range(2, n_max + 1), jobs)


def verify_forest_corollary(n_max: int, jobs: int = 1) -> VerifyResult:
    """Check min mis = g(n - alpha) over all forests with 1 <= n <= n_max."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    return _verify_class("forest", range(1, n_max + 1), jobs)


def verify_unicyclic_theorem(n_max: int, jobs: int = 1) -> VerifyResult:
    """Check min mis = t(n, alpha) over all unicyclic graphs, 3 <= n <= n_max."""
    if n_max < 3:
        raise ValueError("need n_max >= 3")
    return _verify_class("unicyclic", range(3, n_max + 1), jobs)


@dataclass
class Claim1Report:
    """Even-cycle unicyclic graphs all satisfy alpha >= ceil(n/2)."""

    n_max: int
    graphs_checked: int
    violations: list[str] = field(default_factory=list)  # graph6 witnesses

    def to_dict(self) -> dict:
        return {
            "claim": "even_cycle_alpha",
            "n_max": self.n_max,
            "graphs_checked": self.graphs_checked,
            "violations": self.violations,
        }


def verify_claim1(n_max: int) -> Claim1Report:
    if n_max < 4:
        raise ValueError("need n_max >= 4")
    report = Claim1Report(n_max=n_max, graphs_checked=0)
    for n in range(4, n_max + 1):
        need = -(-n // 2)
        for g in unicyclic_graphs(n):
            if classify(g).cycle_parity != "even":
                continue
            report.graphs_checked += 1
            if independence_number(g) < need:
                report.violations.append(canonical_form(g).decode("ascii"))
    return report


@dataclass
class CycleBoundRow:
    n: int
    mis: int
    bound: int

    @property
    def equality(self) -> bool:
        return self.mis == self.bound


@dataclass
class CycleBoundReport:
    """mis(C_n) >= l(floor((n+1)/2)) for 5 <= n <= n_max."""

    n_max: int
    rows: list[CycleBoundRow] = field(default_factory=list)

    @property
    def violations(self) -> list[CycleBoundRow]:
        return [r for r in self.rows if r.mis < r.bound]

    @property
    def equality_orders(self) -> list[int]:
        return [r.n for r in self.rows if r.equality]

    def to_dict(self) -> dict:
        return {
            "claim": "cycle_lower_bound",
            "n_max": self.n_max,
            "rows": [
                {"n": r.n, "mis": r.mis, "bound": r.bound, "equality": r.equality}
                for r in self.rows
            ],
            "violations": [r.n for r in self.violations],
        }


def verify_cycle_bound(n_max: int) -> CycleBoundReport:
    if n_max < 5:
        raise ValueError("need n_max >= 5")
    report = CycleBoundReport(n_max=n_max)
    for n in range(5, n_max + 1):
        report.rows.append(
            CycleBoundRow(n=n, mis=mis_count_cycle(n), bound=ell_seq((n + 1) // 2))
        )
    return report


def _sorted_records(records: Iterable[VerificationRecord]) -> list[VerificationRecord]:
    return sorted(records, key=lambda r: (r.graph_class, r.n, r.alpha))


def records_to_csv(records: Iterable[VerificationRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in _sorted_records(records):
        writer.writerow(
            [
                r.graph_class,
                r.n,
                r.alpha,
                r.bound,
                r.min_mis,
                r.minimizer_count,
                r.witness,
                r.graphs_scanned,
                r.status,
            ]
        )
    return buf.getvalue()


def records_to_json(records: Iterable[VerificationRecord]) -> str:
    return json.dumps([r.to_dict() for r in _sorted_records(records)], indent=2) + "\n"


def records_from_json(text: str) -> list[VerificationRecord]:
    out = []
    for d in json.loads(text):
        out.append(
            VerificationRecord(
                graph_class=d["class"],
                n=d["n"],
                alpha=d["alpha"],
                bound=d["bound"],
                min_mis=d["min_mis"],
                minimizer_count=d["minimizer_count"],
                witness=d["witness_graph6"],
                graphs_scanned=d["graphs_scanned"],
                status=d["status"],
            )
        )
    return out


def write_json(path: str, payload) -> None:
    """Write a report as JSON with a two-space indent and a closing newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def export_certificates(
    records: Iterable[VerificationRecord], path: str, fmt: Optional[str] = None
) -> str:
    """Write sorted certificates as CSV or JSON; format from `fmt` or the
    file extension. Returns the path written."""
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported certificate format {fmt!r}")
    text = records_to_csv(records) if fmt == "csv" else records_to_json(records)
    with open(path, "w") as fh:
        fh.write(text)
    return path
