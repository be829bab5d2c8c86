"""Exhaustive certification of the minimum-MIS lower bounds.

For every order up to a requested maximum, the harness streams the
isomorph-free graphs of a class, buckets them by independence number,
and tracks the minimum MIS count per bucket together with how many
graphs attain it and a canonical witness. Each order is scanned whole
by one worker, so worker count and scheduling never change the output;
certificate files are sorted and byte-stable.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Optional

from .bounds import BoundQuery, ell_seq, tree_bound, unicyclic_bound
from .counting import independence_number, mis_count_cycle, shape_mis_alpha
from .counting import mis_count  # noqa: F401  bench/child.py traces verify.mis_count
from .generate import (
    FOREST_LIMIT,
    TREE_LIMIT,
    UNICYCLIC_LIMIT,
    GenerationTask,
    shape_graph,
    shape_stream,
    unicyclic_graphs,
)
from .generate import forests, free_trees  # noqa: F401  bench/child.py traces both
from .graphs import canonical_form

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
    """Minimum count of one alpha, the sorted canonical forms of every
    graph attaining it, and how many graphs were scanned."""

    min_mis: int
    forms: list[str]
    scanned: int


def _scan_order(graph_class: str, n: int) -> dict[int, _Bucket]:
    """Scan every shape of one order, bucketed by alpha.

    Each shape is counted without building its graph. Each alpha keeps
    the shapes tied at its running minimum; only those left at the end
    of the order are built and put in canonical form.
    """
    scanned: dict[int, int] = {}
    tied: dict[int, tuple[int, list[tuple]]] = {}
    for shape in shape_stream(GenerationTask(graph_class, n)):
        m, alpha = shape_mis_alpha(graph_class, shape)
        scanned[alpha] = scanned.get(alpha, 0) + 1
        best = tied.get(alpha)
        if best is None or m < best[0]:
            tied[alpha] = (m, [shape])
        elif m == best[0]:
            best[1].append(shape)
    buckets: dict[int, _Bucket] = {}
    for alpha, (m, survivors) in tied.items():
        forms = [canonical_form(shape_graph(graph_class, s)).decode("ascii") for s in survivors]
        buckets[alpha] = _Bucket(m, sorted(forms), scanned[alpha])
    return buckets


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
    # One whole order per task, largest first so that the dominant top
    # order starts first; more workers than cores or orders would idle.
    workers = min(jobs, os.cpu_count() or 1, len(n_values))
    if workers <= 1:
        orders = n_values
        scans = map(_scan_order, repeat(graph_class), orders)
    else:
        orders = sorted(n_values, reverse=True)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scans = list(pool.map(_scan_order, repeat(graph_class), orders))
    buckets_by_n = dict(zip(orders, scans))
    result = VerifyResult(records=[])
    for n in sorted(buckets_by_n):
        for alpha, b in sorted(buckets_by_n[n].items()):
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
                    minimizer_count=len(b.forms),
                    witness=b.forms[0],
                    graphs_scanned=b.scanned,
                    status=status,
                )
            )
            result.all_witnesses[(graph_class, n, alpha)] = b.forms
    return result


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
        for c in range(4, n + 1, 2):
            for g in unicyclic_graphs(n, cycle=c):
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
