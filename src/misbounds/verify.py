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
from dataclasses import asdict, astuple, dataclass, field
from itertools import repeat
from typing import Iterable

from .bounds import BoundQuery, ell_seq, tree_bound, unicyclic_bound
from .counting import independence_number, shape_mis_alpha
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

    # Fields in CSV_COLUMNS order: the CSV and JSON formats read them by position.
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
        return dict(zip(CSV_COLUMNS, astuple(self)))


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
        return {"claim": "even_cycle_alpha", **asdict(self)}


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
            "rows": [{**asdict(r), "equality": r.equality} for r in self.rows],
            "violations": [r.n for r in self.violations],
        }


def verify_cycle_bound(n_max: int) -> CycleBoundReport:
    if n_max < 5:
        raise ValueError("need n_max >= 5")
    report = CycleBoundReport(n_max=n_max)
    for n in range(5, n_max + 1):
        mis = shape_mis_alpha("unicyclic", ((),) * n)[0]  # the bare cycle C_n
        report.rows.append(CycleBoundRow(n=n, mis=mis, bound=ell_seq((n + 1) // 2)))
    return report


def _sorted_records(records: Iterable[VerificationRecord]) -> list[VerificationRecord]:
    return sorted(records, key=lambda r: (r.graph_class, r.n, r.alpha))


def records_to_csv(records: Iterable[VerificationRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(astuple(r) for r in _sorted_records(records))
    return buf.getvalue()


def records_to_json(records: Iterable[VerificationRecord]) -> str:
    return json.dumps([r.to_dict() for r in _sorted_records(records)], indent=2) + "\n"


def records_from_json(text: str) -> list[VerificationRecord]:
    return [VerificationRecord(*(d[c] for c in CSV_COLUMNS)) for d in json.loads(text)]


def write_json(path: str, payload) -> None:
    """Write a report as JSON with a two-space indent and a closing newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def export_certificates(records: Iterable[VerificationRecord], path: str) -> str:
    """Write sorted certificates as JSON when path ends in .json, else as
    CSV. Returns the path written."""
    text = records_to_json(records) if path.endswith(".json") else records_to_csv(records)
    with open(path, "w") as fh:
        fh.write(text)
    return path
