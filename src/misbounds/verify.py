"""Exhaustive certification of the minimum-MIS lower bounds.

For every order up to a requested maximum, the harness streams the
isomorph-free graphs of a class, buckets them by independence number,
and tracks the minimum MIS count per bucket together with how many
graphs attain it and a canonical witness. Each order is scanned whole
by one worker, so worker count and scheduling never change the output;
certificate files are sorted and byte-stable. certify runs the class
scans, claim 1, the cycle bound and the lemma sweep as tasks of one
process pool and writes every certificate and report.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field
from typing import Callable, Iterable, NamedTuple

from .bounds import (
    BoundQuery,
    LemmaSweep,
    bound,
    check_lemma_limit,
    ell_seq,
    sweep_sequence_lemmas,
)
from .counting import independence_number, shape_mis_alpha
from .counting import mis_count  # noqa: F401  bench/child.py traces verify.mis_count
from .generate import (
    GenerationTask,
    check_order_limit,
    shape_graph,
    shape_stream,
    unicyclic_graphs,
)
from .generate import forests, free_trees  # noqa: F401  bench/child.py traces both
from .graphs import canonical_form
from .rooted import LEAF

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

_MIN_ORDER = {"tree": 2, "unicyclic": 3, "forest": 1, "claim1": 4, "cycle": 5}


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


@dataclass
class VerifyResult:
    records: list[VerificationRecord]
    all_witnesses: dict[tuple[str, int, int], list[str]] = field(default_factory=dict)

    @property
    def violations(self) -> list[VerificationRecord]:
        return [r for r in self.records if r.status == STATUS_VIOLATED]


def _verify_class(graph_class: str, n_max: int, jobs: int) -> VerifyResult:
    # One whole order per task, largest first: the top order dominates.
    orders = _orders(graph_class, n_max)[::-1]
    scans = _run_tasks([(_scan_order, (graph_class, n)) for n in orders], jobs)
    return _class_result(graph_class, {n: scan for n, (scan, _) in zip(orders, scans)})


def _class_result(graph_class: str, buckets_by_n: dict[int, dict[int, _Bucket]]) -> VerifyResult:
    """Certificates of one class from its scanned orders, sorted by (n, alpha)."""
    result = VerifyResult(records=[])
    for n in sorted(buckets_by_n):
        for alpha, b in sorted(buckets_by_n[n].items()):
            floor = bound(BoundQuery(graph_class, n, alpha))
            if b.min_mis < floor:
                status = STATUS_VIOLATED
            elif b.min_mis == floor:
                status = STATUS_SHARP
            else:
                status = STATUS_NOT_SHARP
            result.records.append(
                VerificationRecord(
                    graph_class=graph_class,
                    n=n,
                    alpha=alpha,
                    bound=floor,
                    min_mis=b.min_mis,
                    minimizer_count=len(b.forms),
                    witness=b.forms[0],
                    graphs_scanned=b.scanned,
                    status=status,
                )
            )
            result.all_witnesses[(graph_class, n, alpha)] = b.forms
    return result


def _run_tasks(tasks: list[tuple[Callable, tuple]], jobs: int) -> list[tuple]:
    """(fn(*args), seconds it took) for each (fn, args) task, in task
    order. With one worker the tasks run here, one after another;
    otherwise one process pool of at most `jobs` workers starts them in
    task order, so callers list the longest first. More workers than
    cores or tasks would idle. A task that raises cancels those not yet
    started and raises here; jobs below 1 raise ValueError before any
    task starts."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return list(map(_timed_call, tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_timed_call, tasks))


def _timed_call(task: tuple[Callable, tuple]) -> tuple:
    fn, args = task
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def _orders(check: str, n_max: int) -> range:
    """The orders a check covers up to n_max; a ValueError names an n_max
    below the check's first order or above its generator's limit."""
    lo = _MIN_ORDER[check]
    if n_max < lo:
        raise ValueError(f"need n_max >= {lo}")
    if check != "cycle":
        check_order_limit("unicyclic" if check == "claim1" else check, n_max)
    return range(lo, n_max + 1)


def verify_tree_theorem(n_max: int, jobs: int = 1) -> VerifyResult:
    """Check min mis = g(n - alpha) over all trees with 2 <= n <= n_max."""
    return _verify_class("tree", n_max, jobs)


def verify_forest_corollary(n_max: int, jobs: int = 1) -> VerifyResult:
    """Check min mis = g(n - alpha) over all forests with 1 <= n <= n_max."""
    return _verify_class("forest", n_max, jobs)


def verify_unicyclic_theorem(n_max: int, jobs: int = 1) -> VerifyResult:
    """Check min mis = t(n, alpha) over all unicyclic graphs, 3 <= n <= n_max."""
    return _verify_class("unicyclic", n_max, jobs)


@dataclass
class Claim1Report:
    """Even-cycle unicyclic graphs all satisfy alpha >= ceil(n/2)."""

    n_max: int
    graphs_checked: int
    violations: list[str] = field(default_factory=list)  # graph6 witnesses

    def to_dict(self) -> dict:
        return {"claim": "even_cycle_alpha", **asdict(self)}


def verify_claim1(n_max: int) -> Claim1Report:
    return _claim1_report(n_max, map(_claim1_order, _orders("claim1", n_max)))


def _claim1_order(n: int) -> tuple[int, list[str]]:
    """(graphs checked, graph6 of each violation) over the even-cycle
    unicyclic graphs of order n."""
    need = -(-n // 2)
    checked = 0
    violations = []
    for c in range(4, n + 1, 2):
        for g in unicyclic_graphs(n, cycle=c):
            checked += 1
            if independence_number(g) < need:
                violations.append(canonical_form(g).decode("ascii"))
    return checked, violations


def _claim1_report(n_max: int, orders: Iterable[tuple[int, list[str]]]) -> Claim1Report:
    """The report summed over each order's _claim1_order result."""
    report = Claim1Report(n_max=n_max, graphs_checked=0)
    for checked, violations in orders:
        report.graphs_checked += checked
        report.violations += violations
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
    report = CycleBoundReport(n_max=n_max)
    for n in _orders("cycle", n_max):
        mis = shape_mis_alpha("unicyclic", (LEAF,) * n)[0]  # the bare cycle C_n
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


class CertifyScope(NamedTuple):
    """How far one certification run goes: the largest order of each
    class (claim 1 runs to the unicyclic one), the largest cycle and the
    lemma sweep's limit. The defaults are the desk-scale run."""

    tree_max_n: int = 14
    unicyclic_max_n: int = 12
    forest_max_n: int = 12
    cycle_max_n: int = 40
    lemma_limit: int = 60


class Certification(NamedTuple):
    """The reports of one certify run; seconds[c] sums the task times of
    class c, whichever workers ran them."""

    classes: dict[str, VerifyResult]
    seconds: dict[str, float]
    claim1: Claim1Report
    cycles: CycleBoundReport
    lemmas: list[LemmaSweep]

    @property
    def failures(self) -> int:
        return (
            sum(len(r.violations) for r in self.classes.values())
            + len(self.claim1.violations)
            + len(self.cycles.violations)
            + sum(len(s.violations) for s in self.lemmas)
        )


# Relative cost of a task, so the pool can start the longest first
# (Graham 1969). An order of a scan or of claim 1 costs about three times
# the order below it; a tree of order n about as much as a unicyclic
# graph of order n - 3, a forest of order n - 1. The lemma sweep outlasts
# every other task and the cycle bound takes milliseconds.
_ORDER_SHIFT = {"tree": -3, "forest": -1, "unicyclic": 0, "claim1": 0}


def _task_cost(key: tuple[str, int]) -> float:
    check, n = key
    if check == "lemmas":
        return float("inf")
    if check == "cycle":
        return 0.0
    return 3.0 ** (n + _ORDER_SHIFT[check])


def certify(out_dir: str, scope: CertifyScope = CertifyScope(), jobs: int = 1) -> Certification:
    """Run the whole certification and write its nine files to out_dir:
    <class>.csv and <class>.json for tree, unicyclic and forest, then
    claim1.json, cycle_bound.json and lemma_sweep.json.

    Every order of every class scan and of claim 1, the cycle bound and
    the lemma sweep are tasks of one _run_tasks call, longest first.
    Every order limit is checked before any task starts. The files do
    not depend on jobs.
    """
    max_n = {
        "tree": scope.tree_max_n,
        "unicyclic": scope.unicyclic_max_n,
        "forest": scope.forest_max_n,
        "claim1": scope.unicyclic_max_n,
    }
    orders = {check: _orders(check, n) for check, n in max_n.items()}
    _orders("cycle", scope.cycle_max_n)
    check_lemma_limit(scope.lemma_limit)
    tasks = {
        ("lemmas", 0): (sweep_sequence_lemmas, (scope.lemma_limit,)),
        ("cycle", 0): (verify_cycle_bound, (scope.cycle_max_n,)),
    }
    for check, ns in orders.items():
        for n in ns:
            tasks[check, n] = (_claim1_order, (n,)) if check == "claim1" else (_scan_order, (check, n))
    keys = sorted(tasks, key=_task_cost, reverse=True)
    done = dict(zip(keys, _run_tasks([tasks[k] for k in keys], jobs)))

    classes = {
        c: _class_result(c, {n: done[c, n][0] for n in orders[c]})
        for c in ("tree", "unicyclic", "forest")
    }
    run = Certification(
        classes=classes,
        seconds={c: sum(done[c, n][1] for n in orders[c]) for c in classes},
        claim1=_claim1_report(max_n["claim1"], (done["claim1", n][0] for n in orders["claim1"])),
        cycles=done["cycle", 0][0],
        lemmas=done["lemmas", 0][0],
    )
    os.makedirs(out_dir, exist_ok=True)
    for c, result in classes.items():
        export_certificates(result.records, os.path.join(out_dir, f"{c}.csv"))
        export_certificates(result.records, os.path.join(out_dir, f"{c}.json"))
    write_json(os.path.join(out_dir, "claim1.json"), run.claim1.to_dict())
    write_json(os.path.join(out_dir, "cycle_bound.json"), run.cycles.to_dict())
    write_json(os.path.join(out_dir, "lemma_sweep.json"), [s.to_dict() for s in run.lemmas])
    return run
