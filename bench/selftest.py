#!/usr/bin/env python3
"""Show that every correctness check of the benchmark rejects a wrong count.

    PYTHONPATH=src python3 bench/selftest.py

Each case takes an output the program really produced at small scope,
confirms the check accepts it, then alters one value and confirms the
check reports a problem. Exit code 0 when every case behaves.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402


def _alter_csv(text: str, row: int, column: str, change) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    k = checks.CSV_COLUMNS.index(column)
    rows[row][k] = change(rows[row][k])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _csv_to_json(text: str) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    ints = {"n", "alpha", "bound", "min_mis", "minimizer_count", "graphs_scanned"}
    return json.dumps([{k: int(v) if k in ints else v for k, v in r.items()} for r in rows])


def main() -> int:
    from misbounds.bounds import sweep_sequence_lemmas
    from misbounds.counting import independence_number, mis_count
    from misbounds.graphs import parse_graph6
    from misbounds.verify import (records_to_csv, records_to_json, verify_claim1,
                                  verify_cycle_bound, verify_unicyclic_theorem)

    cases: list[tuple[str, list[str], list[str]]] = []

    records = verify_unicyclic_theorem(8).records
    good_csv, good_json = records_to_csv(records), records_to_json(records)

    def cert(csv_text, json_text=None):
        return checks.class_certificate("unicyclic", 8, csv_text,
                                        json_text if json_text is not None else _csv_to_json(csv_text))[0]

    plus = lambda v: str(int(v) + 1)  # noqa: E731
    cases.append(("certificate min_mis + 1", cert(good_csv, good_json),
                  cert(_alter_csv(good_csv, 5, "min_mis", plus))))
    cases.append(("certificate bound + 1", cert(good_csv, good_json),
                  cert(_alter_csv(good_csv, 5, "bound", plus))))
    cases.append(("graphs_scanned + 1 (OEIS total)", cert(good_csv, good_json),
                  cert(_alter_csv(good_csv, 5, "graphs_scanned", plus))))
    other = list(csv.reader(io.StringIO(good_csv)))[6][6]
    cases.append(("witness from another cell", cert(good_csv, good_json),
                  cert(_alter_csv(good_csv, 5, "witness_graph6", lambda v: other))))
    cases.append(("JSON differs from CSV", cert(good_csv, good_json),
                  cert(good_csv, _csv_to_json(_alter_csv(good_csv, 5, "minimizer_count", plus)))))

    work = ROOT / ".bench_out" / "selftest"
    a, b = work / "a", work / "b"
    for d in (a, b):
        d.mkdir(parents=True, exist_ok=True)
        for name in checks.CLASS_FILES:
            (d / name).write_text(good_csv)
    same = checks.identical(a, b)
    (b / "tree.csv").write_text(_alter_csv(good_csv, 5, "min_mis", plus))
    cases.append(("jobs-1 and jobs-2 certificates differ", same, checks.identical(a, b)))
    shutil.rmtree(work, ignore_errors=True)

    claim = verify_claim1(8).to_dict()
    cases.append(("claim1 violation", checks.claim1(claim, 8),
                  checks.claim1({**claim, "violations": ["GhCGKC"]}, 8)))
    cyc = verify_cycle_bound(14).to_dict()
    bad_cyc = json.loads(json.dumps(cyc))
    bad_cyc["rows"][3]["mis"] += 1
    cases.append(("cycle count + 1", checks.cycle_bound(cyc, 14), checks.cycle_bound(bad_cyc, 14)))
    sweeps = [s.to_dict() for s in sweep_sequence_lemmas(12)]
    bad_sweeps = json.loads(json.dumps(sweeps))
    bad_sweeps[0]["tuples_checked"] += 1
    cases.append(("lemma tuple count + 1", checks.lemmas(sweeps, 12), checks.lemmas(bad_sweeps, 12)))

    entries = inputs.entries(inputs.dense_chunk(1, 0, inputs.SMOKE_DENSE))
    graphs = [parse_graph6(e.graph6) for e in entries]
    mis = [str(mis_count(g)) for g in graphs]
    alpha = [str(independence_number(g)) for g in graphs]
    good = checks.counts(entries, "\n".join(mis), "\n".join(alpha))[0]
    for k in range(len(entries)):
        wrong = mis[:k] + [str(int(mis[k]) + 1)] + mis[k + 1:]
        cases.append((f"dense {entries[k].label} count + 1", good,
                      checks.counts(entries, "\n".join(wrong), "\n".join(alpha))[0]))
    wrong = alpha[:-1] + [str(int(alpha[-1]) - 1)]
    cases.append(("dense alpha - 1", good, checks.counts(entries, "\n".join(mis), "\n".join(wrong))[0]))
    problems, missing = checks.counts(entries, "\n".join(mis[:-1]), "\n".join(alpha))
    cases.append(("dense missing line", good, ["missing"] if missing == 1 and not problems else []))

    failures = 0
    for label, accepted, rejected in cases:
        ok = not accepted and bool(rejected)
        failures += not ok
        if not ok:
            print(f"selftest FAILED: {label}: accepted={accepted[:2]} rejected={rejected[:2]}")
    print(f"selftest: {len(cases) - failures}/{len(cases)} checks accept the real output "
          f"and reject the altered one")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
