#!/usr/bin/env python3
"""Run the full desk-scale certification and write certificate files.

Covers the three exhaustive bound checks (trees, unicyclic graphs,
forests), the even-cycle independence claim, the cycle lower bound, and
the sequence-lemma sweep. Exit codes as for `misbounds`: 0 certified,
1 violation found, 2 usage or input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from misbounds.bounds import sweep_sequence_lemmas
from misbounds.cli import run_command
from misbounds.verify import (
    export_certificates,
    verify_claim1,
    verify_cycle_bound,
    verify_forest_corollary,
    verify_tree_theorem,
    verify_unicyclic_theorem,
    write_json,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="certificates")
    parser.add_argument("--tree-max-n", type=int, default=14)
    parser.add_argument("--unicyclic-max-n", type=int, default=12)
    parser.add_argument("--forest-max-n", type=int, default=12)
    parser.add_argument("--cycle-max-n", type=int, default=40)
    parser.add_argument("--lemma-limit", type=int, default=60)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    return run_command(_certify, parser.parse_args(argv))


def _certify(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0

    runs = [
        ("tree", verify_tree_theorem, args.tree_max_n),
        ("unicyclic", verify_unicyclic_theorem, args.unicyclic_max_n),
        ("forest", verify_forest_corollary, args.forest_max_n),
    ]
    for name, runner, max_n in runs:
        t0 = time.time()
        result = runner(max_n, jobs=args.jobs)
        path = export_certificates(result.records, str(out / f"{name}.csv"))
        export_certificates(result.records, str(out / f"{name}.json"))
        bad = len(result.violations)
        failures += bad
        scanned = sum(r.graphs_scanned for r in result.records)
        sharp = sum(r.status == "holds_sharp" for r in result.records)
        print(
            f"{name:9s} n<={max_n}: {scanned} graphs, {len(result.records)} cells, "
            f"{sharp} sharp, {bad} violations, {time.time() - t0:.1f}s -> {path}"
        )

    claim = verify_claim1(args.unicyclic_max_n)
    write_json(str(out / "claim1.json"), claim.to_dict())
    failures += len(claim.violations)
    print(
        f"claim1    n<={claim.n_max}: {claim.graphs_checked} even-cycle graphs, "
        f"{len(claim.violations)} violations"
    )

    cyc = verify_cycle_bound(args.cycle_max_n)
    write_json(str(out / "cycle_bound.json"), cyc.to_dict())
    failures += len(cyc.violations)
    print(
        f"cycles    n<={cyc.n_max}: {len(cyc.rows)} orders, equality at "
        f"{cyc.equality_orders}, {len(cyc.violations)} violations"
    )

    sweeps = sweep_sequence_lemmas(args.lemma_limit)
    write_json(str(out / "lemma_sweep.json"), [s.to_dict() for s in sweeps])
    bad = sum(len(s.violations) for s in sweeps)
    failures += bad
    total = sum(s.tuples_checked for s in sweeps)
    print(f"lemmas    limit={args.lemma_limit}: {total} tuples, {bad} violations")

    print("RESULT:", "all bounds certified" if failures == 0 else f"{failures} violations")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
