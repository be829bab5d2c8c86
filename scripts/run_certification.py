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
from pathlib import Path

from misbounds.cli import run_command
from misbounds.verify import CertifyScope, certify


def main(argv: list[str] | None = None) -> int:
    scope = CertifyScope()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="certificates")
    parser.add_argument("--tree-max-n", type=int, default=scope.tree_max_n)
    parser.add_argument("--unicyclic-max-n", type=int, default=scope.unicyclic_max_n)
    parser.add_argument("--forest-max-n", type=int, default=scope.forest_max_n)
    parser.add_argument("--cycle-max-n", type=int, default=scope.cycle_max_n)
    parser.add_argument("--lemma-limit", type=int, default=scope.lemma_limit)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    return run_command(_certify, parser.parse_args(argv))


def _certify(args: argparse.Namespace) -> int:
    scope = CertifyScope(
        args.tree_max_n, args.unicyclic_max_n, args.forest_max_n, args.cycle_max_n, args.lemma_limit
    )
    run = certify(args.out_dir, scope, args.jobs)
    for name, result in run.classes.items():
        scanned = sum(r.graphs_scanned for r in result.records)
        sharp = sum(r.status == "holds_sharp" for r in result.records)
        print(
            f"{name:9s} n<={getattr(scope, f'{name}_max_n')}: {scanned} graphs, "
            f"{len(result.records)} cells, {sharp} sharp, {len(result.violations)} violations, "
            f"{run.seconds[name]:.1f}s -> {Path(args.out_dir) / f'{name}.csv'}"
        )

    claim = run.claim1
    print(
        f"claim1    n<={claim.n_max}: {claim.graphs_checked} even-cycle graphs, "
        f"{len(claim.violations)} violations"
    )
    cyc = run.cycles
    print(
        f"cycles    n<={cyc.n_max}: {len(cyc.rows)} orders, equality at "
        f"{cyc.equality_orders}, {len(cyc.violations)} violations"
    )
    bad = sum(len(s.violations) for s in run.lemmas)
    total = sum(s.tuples_checked for s in run.lemmas)
    print(f"lemmas    limit={scope.lemma_limit}: {total} tuples, {bad} violations")

    failures = run.failures
    print("RESULT:", "all bounds certified" if failures == 0 else f"{failures} violations")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
