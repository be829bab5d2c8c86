#!/usr/bin/env python3
"""Tabulate, for one graph class and order, the full MIS-count census:
how many isomorphism classes hit each count, per independence number.

Useful for eyeballing how far above the certified minimum the bulk of
the class sits, and for hunting candidate families beyond the known
minimizers.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, defaultdict

from misbounds.counting import shape_mis_alpha
from misbounds.generate import GenerationTask, shape_stream


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--class", dest="graph_class", required=True,
                        choices=["tree", "forest", "unicyclic"])
    parser.add_argument("-n", type=int, required=True)
    parser.add_argument("--unsafe-large", action="store_true")
    args = parser.parse_args()

    census: dict[int, Counter] = defaultdict(Counter)
    task = GenerationTask(args.graph_class, args.n)
    for shape in shape_stream(task, unsafe=args.unsafe_large):
        m, alpha = shape_mis_alpha(args.graph_class, shape)
        census[alpha][m] += 1

    for alpha in sorted(census):
        row = census[alpha]
        counts = " ".join(f"{m}:{row[m]}" for m in sorted(row))
        print(f"alpha={alpha} min={min(row)} classes={sum(row.values())} | {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
