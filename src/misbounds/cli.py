"""Command-line front end.

Subcommands: count, alpha, classify, bound, construct, enumerate,
verify, lemmas, convert. Output is line-oriented and stable; numbers
print in full decimal. Exit codes: 0 success, 1 verify/lemmas found a
violation, 2 usage or input error, 3 internal error (a crash, reported
as one line on stderr, so that it never reads as a violation).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterator, Optional

from .bounds import (
    LEMMA2_SAMPLES,
    LEMMA2_SEED,
    BoundQuery,
    bound,
    sweep_sequence_lemmas,
)
from .counting import independence_number, mis_count
from .extremal import ExtremalSpec, build_family, predicted_mis
from .generate import GenerationTask, task_stream
from .graphs import classify, parse_dot, parse_graph6, to_dot, write_graph6
from .verify import (
    export_certificates,
    verify_claim1,
    verify_cycle_bound,
    verify_forest_corollary,
    verify_tree_theorem,
    verify_unicyclic_theorem,
    write_json,
)


class UsageError(Exception):
    pass


def _inputs(args) -> Iterator[str]:
    """Inline arguments, a file, or stdin: exactly one source."""
    inline = getattr(args, "graphs", [])
    path = getattr(args, "file", None)
    if inline and path:
        raise UsageError("give graphs inline or with --file, not both")
    if inline:
        yield from inline
        return
    stream = open(path) if path else sys.stdin
    try:
        for line in stream:
            line = line.strip()
            if line:
                yield line
    finally:
        if path:
            stream.close()


def _cmd_count(args) -> int:
    for token in _inputs(args):
        print(mis_count(parse_graph6(token)))
    return 0


def _cmd_alpha(args) -> int:
    for token in _inputs(args):
        print(independence_number(parse_graph6(token)))
    return 0


def _cmd_classify(args) -> int:
    for token in _inputs(args):
        cls = classify(parse_graph6(token))
        line = f"{cls.kind} components={cls.component_count}"
        if cls.kind == "unicyclic":
            cyc = ",".join(str(v) for v in cls.cycle)
            line += f" cycle={cyc} parity={cls.cycle_parity}"
        print(line)
    return 0


def _cmd_bound(args) -> int:
    print(bound(BoundQuery(args.graph_class, args.n, args.alpha)))
    return 0


def _cmd_construct(args) -> int:
    family = args.family.replace("-", "_")
    spec = ExtremalSpec(family=family, n=args.n, alpha=args.alpha)
    g = build_family(spec)
    if args.dot:
        sys.stdout.write(to_dot(g))
    else:
        print(write_graph6(g))
    print(f"predicted_mis={predicted_mis(spec)}")
    return 0


def _cmd_enumerate(args) -> int:
    task = GenerationTask(
        graph_class=args.graph_class,
        order=args.n,
        cycle_length=args.cycle_length,
        alpha=args.alpha,
    )
    for g in task_stream(task, unsafe=args.unsafe_large):
        print(write_graph6(g))
    return 0


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _cmd_verify(args) -> int:
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    if args.graph_class in ("tree", "forest", "unicyclic"):
        runner = {
            "tree": verify_tree_theorem,
            "forest": verify_forest_corollary,
            "unicyclic": verify_unicyclic_theorem,
        }[args.graph_class]
        result = runner(args.max_n, jobs=jobs)
        for r in result.records:
            print(
                f"class={r.graph_class} n={r.n} alpha={r.alpha} bound={r.bound} "
                f"min_mis={r.min_mis} minimizer_count={r.minimizer_count} "
                f"witness={r.witness} scanned={r.graphs_scanned} status={r.status}"
            )
        violations = len(result.violations)
        print(f"violations={violations}")
        if args.out:
            export_certificates(result.records, args.out)
        if args.all_witnesses:
            with open(args.all_witnesses, "w") as fh:
                for key in sorted(result.all_witnesses):
                    cls_name, n, alpha = key
                    for w in result.all_witnesses[key]:
                        fh.write(f"{cls_name},{n},{alpha},{w}\n")
        return 1 if violations else 0
    if args.graph_class == "claim1":
        report = verify_claim1(args.max_n)
        print(
            f"claim1 max_n={report.n_max} checked={report.graphs_checked} "
            f"violations={len(report.violations)}"
        )
        if args.out:
            write_json(args.out, report.to_dict())
        return 1 if report.violations else 0
    if args.graph_class == "cycle":
        report = verify_cycle_bound(args.max_n)
        for row in report.rows:
            tag = "equality" if row.equality else "strict"
            print(f"n={row.n} mis={row.mis} bound={row.bound} {tag}")
        print(f"violations={len(report.violations)}")
        if args.out:
            write_json(args.out, report.to_dict())
        return 1 if report.violations else 0
    raise UsageError(f"unknown verify class {args.graph_class!r}")


def _cmd_lemmas(args) -> int:
    sweeps = sweep_sequence_lemmas(args.limit, samples=args.samples, seed=args.seed)
    bad = 0
    for sweep in sweeps:
        print(
            f"lemma={sweep.lemma} tuples_checked={sweep.tuples_checked} "
            f"violations={len(sweep.violations)}"
        )
        bad += len(sweep.violations)
    if args.out:
        write_json(args.out, [s.to_dict() for s in sweeps])
    return 1 if bad else 0


def _cmd_convert(args) -> int:
    if args.to == "dot":
        for token in _inputs(args):
            sys.stdout.write(to_dot(parse_graph6(token)))
        return 0
    if args.graphs:
        raise UsageError("convert --to graph6 reads DOT from --file or stdin, not inline")
    if args.file:
        with open(args.file) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    print(write_graph6(parse_dot(text)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misbounds",
        description="Count maximal independent sets and certify the minimum-MIS "
        "lower bounds for trees, forests, and unicyclic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_inputs(p):
        p.add_argument("graphs", nargs="*", help="graph6 strings (default: stdin)")
        p.add_argument("--file", help="read newline-delimited graph6 from a file")

    p = sub.add_parser("count", help="print the number of maximal independent sets")
    add_graph_inputs(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("alpha", help="print the independence number")
    add_graph_inputs(p)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("classify", help="print tree/forest/unicyclic/other")
    add_graph_inputs(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bound", help="print the theorem lower bound for (class, n, alpha)")
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=["tree", "forest", "unicyclic"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-a", "--alpha", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("construct", help="build an extremal family member")
    p.add_argument("--family", required=True,
                   choices=["T", "H", "L", "star", "cycle", "triangle-star"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-a", "--alpha", type=int)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of graph6")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="stream one graph6 line per isomorphism class")
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=["tree", "forest", "unicyclic"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--cycle-length", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--unsafe-large", action="store_true",
                   help="override the per-class order limits")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustively certify a bound")
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=["tree", "forest", "unicyclic", "claim1", "cycle"])
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int,
                   help="worker processes, at most one per core and one per order "
                   "(default: all cores)")
    p.add_argument("--out", help="write certificates to a .csv or .json file")
    p.add_argument("--all-witnesses",
                   help="stream every minimizer's graph6 to this side file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lemmas", help="sweep the sequence inequalities exactly")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--samples", type=int, default=LEMMA2_SAMPLES)
    p.add_argument("--seed", type=int, default=LEMMA2_SEED)
    p.add_argument("--out", help="write the sweep report as JSON")
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("convert", help="translate graph6 <-> DOT")
    p.add_argument("--to", choices=["dot", "graph6"], default="dot")
    add_graph_inputs(p)
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return run_command(args.func, args)


def run_command(func, args) -> int:
    """Run func(args) and return its exit code. An error is reported as
    one line on stderr: 2 for a usage or input error (a bad value, or a
    path that is missing or cannot be opened), 3 for a crash."""
    try:
        return func(args)
    except (UsageError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
