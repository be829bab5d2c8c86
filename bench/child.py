"""One timed repetition, run by bench/run.py in a fresh interpreter.

    child.py certify OUT_DIR JOBS --scope JSON [--extras] [--trace SPANS]
    child.py count GRAPH_FILE OUT_DIR [--trace SPANS]

`certify` runs the class scans of scripts/run_certification.py (orders
given by the JSON scope) at the given job count and writes their CSV and JSON certificates to
OUT_DIR; with --extras it also writes claim1, cycle-bound and lemma
reports as that script does. `count` runs `misbounds count --file` and
`misbounds alpha --file` through misbounds.cli.main, with their standard
output sent to OUT_DIR/count.txt and OUT_DIR/alpha.txt. Either way the
child writes OUT_DIR/result.json with its own timings and resource use.
With --trace the wrappers of bench/tracing.py are installed first and
the spans are written to SPANS when the child ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def run_certify(out: Path, jobs: int, tracer, extras: bool, scope) -> dict:
    import misbounds.verify as verify
    from misbounds.bounds import sweep_sequence_lemmas

    runners = {
        "tree": verify.verify_tree_theorem,
        "unicyclic": verify.verify_unicyclic_theorem,
        "forest": verify.verify_forest_corollary,
    }
    if tracer is not None:
        for attr in ("free_trees", "unicyclic_graphs", "forests"):
            tracer.wrap_generator(verify, attr, "generate.next")
        tracer.wrap(verify, "independence_number", "counting.alpha")
        tracer.wrap(verify, "mis_count", "counting.mis_count")
        tracer.wrap(verify, "canonical_form", "graphs.canonical_form")

    scan_s = 0.0
    graphs = 0
    for cls, n_max in scope["classes"]:
        if tracer is not None:
            tracer.tag = cls
        t0 = time.perf_counter()
        with _span(tracer, "verify.scan", cls):
            result = runners[cls](n_max, jobs=jobs)
            verify.export_certificates(result.records, str(out / f"{cls}.csv"))
            verify.export_certificates(result.records, str(out / f"{cls}.json"))
        scan_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.tag = ""
        graphs += sum(r.graphs_scanned for r in result.records)

    if extras:
        def write(name, payload):
            (out / name).write_text(json.dumps(payload, indent=2) + "\n")

        with _span(tracer, "verify.claim1"):
            write("claim1.json", verify.verify_claim1(scope["claim1"]).to_dict())
        with _span(tracer, "verify.cycles"):
            write("cycle_bound.json", verify.verify_cycle_bound(scope["cycles"]).to_dict())
        with _span(tracer, "bounds.lemmas"):
            sweeps = sweep_sequence_lemmas(scope["lemmas"])
        write("lemma_sweep.json", [s.to_dict() for s in sweeps])
    return {"scan_s": scan_s, "graphs": graphs}


def _span(tracer, name: str, tag: str = ""):
    return tracer.span(name, tag) if tracer is not None else nullcontext()


def run_count(graph_file: str, out: Path, tracer) -> dict:
    import misbounds.cli as cli

    if tracer is not None:
        import misbounds.counting as counting

        tracer.wrap(cli, "parse_graph6", "graphs.parse_graph6")
        tracer.wrap(cli, "mis_count", "counting.mis_count", keep_result=True)
        tracer.wrap(cli, "independence_number", "counting.alpha")
        tracer.wrap(counting, "classify", "graphs.classify")
    times = {}
    codes = {}
    for cmd in ("count", "alpha"):
        with open(out / f"{cmd}.txt", "w") as fh, redirect_stdout(fh):
            t0 = time.perf_counter()
            with _span(tracer, "cli.main", cmd):
                codes[cmd] = cli.main([cmd, "--file", graph_file])
            times[cmd] = time.perf_counter() - t0
    return {"count_s": times["count"], "alpha_s": times["alpha"], "exit_codes": codes}


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("certify")
    p.add_argument("out")
    p.add_argument("jobs", type=int)
    p.add_argument("--scope", required=True, help="JSON certify scope")
    p.add_argument("--extras", action="store_true")
    p.add_argument("--trace")
    p = sub.add_parser("count")
    p.add_argument("graph_file")
    p.add_argument("out")
    p.add_argument("--trace")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "certify":
        result = run_certify(out, args.jobs, tracer, args.extras, json.loads(args.scope))
    else:
        result = run_count(args.graph_file, out, tracer)
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.dump(args.trace)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
