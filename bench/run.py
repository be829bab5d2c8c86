#!/usr/bin/env python3
"""The misbounds benchmark: one command for every workload.

    python3 bench/run.py --workload certify|dense-count \\
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout. Every timed repetition runs in
a fresh interpreter with `src` on its path, because the package keeps
memo tables and caches for the life of a process. The last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))  # the parent builds inputs with misbounds.extremal

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("certify", "dense-count")
SETUP_PROBES = 11
IMPORTTIME_PROBES = 3
CERTIFY_SCOPE = {"classes": [["tree", 14], ["unicyclic", 12], ["forest", 12]],
                 "claim1": 12, "cycles": 40, "lemmas": 60}
SMOKE_CERTIFY = {"classes": [["tree", 8], ["unicyclic", 7], ["forest", 7]],
                 "claim1": 7, "cycles": 12, "lemmas": 12}


class Run:
    """One benchmark run: its scratch directory, children and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.work = ROOT / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def spawn(self, argv: list[str], stdout=subprocess.DEVNULL) -> tuple[float, float]:
        """Run a fresh interpreter to the end; returns (wall seconds, peak
        RSS in MB of it and its waited-for workers). A non-zero exit is
        recorded as a problem."""
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                stdout=stdout, stderr=subprocess.PIPE)
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
        if proc.returncode != 0:
            self.problems.append(f"{argv[:2]} exited {proc.returncode}: "
                                 f"{err.decode(errors='replace').strip()[-400:]}")
        return wall, usage.ru_maxrss / 1024

    def child(self, *args: str) -> tuple[float, dict]:
        wall, _ = self.spawn([str(BENCH / "child.py"), *args])
        out = Path(args[2] if args[0] == "count" else args[1])
        try:
            result = json.loads((out / "result.json").read_text())
        except (OSError, ValueError):
            result = {}
        return wall, result

    def setup_seconds(self) -> float:
        """Median time from launching an interpreter until `import
        misbounds` returns, after one untimed import fills the bytecode
        cache."""
        code = "import misbounds, time; print(time.monotonic())"
        samples = []
        for i in range(SETUP_PROBES + 1):
            t0 = time.monotonic()
            out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                                 capture_output=True, text=True, check=True).stdout
            if i:
                samples.append(float(out) - t0)
        return statistics.median(samples)

    def numpy_import_ms(self) -> float:
        samples = []
        for _ in range(IMPORTTIME_PROBES):
            err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import misbounds"],
                                 cwd=ROOT, env=self.env, capture_output=True, text=True,
                                 check=True).stderr
            for line in err.splitlines():
                fields = [f.strip() for f in line.split("|")]
                if len(fields) == 3 and fields[2] == "numpy":
                    samples.append(int(fields[1]) / 1e3)
        return statistics.median(samples) if samples else 0.0

    def rounds(self, body) -> None:
        """Call body(i) for whole rounds i = 0, 1, ... while the next one
        is expected to end within the run's seconds; at least once."""
        deadline = time.monotonic() + self.seconds
        longest = 0.0
        done = 0
        while True:
            t0 = time.monotonic()
            body(done)
            done += 1
            longest = max(longest, time.monotonic() - t0)
            if time.monotonic() + longest > deadline:
                return

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# certify


def _certify_scope(run: Run) -> dict:
    return SMOKE_CERTIFY if run.smoke else CERTIFY_SCOPE


def _certify_ops(scope: dict) -> int:
    return sum(n - reference.CLASS_MIN_N[c] + 1 for c, n in scope["classes"])


def _script_argv(out: Path, scope: dict) -> list[str]:
    sizes = dict(scope["classes"])
    return [str(ROOT / "scripts" / "run_certification.py"), "--out-dir", str(out),
            "--jobs", "2", "--tree-max-n", str(sizes["tree"]),
            "--unicyclic-max-n", str(sizes["unicyclic"]),
            "--forest-max-n", str(sizes["forest"]),
            "--cycle-max-n", str(scope["cycles"]), "--lemma-limit", str(scope["lemmas"])]


def _check_certify_dir(run: Run, out: Path, scope: dict, extras: bool) -> dict[str, int]:
    problems, missing, minimizers = checks.certificate_dir(out, scope["classes"])
    run.attempted += _certify_ops(scope)
    run.failed += missing
    if extras:
        more, missing = checks.extras_dir(out, scope)
        problems += more
        run.attempted += 3
        run.failed += missing
    run.problems += problems
    return minimizers


def certify(run: Run) -> dict:
    scope = _certify_scope(run)
    walls, rates, rss = [], [], []

    def one_round(i: int) -> None:
        d2, d1 = run.work / f"jobs2-{i}", run.work / f"jobs1-{i}"
        with open(run.work / f"script-{i}.txt", "w") as log:
            wall, rss2 = run.spawn(_script_argv(d2, scope), stdout=log)
        _, result = run.child("certify", str(d1), "1", "--scope", json.dumps(scope))
        walls.append(wall)
        if result:
            rates.append(result["graphs"] / result["scan_s"])
            rss.append(max(rss2, result["peak_rss_mb"]))
        _check_certify_dir(run, d2, scope, extras=True)
        _check_certify_dir(run, d1, scope, extras=False)
        run.problems += checks.identical(d2, d1)
        shutil.rmtree(d2, ignore_errors=True)
        shutil.rmtree(d1, ignore_errors=True)

    run.rounds(one_round)
    return {
        "wall_s": statistics.median(walls),
        "graphs_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }


def certify_traced(run: Run) -> dict:
    scope = _certify_scope(run)
    per_round: list[dict] = []

    def one_round(i: int) -> None:
        d1, d2, dt = (run.work / f"{tag}-{i}" for tag in ("jobs1", "jobs2", "traced"))
        spans_path = run.work / f"spans-{i}.json"
        scope_arg = json.dumps(scope)
        _, plain = run.child("certify", str(d1), "1", "--scope", scope_arg)
        _, par = run.child("certify", str(d2), "2", "--scope", scope_arg)
        _, traced = run.child("certify", str(dt), "1", "--scope", scope_arg,
                                 "--extras", "--trace", str(spans_path))
        minimizers = _check_certify_dir(run, d1, scope, extras=False)
        _check_certify_dir(run, d2, scope, extras=False)
        _check_certify_dir(run, dt, scope, extras=True)
        run.problems += checks.identical(d1, d2) + checks.identical(d1, dt)
        if not (plain and par and traced and minimizers.keys() == {"tree", "unicyclic", "forest"}):
            return
        spans = json.loads(spans_path.read_text())
        layers = tracing.certify_layers(spans, minimizers,
                                        reference.lemma_tuple_count(scope["lemmas"]))
        layers["verify.scan_jobs1_s"] = plain["scan_s"]
        layers["verify.scan_jobs2_s"] = par["scan_s"]
        layers["verify.parallel_efficiency"] = plain["scan_s"] / (2 * par["scan_s"])
        layers["trace.untraced_s"] = plain["scan_s"]
        layers["trace.overhead_s"] = tracing.traced_scan_seconds(spans) - plain["scan_s"]
        per_round.append(layers)
        _keep_spans(run, spans_path)
        for d in (d1, d2, dt):
            shutil.rmtree(d, ignore_errors=True)

    run.rounds(one_round)
    return _medians(per_round)


# ---------------------------------------------------------------------------
# dense-count


def _chunk(run: Run, index: int) -> list[inputs.Drawn]:
    return inputs.dense_chunk(run.seed, index,
                              inputs.SMOKE_DENSE if run.smoke else inputs.DenseScope())


def _count_child(run: Run, chunk, index: int, tag: str, trace: Path | None = None):
    graph_file = run.work / f"chunk-{index}.g6"
    if not graph_file.exists():
        graph_file.write_text("".join(d.graph6 + "\n" for d in chunk))
    out = run.work / f"{tag}-{index}"
    args = ["count", str(graph_file), str(out)] + (["--trace", str(trace)] if trace else [])
    wall, result = run.child(*args)
    return wall, result, out


def _check_counts(run: Run, done) -> None:
    """After the timed loop: compute each chunk's expected values and
    compare every child's output with them."""
    for chunk, children in done:
        entries = inputs.entries(chunk)
        for out, result in children:
            try:
                problems, missing = checks.counts(entries, (out / "count.txt").read_text(),
                                                  (out / "alpha.txt").read_text())
            except OSError as exc:
                problems, missing = [f"{out.name}: {exc}"], len(entries)
            if result and result["exit_codes"] != {"count": 0, "alpha": 0}:
                problems.append(f"{out.name}: exit codes {result['exit_codes']}")
            run.attempted += len(entries)
            run.failed += missing
            run.problems += problems


def counting(run: Run) -> dict:
    walls, rates, rss, done = [], [], [], []

    def one_chunk(i: int) -> None:
        chunk = _chunk(run, i)
        wall, result, out = _count_child(run, chunk, i, "out")
        done.append((chunk, [(out, result)]))
        walls.append(wall)
        if result:
            rates.append(len(chunk) / (result["count_s"] + result["alpha_s"]))
            rss.append(result["peak_rss_mb"])

    run.rounds(one_chunk)
    _check_counts(run, done)
    return {
        "wall_s": statistics.median(walls),
        "graphs_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }


def counting_traced(run: Run) -> dict:
    per_chunk, done = [], []

    def one_chunk(i: int) -> None:
        chunk = _chunk(run, i)
        spans_path = run.work / f"spans-{i}.json"
        _, plain, plain_out = _count_child(run, chunk, i, "plain")
        _, traced, traced_out = _count_child(run, chunk, i, "traced", spans_path)
        done.append((chunk, [(plain_out, plain), (traced_out, traced)]))
        if not (plain and traced):
            return
        layers = tracing.count_layers(json.loads(spans_path.read_text()), len(chunk))
        untraced = plain["count_s"] + plain["alpha_s"]
        layers["trace.untraced_s"] = untraced
        layers["trace.overhead_s"] = traced["count_s"] + traced["alpha_s"] - untraced
        per_chunk.append(layers)
        _keep_spans(run, spans_path)

    run.rounds(one_chunk)
    _check_counts(run, done)
    return _medians(per_chunk)


# ---------------------------------------------------------------------------


def _medians(dicts: list[dict]) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def _keep_spans(run: Run, path: Path) -> None:
    """The last traced repetition's spans stay in .bench_out/traces
    (not in smoke mode, which would overwrite a real run's)."""
    if run.smoke:
        return
    dest = ROOT / ".bench_out" / "traces"
    dest.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(path, dest / f"{run.workload}-seed{run.seed}.json")


def measure(run: Run, trace: bool, spec: dict) -> dict:
    if trace:
        body = certify_traced if run.workload == "certify" else counting_traced
        values = body(run)
        values["setup.numpy_import_ms"] = run.numpy_import_ms()
        wanted = spec["per_layer"]
    else:
        setup = run.setup_seconds()
        body = certify if run.workload == "certify" else counting
        values = body(run)
        values["setup_s"] = setup
        wanted = spec["end_to_end"]
    # A layer the workload does not exercise reads 0 (no calls, no time).
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(workload, seed, seconds, smoke)
    try:
        metrics = measure(run, trace, spec)
    finally:
        run.close()
    for p in run.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def smoke() -> int:
    """Every workload at small scope, untraced and traced, then the
    checks' self-test."""
    import selftest

    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            t0 = time.monotonic()
            res = run_workload(workload, 1, 0.5, trace, smoke=True)
            good = res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            ok &= good
            print(f"{workload:13s} trace={int(trace)} {'ok' if good else 'FAILED'} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"{time.monotonic() - t0:.1f}s")
    ok &= selftest.main() == 0
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and check at small scope")
    args = parser.parse_args()
    for needed in ("src/misbounds/__init__.py", "scripts/run_certification.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a source checkout",
                  file=sys.stderr)
            return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
