#!/usr/bin/env python3
"""The certification frontier: per class, the largest order N such that
`misbounds verify --class C --max-n N --jobs 2` ends within a budget.

    python3 bench/frontier.py

Tries N = start, start + 1, ... for each class; each try is a fresh
interpreter that certifies every order up to N, and its certificate is
checked like the benchmark's. The search stops at the first try that
runs out of budget, fails, or would pass the generator's order limit.
The result moves in whole orders and takes minutes; it is a reference
figure for bench/README.md, not a gated metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402

START = {"tree": 12, "unicyclic": 10, "forest": 10}
BUDGET_S = 60  # the per-try budget ROADMAP aim 1 names


def attempt(cls: str, n: int, budget: float, work: Path, env: dict) -> tuple[str, float]:
    out = work / f"{cls}-{n}.csv"
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "misbounds.cli", "verify", "--class", cls, "--max-n", str(n),
         "--jobs", "2", "--out", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the verify process and its workers
        proc.wait()
        return "over budget", time.monotonic() - t0
    wall = time.monotonic() - t0
    if code != 0:
        return f"exit {code}", wall
    problems = checks.class_certificate(cls, n, out.read_text())[0]
    return ("certified" if not problems else f"wrong: {problems[0]}"), wall


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    from misbounds.generate import FOREST_LIMIT, TREE_LIMIT, UNICYCLIC_LIMIT

    limits = {"tree": TREE_LIMIT, "unicyclic": UNICYCLIC_LIMIT, "forest": FOREST_LIMIT}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    work = ROOT / ".bench_out" / f"frontier-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    result = {}
    try:
        for cls in sorted(START):
            best = None
            for n in range(START[cls], limits[cls] + 1):
                status, wall = attempt(cls, n, BUDGET_S, work, env)
                print(f"{cls} max-n {n}: {status} in {wall:.1f}s", flush=True)
                if status != "certified":
                    break
                best = (n, wall)
            else:
                status = f"generator limit {limits[cls]}"
            result[cls] = {"frontier_n": best[0] if best else None,
                           "seconds": round(best[1], 1) if best else None,
                           "stopped_by": status}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"budget_s": BUDGET_S, "jobs": 2, "frontier": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
