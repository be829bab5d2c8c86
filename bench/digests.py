#!/usr/bin/env python3
"""Print the sha256 of every certificate file of a desk-scale run.

    python3 bench/digests.py

Runs scripts/run_certification.py at its default scope with --jobs 2
into a fresh directory under .bench_out, prints one `sha256  file` line
per certificate file and removes the directory.
Run it on two commits and compare the output to check that a change
leaves the certificates byte-identical. The digests are made anew each
time; none is stored in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    out = ROOT / ".bench_out" / f"digests-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_certification.py"),
             "--out-dir", str(out), "--jobs", "2"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"run_certification.py exited {proc.returncode}", file=sys.stderr)
            return 1
        for path in sorted(out.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
