"""The benchmark's traced child at tiny scope.

bench/child.py wraps package names by attribute (for example
`misbounds.verify.mis_count` and `misbounds.counting.classify`), so a
refactor that drops or renames one of them makes every traced run die.
These tests run the child as the benchmark does, in a subprocess, and
only read bench/.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"
TINY_SCOPE = {
    "classes": [["tree", 4], ["unicyclic", 4], ["forest", 3]],
    "claim1": 4,
    "cycles": 5,
    "lemmas": 5,
}
# a tree, C_8 with the chord (0, 4), and K_6 minus two disjoint edges
GRAPHS = ["EiCO", "GhcGKC", "E]~w"]


def _child(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def _span_names(path: Path) -> set[str]:
    spans = json.loads(path.read_text())
    return {rec[2] for rec in spans}


def test_traced_certify(tmp_path):
    spans = tmp_path / "spans.json"
    proc = _child("certify", str(tmp_path / "out"), "1", "--scope", json.dumps(TINY_SCOPE),
                  "--extras", "--trace", str(spans))
    assert proc.returncode == 0, proc.stderr
    assert {"counting.alpha", "counting.mis_count", "generate.next"} <= _span_names(spans)


def test_traced_count(tmp_path):
    graph_file = tmp_path / "graphs.g6"
    graph_file.write_text("".join(g + "\n" for g in GRAPHS))
    spans = tmp_path / "spans.json"
    proc = _child("count", str(graph_file), str(tmp_path / "out"), "--trace", str(spans))
    assert proc.returncode == 0, proc.stderr
    assert {"cli.main", "counting.mis_count", "graphs.parse_graph6"} <= _span_names(spans)
    assert len((tmp_path / "out" / "count.txt").read_text().splitlines()) == len(GRAPHS)
