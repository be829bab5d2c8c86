"""scripts/run_certification.py: the files it writes and its exit codes."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_certification.py"
TINY_SCOPE = [
    "--tree-max-n", "5",
    "--unicyclic-max-n", "5",
    "--forest-max-n", "4",
    "--cycle-max-n", "6",
    "--lemma-limit", "8",
    "--jobs", "1",
]
NINE_FILES = sorted(
    [f"{c}.{e}" for c in ("tree", "unicyclic", "forest") for e in ("csv", "json")]
    + ["claim1.json", "cycle_bound.json", "lemma_sweep.json"]
)


@pytest.fixture
def script():
    spec = importlib.util.spec_from_file_location("run_certification", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_scope_exits_0_and_writes_nine_files(script, tmp_path, capsys):
    out = tmp_path / "certs"
    assert script.main(["--out-dir", str(out), *TINY_SCOPE]) == 0
    assert "RESULT: all bounds certified" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == NINE_FILES
    for path in out.glob("*.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_order_above_limit_exits_2_without_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out-dir", str(tmp_path), "--tree-max-n", "19"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: order 19 above tree limit 18\n"


def test_crash_exits_3_not_1(script, tmp_path, capsys, monkeypatch):
    def crash(n_max, jobs=1):
        raise RuntimeError("boom")

    monkeypatch.setattr(script, "verify_tree_theorem", crash)
    code = script.main(["--out-dir", str(tmp_path), *TINY_SCOPE])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"
