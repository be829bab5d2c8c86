"""scripts/run_certification.py and scripts/minimizer_census.py: what
they write and their exit codes."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_certification.py"
CENSUS = ROOT / "scripts" / "minimizer_census.py"
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


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(path, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, str(path), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def script():
    return _load(SCRIPT)


def test_tiny_scope_exits_0_and_writes_nine_files(script, tmp_path, capsys):
    out = tmp_path / "certs"
    assert script.main(["--out-dir", str(out), *TINY_SCOPE]) == 0
    assert "RESULT: all bounds certified" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == NINE_FILES
    for path in out.glob("*.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


# sha256 of every file that run_certification.py writes at its default
# scope; any refactor of the counting routes or of the certificate and
# report writers must leave all nine byte-identical.
DEFAULT_SCOPE_DIGESTS = {
    "claim1.json": "94a142e7b05a2a6842e0bbe497668b35ed41982610aaae84ddc19e50f10b1ef5",
    "cycle_bound.json": "871920499629566cdbd7f541a605c337d46216ffdb574487579c2977dcd9d013",
    "forest.csv": "25d4a006c8572f445234bdb8e7d15e06c97d37525912232c68fe4ea52c54051c",
    "forest.json": "fd246e238543ac61bfbdaa3ab61f02b9ef47c485e44df1cbb936557fb0b1606d",
    "lemma_sweep.json": "713a893492e8aaab0a4db4f2d289863fe70e9d5a9ac630b60cde576e4d64656b",
    "tree.csv": "63784994cfe14b9d7064d279aba7eec9b8fd7309e2d857d5d3222463e579493b",
    "tree.json": "24e33f195640307e88b97298d64a76b01fe9bc85438474711fa30ea124bb1c11",
    "unicyclic.csv": "a9062c82c35b0aab834ebd46f19483e62968a6a8569142f290b224f78ec0f274",
    "unicyclic.json": "81e3966fc8409131de44c9fb395350f2a8d46468ee789fddb034ce53e9535681",
}


def test_default_scope_digests(script, tmp_path):
    assert script.main(["--out-dir", str(tmp_path), "--jobs", "2"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == DEFAULT_SCOPE_DIGESTS


def test_order_above_limit_exits_2_without_traceback(tmp_path):
    proc = _run_script(SCRIPT, "--out-dir", str(tmp_path), "--tree-max-n", "19")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: order 19 above tree limit 18\n"


def test_crash_exits_3_not_1(script, tmp_path, capsys, monkeypatch):
    import misbounds.verify as verify

    def crash(graph_class, n):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "_scan_order", crash)
    code = script.main(["--out-dir", str(tmp_path), *TINY_SCOPE])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_task_crash_in_the_pool_exits_3(script, tmp_path, capsys, monkeypatch):
    """A task that raises in a pool worker (forked after the patch) ends
    the run with exit 3, not 1, and prints no result line."""
    import misbounds.verify as verify

    def crash(graph_class, shape):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "shape_mis_alpha", crash)
    code = script.main(["--out-dir", str(tmp_path), *TINY_SCOPE, "--jobs", "2"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_files_do_not_depend_on_jobs(script, tmp_path, capsys):
    scope = ["--tree-max-n", "10", "--unicyclic-max-n", "9", "--forest-max-n", "9",
             "--cycle-max-n", "14", "--lemma-limit", "14"]
    files = {}
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}"
        assert script.main(["--out-dir", str(out), *scope, "--jobs", str(jobs)]) == 0
        files[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files[1]) == NINE_FILES
    assert files[1] == files[2] == files[3]


def test_limits_are_checked_before_any_task(script, tmp_path, capsys, monkeypatch):
    import misbounds.verify as verify

    def scanned(graph_class, n):
        raise AssertionError("a scan started")

    monkeypatch.setattr(verify, "_scan_order", scanned)
    code = script.main(["--out-dir", str(tmp_path / "certs"), "--unicyclic-max-n", "15"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: order 15 above unicyclic limit 14\n")
    assert not (tmp_path / "certs").exists()


def test_unicyclic_above_limit_exits_2_with_empty_stdout(tmp_path):
    proc = _run_script(SCRIPT, "--out-dir", str(tmp_path), "--unicyclic-max-n", "15")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: order 15 above unicyclic limit 14\n"


def test_jobs_below_1_exits_2_with_empty_stdout(tmp_path):
    proc = _run_script(SCRIPT, "--out-dir", str(tmp_path / "certs"), *TINY_SCOPE, "--jobs", "-1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: jobs must be at least 1, got -1\n"
    assert not (tmp_path / "certs").exists()


def test_out_dir_naming_a_file_exits_2(tmp_path):
    # os.makedirs raises FileExistsError, a usage error rather than a crash
    plain = tmp_path / "plain"
    plain.write_text("")
    proc = _run_script(SCRIPT, "--out-dir", str(plain), *TINY_SCOPE)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: [Errno 17] File exists: '{plain}'\n"


def test_census_tiny_order_exits_0(capsys):
    assert _load(CENSUS).main(["--class", "tree", "-n", "6"]) == 0
    assert capsys.readouterr().out == (
        "alpha=3 min=5 classes=2 | 5:2\n"
        "alpha=4 min=3 classes=3 | 3:2 4:1\n"
        "alpha=5 min=2 classes=1 | 2:1\n"
    )


def test_census_order_above_limit_exits_2_without_traceback():
    proc = _run_script(CENSUS, "--class", "tree", "-n", "19")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: order 19 above tree limit 18\n"
