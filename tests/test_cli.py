from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from misbounds.cli import main
from misbounds.graphs import make_graph, write_graph6

C5_G6 = "DUW"  # one labeling of the 5-cycle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_c5(self, capsys):
        code, out, _ = run(capsys, "count", C5_G6)
        assert code == 0 and out == "5\n"

    def test_large_graph_without_oracle(self, capsys):
        big = write_graph6(make_graph(30, [(i, i + 1) for i in range(29)]))
        code, out, _ = run(capsys, "count", big)
        assert code == 0 and int(out) > 0

    def test_stdin_lines(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("DUW\nD?{\n"))
        code, out, _ = run(capsys, "count")
        assert code == 0 and out == "5\n2\n"

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text("DUW\n\nD?{\n")
        code, out, _ = run(capsys, "count", "--file", str(p))
        assert code == 0 and out == "5\n2\n"

    def test_null_graph(self, capsys):
        code, out, _ = run(capsys, "count", "?")
        assert code == 0 and out == "1\n"
        code, out, _ = run(capsys, "alpha", "?")
        assert code == 0 and out == "0\n"

    def test_invalid_graph6(self, capsys):
        code, _, err = run(capsys, "count", "D?\x1f")
        assert code == 2 and "error" in err


class TestAlphaClassify:
    def test_alpha(self, capsys):
        code, out, _ = run(capsys, "alpha", C5_G6)
        assert code == 0 and out == "2\n"

    def test_classify_unicyclic(self, capsys):
        code, out, _ = run(capsys, "classify", "DUW")
        assert code == 0
        assert out == "unicyclic components=1 cycle=0,2,4,1,3 parity=odd\n"

    def test_classify_tree(self, capsys):
        code, out, _ = run(capsys, "classify", "D?{")
        assert code == 0 and out == "tree components=1\n"


class TestBound:
    def test_unicyclic_first_case(self, capsys):
        code, out, _ = run(capsys, "bound", "--class", "unicyclic", "-n", "4", "-a", "2")
        assert code == 0 and out == "2\n"

    def test_tree(self, capsys):
        code, out, _ = run(capsys, "bound", "--class", "tree", "-n", "8", "-a", "4")
        assert code == 0 and out == "8\n"

    def test_infeasible_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "--class", "tree", "-n", "8", "-a", "1")
        assert code == 2 and "infeasible" in err


class TestConstruct:
    def test_L9_pipes_to_count_12(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "L", "-n", "9")
        assert code == 0
        g6_line, predicted = out.splitlines()
        assert predicted == "predicted_mis=12"
        code, out, _ = run(capsys, "count", g6_line)
        assert out == "12\n"

    def test_T_with_alpha(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "T", "-n", "8", "-a", "5")
        assert code == 0 and out.splitlines()[1] == "predicted_mis=5"

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "cycle", "-n", "3", "--dot")
        assert code == 0
        assert "0 -- 1;" in out and out.strip().endswith("predicted_mis=3")

    def test_triangle_star_spelling(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "triangle-star", "-n", "6")
        assert code == 0 and out.splitlines()[1] == "predicted_mis=3"

    def test_missing_alpha(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "T", "-n", "8")
        assert code == 2


class TestEnumerate:
    def test_trees_n5(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "tree", "-n", "5")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3
        assert lines == sorted(set(lines), key=lines.index)  # no dups, stable

    def test_piping_reproduces_census(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "unicyclic", "-n", "6")
        g6s = out.splitlines()
        assert len(g6s) == 13
        buckets = {}
        for g6 in g6s:
            _, aout, _ = run(capsys, "alpha", g6)
            _, cout, _ = run(capsys, "count", g6)
            a, c = int(aout), int(cout)
            mn, scanned = buckets.get(a, (None, 0))
            buckets[a] = (c if mn is None else min(mn, c), scanned + 1)
        _, vout, _ = run(capsys, "verify", "--class", "unicyclic", "--max-n", "6",
                         "--jobs", "1")
        for line in vout.splitlines():
            if not line.startswith("class=unicyclic n=6 "):
                continue
            fields = dict(kv.split("=") for kv in line.split())
            mn, scanned = buckets[int(fields["alpha"])]
            assert int(fields["min_mis"]) == mn
            assert int(fields["scanned"]) == scanned

    def test_cycle_length_and_alpha_filters(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "unicyclic", "-n", "7",
                           "--cycle-length", "7")
        assert code == 0 and len(out.splitlines()) == 1  # just the bare cycle
        code, out, _ = run(capsys, "enumerate", "--class", "tree", "-n", "8",
                           "--alpha", "7")
        assert code == 0 and len(out.splitlines()) == 1  # just the star

    def test_limit_guard(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "unicyclic", "-n", "15")
        assert code == 2 and "limit" in err


class TestVerify:
    def test_tree_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--class", "tree", "--max-n", "6",
                           "--jobs", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "violations=0"
        assert lines[0] == (
            "class=tree n=2 alpha=1 bound=2 min_mis=2 minimizer_count=1 "
            "witness=A_ scanned=1 status=holds_sharp"
        )

    def test_jobs_byte_identical(self, capsys, tmp_path):
        f1, f8 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(capsys, "verify", "--class", "unicyclic", "--max-n", "7",
            "--jobs", "1", "--out", f1)
        run(capsys, "verify", "--class", "unicyclic", "--max-n", "7",
            "--jobs", "8", "--out", f8)
        assert open(f1).read() == open(f8).read()

    def test_json_out(self, capsys, tmp_path):
        path = str(tmp_path / "c.json")
        code, _, _ = run(capsys, "verify", "--class", "forest", "--max-n", "5",
                         "--jobs", "1", "--out", path)
        data = json.load(open(path))
        assert all(row["status"] == "holds_sharp" for row in data)

    def test_all_witnesses_file(self, capsys, tmp_path):
        path = str(tmp_path / "wit.txt")
        run(capsys, "verify", "--class", "tree", "--max-n", "5", "--jobs", "1",
            "--all-witnesses", path)
        lines = open(path).read().splitlines()
        assert any(line.startswith("tree,5,4,") for line in lines)

    def test_claim1(self, capsys):
        code, out, _ = run(capsys, "verify", "--class", "claim1", "--max-n", "8")
        assert code == 0
        assert out.startswith("claim1 max_n=8 checked=") and "violations=0" in out

    def test_cycle(self, capsys):
        code, out, _ = run(capsys, "verify", "--class", "cycle", "--max-n", "7")
        assert code == 0
        assert out.splitlines()[0] == "n=5 mis=5 bound=5 equality"


class TestLemmasConvert:
    def test_lemmas(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--limit", "8", "--samples", "100")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert all("violations=0" in line for line in lines)

    def test_lemmas_json(self, capsys, tmp_path):
        path = str(tmp_path / "lemmas.json")
        run(capsys, "lemmas", "--limit", "6", "--samples", "50", "--out", path)
        data = json.load(open(path))
        assert {d["lemma"] for d in data} >= {"lemma1_product", "lemma10"}

    def test_convert_to_dot(self, capsys):
        code, out, _ = run(capsys, "convert", "A_")
        assert code == 0 and "0 -- 1;" in out

    def test_convert_round_trip(self, capsys, tmp_path):
        _, dot, _ = run(capsys, "convert", "DUW")
        p = tmp_path / "g.dot"
        p.write_text(dot)
        code, out, _ = run(capsys, "convert", "--to", "graph6", "--file", str(p))
        assert code == 0 and out.strip() == "DUW"

    def test_convert_to_graph6_closes_its_file(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "g.dot"
        p.write_text("graph {\n  0 -- 1;\n}\n")
        opened = []

        def tracking_open(*a, **kw):
            opened.append(open(*a, **kw))
            return opened[-1]

        monkeypatch.setattr("misbounds.cli.open", tracking_open, raising=False)
        code, out, _ = run(capsys, "convert", "--to", "graph6", "--file", str(p))
        assert code == 0 and out == "A_\n"
        assert len(opened) == 1 and opened[0].closed

    def test_convert_to_graph6_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("graph {\n  0 -- 1;\n}\n"))
        code, out, _ = run(capsys, "convert", "--to", "graph6")
        assert code == 0 and out == "A_\n"

    @pytest.mark.parametrize("dot, g6", [
        ("graph { 0 -- 1; }", "A_"),
        ("0 -- 1; 1 -- 2;", write_graph6(make_graph(3, [(0, 1), (1, 2)]))),
    ])
    def test_convert_to_graph6_reads_one_line(self, capsys, tmp_path, dot, g6):
        p = tmp_path / "g.dot"
        p.write_text(dot)
        code, out, _ = run(capsys, "convert", "--to", "graph6", "--file", str(p))
        assert code == 0 and out == g6 + "\n"

    def test_convert_to_graph6_refuses_other_statements(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("graph { 0 -> 1; }"))
        code, out, err = run(capsys, "convert", "--to", "graph6")
        assert code == 2 and out == ""
        assert err == "error: unrecognized DOT statement: '0 -> 1'\n"


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_verify_above_limit_exits_2_before_scanning(self, capsys, monkeypatch):
        def scan(*args):
            raise AssertionError("scanned above the limit")

        monkeypatch.setattr("misbounds.verify._scan_order", scan)
        code, out, err = run(capsys, "verify", "--class", "unicyclic", "--max-n", "15",
                             "--jobs", "1")
        assert code == 2 and out == ""
        assert err == "error: order 15 above unicyclic limit 14\n"

    @pytest.mark.parametrize("graph_class", ["tree", "claim1", "cycle"])
    def test_verify_jobs_below_1_exits_2(self, capsys, graph_class):
        code, out, err = run(capsys, "verify", "--class", graph_class, "--max-n", "6",
                             "--jobs", "0")
        assert (code, out, err) == (2, "", "error: --jobs must be at least 1, got 0\n")

    def test_crash_exits_3_not_1(self, capsys, monkeypatch):
        def crash(g):
            raise RuntimeError("boom")

        monkeypatch.setattr("misbounds.cli.mis_count", crash)
        code, out, err = run(capsys, "count", C5_G6)
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--file", "{missing}/x.g6"],
            ["verify", "--class", "tree", "--max-n", "5", "--jobs", "1",
             "--out", "{missing}/t.csv"],
            ["convert", "--to", "graph6", "--file", "{missing}/x.dot"],
            ["alpha", "--file", "{dir}"],
            ["count", "--file", "{file}/x.g6"],
        ],
        ids=["count-missing", "verify-out-missing-dir", "convert-missing",
             "alpha-directory", "count-under-a-file"],
    )
    def test_unopenable_path_exits_2(self, capsys, tmp_path, argv):
        (tmp_path / "plain").write_text("DUW\n")
        paths = {"missing": tmp_path / "missing", "dir": tmp_path, "file": tmp_path / "plain"}
        code, _, err = run(capsys, *[a.format(**paths) for a in argv])
        assert code == 2
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_permission_denied_exits_2(self, capsys, monkeypatch):
        def denied(path, *a, **kw):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr("misbounds.cli.open", denied, raising=False)
        code, out, err = run(capsys, "count", "--file", "locked.g6")
        assert code == 2 and out == ""
        assert err == "error: [Errno 13] Permission denied: 'locked.g6'\n"

    def test_other_os_error_still_exits_3(self, capsys, monkeypatch):
        def fork_failed(n_max, jobs=1):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr("misbounds.cli.verify_tree_theorem", fork_failed)
        code, out, err = run(capsys, "verify", "--class", "tree", "--max-n", "5")
        assert code == 3 and out == ""
        assert err == (
            "internal error: BlockingIOError: [Errno 11] Resource temporarily unavailable\n"
        )

    def test_convert_to_graph6_refuses_inline(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, err = run(capsys, "convert", "--to", "graph6", "graph { 0 -- 1; }")
        assert code == 2 and out == ""
        assert err == "error: convert --to graph6 reads DOT from --file or stdin, not inline\n"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_both_inline_and_file(self, capsys, tmp_path):
        p = tmp_path / "x.g6"
        p.write_text("DUW\n")
        code, _, err = run(capsys, "count", "DUW", "--file", str(p))
        assert code == 2 and "not both" in err


class TestPackage:
    def test_import_loads_no_numpy(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = "import sys, misbounds.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_count_has_no_oracle_switch(self, capsys):
        code, out, err = run(capsys, "count", "--oracle", C5_G6)
        assert code == 2 and out == "" and "--oracle" in err
