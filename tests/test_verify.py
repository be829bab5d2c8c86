from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from misbounds.bounds import BoundQuery, ell_seq, g_seq, tree_bound, unicyclic_bound
from misbounds.counting import independence_number, mis_count, shape_mis_alpha
from misbounds.extremal import build_H, build_L, build_star, build_T, build_triangle_star
from misbounds.generate import (
    FOREST_LIMIT,
    TREE_LIMIT,
    UNICYCLIC_LIMIT,
    unicyclic_graph,
    unicyclic_graphs,
    unicyclic_shapes,
)
from misbounds.graphs import canonical_form, classify, parse_graph6
from misbounds.verify import (
    CSV_COLUMNS,
    CertifyScope,
    _scan_order,
    certify,
    export_certificates,
    records_from_json,
    records_to_csv,
    records_to_json,
    verify_claim1,
    verify_cycle_bound,
    verify_forest_corollary,
    verify_tree_theorem,
    verify_unicyclic_theorem,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestTreeTheorem:
    def test_no_violations_and_all_sharp(self):
        res = verify_tree_theorem(9)
        assert res.violations == []
        assert all(r.status == "holds_sharp" for r in res.records)

    def test_bounds_and_minima_match_formula(self):
        res = verify_tree_theorem(9)
        for r in res.records:
            assert r.bound == g_seq(r.n - r.alpha)
            assert r.min_mis == r.bound

    def test_alpha_coverage(self):
        res = verify_tree_theorem(9)
        byn = {}
        for r in res.records:
            byn.setdefault(r.n, set()).add(r.alpha)
        for n in range(2, 10):
            assert byn[n] == set(range(-(-n // 2), n))

    def test_star_cell(self):
        res = verify_tree_theorem(5)
        r = next(x for x in res.records if x.n == 5 and x.alpha == 4)
        assert r.bound == 2 and r.min_mis == 2 and r.minimizer_count == 1
        assert canonical_form(parse_graph6(r.witness)) == canonical_form(build_star(5))

    def test_n2_cell(self):
        res = verify_tree_theorem(2)
        (r,) = res.records
        assert (r.n, r.alpha, r.bound, r.min_mis) == (2, 1, 2, 2)

    def test_witnesses_check_out(self):
        res = verify_tree_theorem(8)
        for r in res.records:
            w = parse_graph6(r.witness)
            assert classify(w).kind == "tree"
            assert w.order == r.n
            assert independence_number(w) == r.alpha
            assert mis_count(w) == r.min_mis

    def test_extremal_family_attains_minimum(self):
        res = verify_tree_theorem(9)
        for r in res.records:
            t = build_T(r.n, r.alpha)
            assert mis_count(t) == r.min_mis
            witnesses = res.all_witnesses[("tree", r.n, r.alpha)]
            assert canonical_form(t).decode("ascii") in witnesses
            assert len(witnesses) == r.minimizer_count

    def test_scanned_totals(self):
        res = verify_tree_theorem(8)
        per_n = {}
        for r in res.records:
            per_n[r.n] = per_n.get(r.n, 0) + r.graphs_scanned
        assert per_n == {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_tree_theorem(1)


class TestUnicyclicTheorem:
    def test_no_violations_and_all_sharp(self):
        res = verify_unicyclic_theorem(9)
        assert res.violations == []
        assert all(r.status == "holds_sharp" for r in res.records)

    def test_bounds_match_piecewise_formula(self):
        res = verify_unicyclic_theorem(9)
        for r in res.records:
            assert r.bound == unicyclic_bound(BoundQuery("unicyclic", r.n, r.alpha))

    def test_boundary_cells(self):
        from misbounds.extremal import build_cycle

        res = verify_unicyclic_theorem(9)
        cell = {(r.n, r.alpha): r for r in res.records}
        assert cell[(4, 2)].min_mis == 2
        assert canonical_form(parse_graph6(cell[(4, 2)].witness)) == canonical_form(
            build_cycle(4)
        )
        for n in range(3, 10):
            assert cell[(n, n - 2)].min_mis == (2 if n == 4 else 3)
        for n in (5, 7, 9):
            assert cell[(n, n // 2)].min_mis == ell_seq((n + 1) // 2)
        assert canonical_form(parse_graph6(cell[(7, 3)].witness)) == canonical_form(
            build_cycle(7)
        )

    def test_alpha_coverage(self):
        res = verify_unicyclic_theorem(9)
        byn = {}
        for r in res.records:
            byn.setdefault(r.n, set()).add(r.alpha)
        for n in range(3, 10):
            assert byn[n] == set(range(n // 2, n - 1))

    def test_extremal_families_attain_minimum(self):
        res = verify_unicyclic_theorem(9)
        cell = {(r.n, r.alpha): r for r in res.records}
        for (n, alpha), r in cell.items():
            if alpha == n - 2:
                assert mis_count(build_triangle_star(n)) == r.min_mis or n == 4
            elif n >= 7 and n % 2 == 1 and alpha == n // 2:
                assert mis_count(build_L(n)) == r.min_mis
            elif n >= 6 and -(-n // 2) <= alpha < n - 2:
                assert mis_count(build_H(n, alpha)) == r.min_mis

    def test_extremal_canonical_forms_appear_among_minimizers(self):
        from misbounds.extremal import build_cycle

        res = verify_unicyclic_theorem(9)
        for r in res.records:
            n, alpha = r.n, r.alpha
            if n == 4 and alpha == 2:
                family = build_cycle(4)
            elif alpha == n - 2:
                family = build_triangle_star(n)
            elif n % 2 == 1 and alpha == n // 2:
                family = build_L(n) if n >= 7 else build_cycle(n)
            else:
                family = build_H(n, alpha)
            witnesses = res.all_witnesses[("unicyclic", n, alpha)]
            assert canonical_form(family).decode("ascii") in witnesses, (n, alpha)

    @pytest.mark.parametrize(
        "runner, n_max",
        [(verify_tree_theorem, 9), (verify_unicyclic_theorem, 8), (verify_forest_corollary, 8)],
        ids=["tree", "unicyclic", "forest"],
    )
    def test_jobs_do_not_change_records(self, runner, n_max):
        a = runner(n_max, jobs=1)
        b = runner(n_max, jobs=2)
        assert records_to_csv(a.records) == records_to_csv(b.records)
        assert a.all_witnesses == b.all_witnesses


class TestForestCorollary:
    def test_no_violations_and_all_sharp(self):
        res = verify_forest_corollary(9)
        assert res.violations == []
        assert all(r.status == "holds_sharp" for r in res.records)
        for r in res.records:
            assert r.bound == tree_bound(BoundQuery("forest", r.n, r.alpha))

    def test_edgeless_cell(self):
        res = verify_forest_corollary(4)
        r = next(x for x in res.records if x.n == 4 and x.alpha == 4)
        assert r.bound == 1 and r.min_mis == 1

    def test_order6_gap3_cell(self):
        res = verify_forest_corollary(6)
        r = next(x for x in res.records if x.n == 6 and x.alpha == 3)
        assert r.bound == g_seq(3) == 5 and r.min_mis == 5

    def test_alpha_range_extends_to_n(self):
        res = verify_forest_corollary(6)
        byn = {}
        for r in res.records:
            byn.setdefault(r.n, set()).add(r.alpha)
        for n in range(1, 7):
            assert byn[n] == set(range(-(-n // 2), n + 1))


class TestOrderLimits:
    """An order above the generator's limit is refused before any scan."""

    @pytest.mark.parametrize(
        "runner, graph_class, limit",
        [
            (verify_tree_theorem, "tree", TREE_LIMIT),
            (verify_unicyclic_theorem, "unicyclic", UNICYCLIC_LIMIT),
            (verify_forest_corollary, "forest", FOREST_LIMIT),
        ],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_refused_before_scanning(self, monkeypatch, runner, graph_class, limit, jobs):
        def scan(*args):
            raise AssertionError(f"scanned {args} above the limit")

        monkeypatch.setattr("misbounds.verify._scan_order", scan)
        with pytest.raises(ValueError) as exc:
            runner(limit + 1, jobs=jobs)
        assert str(exc.value) == f"order {limit + 1} above {graph_class} limit {limit}"


class TestWorkerBound:
    """A job count above the core count or the order count forks no more
    workers than either; each order is one task, largest first."""

    @pytest.mark.parametrize("cores, workers", [(3, 3), (8, 6), (None, None)])
    def test_jobs_clamped_to_cores(self, monkeypatch, cores, workers):
        import misbounds.verify as verify

        want = verify_tree_theorem(7, jobs=1).records
        seen = {"workers": None, "orders": None}

        class SerialPool:
            def __init__(self, max_workers):
                seen["workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                seen["orders"] = [args[1] for _, args in tasks]
                return map(fn, tasks)

        monkeypatch.setattr(verify.os, "cpu_count", lambda: cores)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        assert verify_tree_theorem(7, jobs=4096).records == want
        assert seen["workers"] == workers
        if cores is None:
            assert seen["orders"] is None
        else:
            assert workers == min(4096, cores, len(range(2, 8)))
            assert seen["orders"] == [7, 6, 5, 4, 3, 2]

    def test_import_loads_no_pool_machinery(self):
        """The pool module is imported only where a pool starts, so a CLI
        call or a one-worker run never loads it. The value types are
        NamedTuples, so neither is `dataclasses` (nor `inspect`, which it
        loads)."""
        unwanted = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
        code = f"import sys, misbounds; print([m for m in {unwanted} if m in sys.modules])"
        path = [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


class TestBuildsOnlyMinimizers:
    """The scan counts shapes and builds a Graph only for the shapes tied
    at the minimum when an order ends: one per minimizer."""

    @pytest.mark.parametrize(
        "runner, n_max", [(verify_tree_theorem, 10), (verify_unicyclic_theorem, 9)]
    )
    def test_make_graph_calls_equal_minimizers(self, monkeypatch, runner, n_max):
        import misbounds.generate as generate

        calls = []
        build = generate.make_graph
        monkeypatch.setattr(generate, "make_graph", lambda *a: calls.append(1) or build(*a))
        result = runner(n_max, jobs=1)
        assert len(calls) == sum(r.minimizer_count for r in result.records)
        assert len(calls) < sum(r.graphs_scanned for r in result.records)


class TestIndependentCensusReconstruction:
    def test_unicyclic_order9_census_from_pure_python_oracle(self):
        # rebuild the whole (alpha -> min, count) table for order 9 with
        # the naive subset oracle only, then compare every record field
        from misbounds.generate import unicyclic_graphs
        from oracle_helpers import brute_alpha, brute_mis_count

        table = {}
        for g in unicyclic_graphs(9):
            a = brute_alpha(g)
            m = brute_mis_count(g)
            mn, cnt, scanned = table.get(a, (None, 0, 0))
            if mn is None or m < mn:
                table[a] = (m, 1, scanned + 1)
            elif m == mn:
                table[a] = (mn, cnt + 1, scanned + 1)
            else:
                table[a] = (mn, cnt, scanned + 1)
        res = verify_unicyclic_theorem(9)
        records = [r for r in res.records if r.n == 9]
        assert {r.alpha for r in records} == set(table)
        for r in records:
            mn, cnt, scanned = table[r.alpha]
            assert (r.min_mis, r.minimizer_count, r.graphs_scanned) == (
                mn,
                cnt,
                scanned,
            )


class TestGoldenCertificate:
    def test_tree_certificate_bytes_to_order_6(self):
        want = (
            "class,n,alpha,bound,min_mis,minimizer_count,witness_graph6,"
            "graphs_scanned,status\n"
            "tree,2,1,2,2,1,A_,1,holds_sharp\n"
            "tree,3,2,2,2,1,BW,1,holds_sharp\n"
            "tree,4,2,3,3,1,CL,1,holds_sharp\n"
            "tree,4,3,2,2,1,CF,1,holds_sharp\n"
            "tree,5,3,3,3,1,D@s,2,holds_sharp\n"
            "tree,5,4,2,2,1,D?{,1,holds_sharp\n"
            "tree,6,3,5,5,2,E@QW,2,holds_sharp\n"
            "tree,6,4,3,3,2,E?Fg,3,holds_sharp\n"
            "tree,6,5,2,2,1,E?Bw,1,holds_sharp\n"
        )
        assert records_to_csv(verify_tree_theorem(6).records) == want


class TestClaim1:
    def test_no_violations_small(self):
        rep = verify_claim1(9)
        assert rep.violations == []
        assert rep.graphs_checked > 0

    def test_five_vertex_even_cycle_case(self):
        # the single even-cycle unicyclic graph on 5 vertices is C_4 plus
        # a pendant; its independence number 3 meets ceil(5/2)
        rep = verify_claim1(5)
        assert rep.violations == []
        from misbounds.generate import unicyclic_graphs
        from misbounds.graphs import classify as cls_fn

        evens = [g for g in unicyclic_graphs(5) if cls_fn(g).cycle_parity == "even"]
        assert len(evens) == 1
        assert independence_number(evens[0]) == 3

    def test_shapes_match_graphs_to_order_12(self):
        """Claim 1 reads alpha from shapes, so the generator's cycle filter
        and the graph alpha route are checked against each other here: over
        every even cycle, the shape count equals the number of even-cycle
        graphs by classify, and each shape's alpha equals its graph's."""
        total = 0
        for n in range(3, 13):
            shapes = [s for c in range(4, n + 1, 2) for s in unicyclic_shapes(n, cycle=c)]
            for s in shapes:
                alpha = independence_number(unicyclic_graph(s))
                assert shape_mis_alpha("unicyclic", s)[1] == alpha
            evens = sum(classify(g).cycle_parity == "even" for g in unicyclic_graphs(n))
            assert len(shapes) == evens
            total += evens
        assert total == verify_claim1(12).graphs_checked == 3077

    def test_violations_are_canonical_forms_in_stream_order(self, monkeypatch):
        import misbounds.verify as verify

        real = verify.shape_mis_alpha
        order6 = [s for c in (4, 6) for s in unicyclic_shapes(6, cycle=c)]

        def fake(graph_class, shape):
            m, alpha = real(graph_class, shape)
            return m, 0 if shape in order6 else alpha

        monkeypatch.setattr(verify, "shape_mis_alpha", fake)
        rep = verify_claim1(6)
        assert rep.violations == [canonical_form(unicyclic_graph(s)).decode() for s in order6]
        assert rep.graphs_checked == verify_claim1(5).graphs_checked + len(order6)

    def test_trees_and_forests_tally_nothing(self):
        """A tree's bicentroid shape is a pair, so the scan must check the
        class, not only the shape's length, before counting a cycle."""
        for n in range(1, 11):
            assert _scan_order("tree", n)[1] == (0, [])
            assert _scan_order("forest", n)[1] == (0, [])

    def test_jobs_do_not_change_the_report(self):
        assert verify_claim1(11, jobs=1) == verify_claim1(11, jobs=2)

    def test_orders_run_as_tasks_largest_first(self, monkeypatch):
        import misbounds.verify as verify

        seen = []
        real = verify._run_tasks

        def run_tasks(tasks, jobs):
            seen.append(([args for _, args in tasks], jobs))
            return real(tasks, 1)

        monkeypatch.setattr(verify, "_run_tasks", run_tasks)
        assert verify_claim1(7, jobs=2) == verify_claim1(7)
        orders = [("unicyclic", n) for n in (7, 6, 5, 4)]
        assert seen == [(orders, 2), (orders, 1)]

    def test_serializes(self):
        rep = verify_claim1(6)
        d = rep.to_dict()
        assert d["violations"] == [] and d["graphs_checked"] == rep.graphs_checked
        assert list(d) == ["claim", "n_max", "graphs_checked", "violations"]


class TestCertifyChecks:
    """certify refuses a bad scope before any task, and makes out_dir
    after the scope checks but before the tasks run."""

    @pytest.fixture
    def no_tasks(self, monkeypatch):
        def run_tasks(tasks, jobs):
            raise AssertionError("a task started")

        monkeypatch.setattr("misbounds.verify._run_tasks", run_tasks)

    def test_bad_out_dir_fails_before_any_task(self, tmp_path, no_tasks):
        (tmp_path / "file").write_text("")
        with pytest.raises(NotADirectoryError):
            certify(str(tmp_path / "file" / "sub"))

    @pytest.mark.parametrize("scope, message", [
        (CertifyScope(forest_max_n=FOREST_LIMIT + 1),
         f"order {FOREST_LIMIT + 1} above forest limit {FOREST_LIMIT}"),
        (CertifyScope(unicyclic_max_n=3), "need n_max >= 4"),
    ])
    def test_refused_scope_makes_no_directory(self, tmp_path, no_tasks, scope, message):
        out = tmp_path / "certs"
        with pytest.raises(ValueError) as exc:
            certify(str(out), scope)
        assert str(exc.value) == message
        assert not out.exists()


class TestCycleBound:
    def test_holds_to_40(self):
        rep = verify_cycle_bound(40)
        assert rep.violations == []

    def test_equalities_include_base_orders(self):
        rep = verify_cycle_bound(12)
        assert rep.equality_orders == [5, 6, 7, 9]

    def test_row_values(self):
        rep = verify_cycle_bound(10)
        rows = {r.n: r for r in rep.rows}
        assert rows[5].mis == 5 and rows[5].bound == 5 and rows[5].equality
        assert rows[6].mis == 5 and rows[6].bound == 5 and rows[6].equality
        assert rows[9].mis == 12 and rows[9].bound == 12 and rows[9].equality
        assert rows[10].mis == 17 and rows[10].bound == 12 and not rows[10].equality


class TestExport:
    def test_csv_header_only_when_empty(self):
        assert records_to_csv([]) == (
            "class,n,alpha,bound,min_mis,minimizer_count,witness_graph6,"
            "graphs_scanned,status\n"
        )

    def test_single_row_field_order(self):
        res = verify_tree_theorem(2)
        text = records_to_csv(res.records)
        lines = text.splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "tree" and fields[1] == "2" and fields[-1] == "holds_sharp"

    def test_json_round_trip(self):
        res = verify_tree_theorem(6)
        text = records_to_json(res.records)
        back = records_from_json(text)
        assert back == sorted(
            res.records, key=lambda r: (r.graph_class, r.n, r.alpha)
        )
        assert all(list(d) == list(CSV_COLUMNS) for d in json.loads(text))

    def test_export_files(self, tmp_path):
        res = verify_tree_theorem(5)
        csv_path = export_certificates(res.records, str(tmp_path / "c.csv"))
        json_path = export_certificates(res.records, str(tmp_path / "c.json"))
        assert open(csv_path).read() == records_to_csv(res.records)
        assert records_from_json(open(json_path).read()) == records_from_json(
            records_to_json(res.records)
        )

    def test_json_rejects_then_csv_default(self, tmp_path):
        path = export_certificates([], str(tmp_path / "plain.out"))
        assert open(path).read().startswith("class,")
