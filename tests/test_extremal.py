from __future__ import annotations

import pytest

from misbounds.bounds import ell_seq, g_seq, h_seq
from misbounds.counting import independence_number, mis_count
from misbounds.extremal import (
    ExtremalSpec,
    build_cycle,
    build_family,
    build_H,
    build_L,
    build_star,
    build_T,
    build_triangle_star,
    predicted_mis,
)
from misbounds.graphs import (
    canonical_form,
    classify,
    make_graph,
    parse_graph6,
    write_graph6,
)

from oracle_helpers import delete_vertices, mis_count_bruteforce


def feasible_tree_pairs(n_lo, n_hi):
    for n in range(n_lo, n_hi + 1):
        for alpha in range(-(-n // 2), n):
            yield n, alpha


def feasible_h_pairs(n_lo, n_hi):
    for n in range(n_lo, n_hi + 1):
        for alpha in range(-(-n // 2), n - 2):
            yield n, alpha


class TestBuildT:
    def test_star_degenerate(self):
        for n in range(2, 10):
            t = build_T(n, n - 1)
            assert canonical_form(t) == canonical_form(build_star(n))
            assert mis_count(t) == 2

    def test_small_example(self):
        t = build_T(6, 4)
        assert classify(t).kind == "tree"
        assert mis_count(t) == g_seq(2) == 3 == mis_count_bruteforce(t)

    def test_mid_example(self):
        t = build_T(10, 5)
        assert mis_count(t) == g_seq(5) == 13 == mis_count_bruteforce(t)

    def test_identities_to_n20(self):
        for n, alpha in feasible_tree_pairs(2, 20):
            t = build_T(n, alpha)
            assert t.order == n
            assert classify(t).kind == "tree"
            assert independence_number(t) == alpha
            assert mis_count(t) == g_seq(n - alpha)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            build_T(8, 3)
        with pytest.raises(ValueError):
            build_T(8, 8)

    def test_deletion_recurrence(self):
        # removing the first spine vertex with its pendant leaves the
        # next family member; removing the first two of each leaves the
        # one after that
        for n, alpha in feasible_tree_pairs(8, 16):
            if n - alpha < 3:
                continue
            k = n - alpha - 1
            t = build_T(n, alpha)
            y, x, u, v = 0, k + 1, 1, k + 2
            a = delete_vertices(t, {x, y})
            b = delete_vertices(t, {x, y, u, v})
            assert mis_count(t) == mis_count(a) + mis_count(b)
            assert canonical_form(a) == canonical_form(build_T(n - 2, alpha - 1))
            assert canonical_form(b) == canonical_form(build_T(n - 4, alpha - 2))


class TestBuildH:
    def test_gap3(self):
        for n in (6, 8, 10):
            alpha = n - 3
            h = build_H(n, alpha)
            assert mis_count(h) == 4 == h_seq(3)

    def test_gap4(self):
        h = build_H(9, 5)
        assert mis_count(h) == 6 == h_seq(4)

    def test_mid_example(self):
        h = build_H(12, 7)
        assert mis_count(h) == h_seq(5) == 10

    def test_identities_to_n20(self):
        for n, alpha in feasible_h_pairs(6, 20):
            h = build_H(n, alpha)
            assert h.order == n
            cls = classify(h)
            assert cls.kind == "unicyclic" and len(cls.cycle) == 4
            assert independence_number(h) == alpha
            assert mis_count(h) == h_seq(n - alpha)

    def test_boundary_shapes(self):
        # empty spine (gap 3) and minimal leaf bundle (even n)
        empty_spine = build_H(6, 3)
        assert classify(empty_spine).kind == "unicyclic"
        assert mis_count(empty_spine) == h_seq(3)
        min_bundle = build_H(10, 5)  # bundle = 2*5-10+1 = 1
        assert mis_count(min_bundle) == h_seq(5)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            build_H(5, 3)
        with pytest.raises(ValueError):
            build_H(9, 7)  # alpha = n-2 not in this family

    def test_deletion_recurrence(self):
        for n, alpha in feasible_h_pairs(10, 18):
            if n - alpha < 5:
                continue
            m = n - alpha - 3
            h = build_H(n, alpha)
            y, x, z, w = 4 + m, 4 + 2 * m, 3 + m, 3 + 2 * m
            a = delete_vertices(h, {x, y})
            b = delete_vertices(h, {x, y, z, w})
            assert mis_count(h) == mis_count(a) + mis_count(b)
            assert canonical_form(a) == canonical_form(build_H(n - 2, alpha - 1))
            assert canonical_form(b) == canonical_form(build_H(n - 4, alpha - 2))


class TestBuildL:
    def test_seven_is_bare_cycle(self):
        l7 = build_L(7)
        assert canonical_form(l7) == canonical_form(build_cycle(7))
        assert mis_count(l7) == 7 == ell_seq(4)

    def test_nine(self):
        assert mis_count(build_L(9)) == 12 == ell_seq(5)

    def test_eleven(self):
        assert mis_count(build_L(11)) == ell_seq(6) == 19
        assert ell_seq(6) == ell_seq(5) + ell_seq(4)

    def test_identities_to_n21(self):
        for n in range(7, 22, 2):
            l = build_L(n)
            assert l.order == n
            cls = classify(l)
            assert cls.kind == "unicyclic" and len(cls.cycle) == 7
            assert independence_number(l) == n // 2
            assert mis_count(l) == ell_seq((n + 1) // 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            build_L(8)
        with pytest.raises(ValueError):
            build_L(5)

    def test_deletion_recurrence(self):
        for n in range(11, 20, 2):
            m = (n - 7) // 2
            l = build_L(n)
            y, x, z, w = 6 + m, 6 + 2 * m, 5 + m, 5 + 2 * m
            a = delete_vertices(l, {x, y})
            b = delete_vertices(l, {x, y, z, w})
            assert mis_count(l) == mis_count(a) + mis_count(b)
            assert canonical_form(a) == canonical_form(build_L(n - 2))
            assert canonical_form(b) == canonical_form(build_L(n - 4))


class TestTriangleStarAndBasics:
    def test_triangle_star_values(self):
        for n in range(4, 16):
            g = build_triangle_star(n)
            assert mis_count(g) == 3
            assert independence_number(g) == n - 2

    def test_bare_triangle(self):
        g = build_triangle_star(3)
        assert canonical_form(g) == canonical_form(build_cycle(3))
        assert mis_count(g) == 3

    def test_example_n5_n10(self):
        assert independence_number(build_triangle_star(5)) == 3
        assert mis_count_bruteforce(build_triangle_star(10)) == 3

    def test_star_and_cycle(self):
        assert canonical_form(build_star(2)) == canonical_form(
            make_graph(2, [(0, 1)])
        )
        assert mis_count(build_star(2)) == 2
        assert mis_count(build_cycle(4)) == 2
        assert independence_number(build_cycle(5)) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            build_triangle_star(2)
        with pytest.raises(ValueError):
            build_star(0)
        with pytest.raises(ValueError):
            build_cycle(2)


class TestPredictedMis:
    def test_values(self):
        assert predicted_mis(ExtremalSpec("T", 7, 4)) == g_seq(3) == 5
        assert predicted_mis(ExtremalSpec("H", 9, 5)) == h_seq(4) == 6
        assert predicted_mis(ExtremalSpec("L", 9)) == 12
        assert predicted_mis(ExtremalSpec("star", 6)) == 2
        assert predicted_mis(ExtremalSpec("star", 1)) == 1
        assert predicted_mis(ExtremalSpec("cycle", 6)) == 5
        assert predicted_mis(ExtremalSpec("triangle_star", 9)) == 3

    def test_matches_actual_counts(self):
        specs = (
            [ExtremalSpec("T", n, a) for n, a in feasible_tree_pairs(2, 14)]
            + [ExtremalSpec("H", n, a) for n, a in feasible_h_pairs(6, 14)]
            + [ExtremalSpec("L", n) for n in range(7, 16, 2)]
            + [ExtremalSpec("star", n) for n in range(1, 8)]
            + [ExtremalSpec("cycle", n) for n in range(3, 12)]
            + [ExtremalSpec("triangle_star", n) for n in range(3, 10)]
        )
        for spec in specs:
            assert mis_count(build_family(spec)) == predicted_mis(spec), spec

    def test_infeasible(self):
        with pytest.raises(ValueError):
            predicted_mis(ExtremalSpec("L", 8))
        with pytest.raises(ValueError):
            predicted_mis(ExtremalSpec("T", 8, 3))
        with pytest.raises(ValueError):
            predicted_mis(ExtremalSpec("nope", 8))
        with pytest.raises(ValueError):
            build_family(ExtremalSpec("T", 8, None))
        for family in ("L", "star", "cycle", "triangle_star"):
            with pytest.raises(ValueError, match="fixes alpha"):
                predicted_mis(ExtremalSpec(family, 9, 2))

    @pytest.mark.parametrize("family", ["T", "H"])
    def test_missing_alpha(self, family):
        with pytest.raises(ValueError, match=f"family {family} needs an independence number"):
            predicted_mis(ExtremalSpec(family, 7))


class TestSerialization:
    def test_graph6_round_trip_all_families(self):
        specs = (
            [ExtremalSpec("T", 12, a) for a in range(6, 12)]
            + [ExtremalSpec("H", 12, a) for a in range(6, 10)]
            + [ExtremalSpec("L", 13), ExtremalSpec("star", 9),
               ExtremalSpec("cycle", 9), ExtremalSpec("triangle_star", 9)]
        )
        for spec in specs:
            g = build_family(spec)
            assert parse_graph6(write_graph6(g)) == g

    def test_labeling_is_reproducible(self):
        assert write_graph6(build_H(11, 6)) == write_graph6(build_H(11, 6))
        assert write_graph6(build_L(13)) == write_graph6(build_L(13))
