from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from misbounds.graphs import (
    Graph,
    canonical_form,
    canonical_graph,
    classify,
    components,
    make_graph,
    parse_dot,
    parse_graph6,
    to_dot,
    write_graph6,
)

from conftest import graphs
from oracle_helpers import (
    brute_canonical,
    delete_vertices,
    find_support_reduction,
    permute,
)


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return make_graph(n, [(0, i) for i in range(1, n)])


class TestMakeGraph:
    def test_c4(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.order == 4 and g.edge_count == 4

    def test_null_graph(self):
        g = make_graph(0, [])
        assert g.order == 0 and g.adj == ()

    def test_duplicate_edges_collapse(self):
        g = make_graph(3, [(0, 1), (0, 1), (1, 2)])
        assert g.edge_count == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 3)])

    def test_symmetry(self):
        g = make_graph(5, [(0, 3), (4, 1)])
        for u in range(5):
            for v in range(5):
                assert g.has_edge(u, v) == g.has_edge(v, u)


class TestClassify:
    def test_cycle_is_unicyclic(self):
        cls = classify(cycle(5))
        assert cls.kind == "unicyclic"
        assert len(cls.cycle) == 5
        assert cls.cycle_parity == "odd"

    def test_star_is_tree(self):
        assert classify(star(5)).kind == "tree"

    def test_two_disjoint_edges(self):
        cls = classify(make_graph(4, [(0, 1), (2, 3)]))
        assert cls.kind == "forest"
        assert cls.component_count == 2

    def test_null_graph(self):
        cls = classify(make_graph(0, []))
        assert cls.kind == "forest" and cls.component_count == 0

    def test_even_parity(self):
        assert classify(cycle(6)).cycle_parity == "even"

    def test_disconnected_with_cycle_is_other(self):
        g = make_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert classify(g).kind == "other"

    def test_recovered_cycle_is_a_cycle(self):
        g = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6)])
        cls = classify(g)
        cyc = cls.cycle
        assert len(cyc) == 4 and len(set(cyc)) == 4
        for i in range(len(cyc)):
            assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])

    @given(graphs(max_n=9))
    def test_kind_matches_edge_count(self, g):
        cls = classify(g)
        connected = cls.component_count <= 1
        if cls.kind == "tree":
            assert connected and g.edge_count == g.order - 1
        elif cls.kind == "unicyclic":
            assert connected and g.edge_count == g.order
        elif cls.kind == "forest":
            assert g.edge_count == g.order - cls.component_count


class TestSupportReduction:
    def test_star_center(self):
        red = find_support_reduction(star(5))
        assert red.support == 0 and red.leaf_count == 4

    def test_bare_cycle_has_none(self):
        assert find_support_reduction(cycle(6)) is None

    def test_null_graph_has_none(self):
        assert find_support_reduction(make_graph(0, [])) is None

    def test_single_edge_picks_higher_endpoint(self):
        red = find_support_reduction(path(2))
        assert red.support == 1
        assert red.leaves == frozenset({0})

    def test_unicyclic_prefers_farthest_from_cycle(self):
        # triangle 0-1-2, then a path 0-3-4 with leaf 5 on 4: the support
        # farthest from the cycle is 4, even though 0 also has leaf 6.
        g = make_graph(
            7, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (0, 6)]
        )
        red = find_support_reduction(g)
        assert red.support == 4
        assert red.leaves == frozenset({5})

    def test_all_leaf_neighbors_returned(self):
        g = make_graph(6, [(0, 1), (1, 2), (1, 3), (1, 4), (4, 5)])
        red = find_support_reduction(g)
        assert red.support == 1
        assert red.leaves == frozenset({0, 2, 3})


class TestEdges:
    @staticmethod
    def _edges_bit_by_bit(g):
        return [(u, v) for u in range(g.order) for v in range(u + 1, g.order) if g.adj[u] >> v & 1]

    def test_matches_bit_by_bit_reference(self):
        import random

        rng = random.Random(4242)
        for n in list(range(0, 40)) + list(range(40, 301, 13)):
            # edges among a random subset of labels, far apart as often as not
            used = sorted(rng.sample(range(n), rng.randint(0, n)))
            pairs = [(used[i], used[j]) for i in range(len(used)) for j in range(i)]
            g = make_graph(n, rng.sample(pairs, min(len(pairs), rng.randint(0, 2 * n))))
            assert g.edges() == self._edges_bit_by_bit(g), n

    def test_random_tree_of_order_4000(self):
        import random

        rng = random.Random(4243)
        built = [(rng.randrange(v), v) for v in range(1, 4000)]
        assert make_graph(4000, built).edges() == sorted(built)


class TestDeleteAndComponents:
    def test_delete_from_cycle(self):
        assert classify(delete_vertices(cycle(4), {0})).kind == "tree"

    def test_delete_nothing(self):
        g = cycle(4)
        assert delete_vertices(g, set()) == g

    def test_delete_closed_neighborhood(self):
        g = path(4)
        assert delete_vertices(g, {0, 1, 2}).order == 1

    def test_relabeling_preserves_adjacency(self):
        g = make_graph(5, [(0, 2), (2, 4), (1, 3)])
        h = delete_vertices(g, {1})
        # survivors 0,2,3,4 -> 0,1,2,3
        assert h.edges() == [(0, 1), (1, 3)]

    def test_two_triangles(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        comps = components(g)
        assert len(comps) == 2
        assert all(c.graph.order == 3 for c in comps)

    def test_connected_graph_single_component(self):
        g = cycle(5)
        comps = components(g)
        assert len(comps) == 1 and comps[0].graph == g

    def test_null_graph_no_components(self):
        assert components(make_graph(0, [])) == []

    @given(graphs(max_n=9))
    def test_components_partition(self, g):
        comps = components(g)
        all_verts = [v for c in comps for v in c.vertices]
        assert sorted(all_verts) == list(range(g.order))
        assert sum(c.graph.order for c in comps) == g.order

    @given(graphs(max_n=8), st.data())
    def test_deletion_preserves_preimage_edges(self, g, data):
        if g.order == 0:
            return
        drop = data.draw(
            st.sets(st.integers(0, g.order - 1), max_size=g.order)
        )
        keep = [v for v in range(g.order) if v not in drop]
        h = delete_vertices(g, drop)
        assert h.order == len(keep)
        for i, u in enumerate(keep):
            for j, v in enumerate(keep):
                assert h.has_edge(i, j) == g.has_edge(u, v)


class TestGraph6:
    def test_hand_unpacked_star(self):
        # 'D' -> 5 vertices; '?{' -> bits 000000 111100, upper-triangle
        # column order, so the four set bits are (0,4),(1,4),(2,4),(3,4).
        g = parse_graph6("D?{")
        assert g == make_graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])

    def test_round_trip_c4(self):
        g = cycle(4)
        assert parse_graph6(write_graph6(g)) == g

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.order == 1 and g.edge_count == 0

    def test_null_graph(self):
        assert write_graph6(make_graph(0, [])) == "?"
        assert parse_graph6("?").order == 0

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")

    def test_large_order_uses_long_size_form(self):
        g = path(70)
        text = write_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_graph6("D?{?")

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            parse_graph6("D?")

    def test_bad_character_rejected(self):
        with pytest.raises(ValueError):
            parse_graph6("D?\x1f")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_graph6("")

    @given(graphs(max_n=12))
    def test_round_trip_random(self, g):
        assert parse_graph6(write_graph6(g)) == g

    def test_padding_bits_ignored(self):
        # order 2 holds one bit; the other five of its character are padding
        assert parse_graph6("A^") == make_graph(2, [])
        assert parse_graph6("A~") == path(2)

    @staticmethod
    def _path_graph6_bitwise(n):
        """P_n written bit by bit, without write_graph6: edge (j-1, j) is
        bit j(j-1)/2 + j-1 of the upper triangle in column order."""
        vals = bytearray((n * (n - 1) // 2 + 5) // 6)
        for j in range(1, n):
            k = j * (j - 1) // 2 + j - 1
            vals[k // 6] |= 32 >> k % 6
        prefix = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
        return prefix + "".join(chr(63 + v) for v in vals)

    def test_long_sparse_string_parses_to_path(self):
        assert parse_graph6(self._path_graph6_bitwise(3000)) == path(3000)

    def test_long_path_writes_bit_by_bit_string(self):
        assert write_graph6(path(3000)) == self._path_graph6_bitwise(3000)


class TestDot:
    def test_single_edge(self):
        text = to_dot(path(2))
        assert "0 -- 1;" in text
        assert text.count("--") == 1

    def test_null_graph_block(self):
        assert to_dot(make_graph(0, [])) == "graph {\n}\n"

    def test_triangle_sorted_edges(self):
        text = to_dot(make_graph(3, [(2, 1), (0, 2), (1, 0)]))
        lines = [l.strip() for l in text.splitlines() if "--" in l]
        assert lines == ["0 -- 1;", "0 -- 2;", "1 -- 2;"]

    @given(graphs(max_n=9))
    def test_dot_round_trip(self, g):
        assert parse_dot(to_dot(g)) == g


class TestCanonicalForm:
    def test_path_relabelings_agree(self):
        a = make_graph(3, [(0, 1), (1, 2)])
        b = make_graph(3, [(1, 0), (0, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_path_vs_triangle_differ(self):
        assert canonical_form(path(3)) != canonical_form(cycle(3))

    def test_paw_has_one_form_over_all_relabelings(self):
        paw = make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        forms = {
            canonical_form(permute(paw, perm)) for perm in permutations(range(4))
        }
        assert len(forms) == 1

    def test_order_limit_enforced(self):
        with pytest.raises(ValueError):
            canonical_form(path(21))

    def test_matches_brute_minimum_on_small_graphs(self):
        samples = [
            make_graph(4, [(0, 1), (1, 2), (2, 3)]),
            make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
            make_graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
            make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
            make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        ]
        for g in samples:
            # same equality classes: canonical graph must be isomorphic
            # to g and shared by the brute-forced minimum relabeling
            assert write_graph6(canonical_graph(g)) == brute_canonical(g)

    def test_partitions_all_small_graphs_exactly_like_brute_force(self):
        # every labeled graph on up to 5 vertices: the canonical form
        # must induce exactly the same equivalence classes as the
        # minimum over all n! relabelings
        from itertools import combinations

        for n in range(6):
            pairs = list(combinations(range(n), 2))
            by_brute = {}
            for mask in range(1 << len(pairs)):
                es = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                g = make_graph(n, es)
                by_brute.setdefault(brute_canonical(g), set()).add(canonical_form(g))
            forms = [next(iter(v)) for v in by_brute.values()]
            assert all(len(v) == 1 for v in by_brute.values())
            assert len(set(forms)) == len(forms)

    @given(graphs(max_n=8), st.data())
    @settings(max_examples=150)
    def test_permutation_invariance(self, g, data):
        perm = data.draw(st.permutations(list(range(g.order))))
        assert canonical_form(g) == canonical_form(permute(g, perm))

    @given(graphs(max_n=8))
    def test_canonical_graph_is_isomorphic_relabeling(self, g):
        h = canonical_graph(g)
        assert h.order == g.order and h.edge_count == g.edge_count
        assert canonical_form(h) == canonical_form(g)
