from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from misbounds.generate import forests, free_trees
from misbounds.graphs import (
    ISO_LIMIT,
    Graph,
    _CanonSearch,
    _component_masks,
    _encode,
    _pack_graph6,
    _refine,
    _single_path,
    canonical_form,
    classify,
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
    refine_reference,
    single_path_reference,
    split_components,
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
        assert list(_component_masks(g)) == [0b000111, 0b111000]

    def test_connected_graph_single_component(self):
        assert list(_component_masks(cycle(5))) == [0b11111]

    def test_null_graph_no_components(self):
        assert list(_component_masks(make_graph(0, []))) == []

    @given(graphs(max_n=9))
    def test_components_partition(self, g):
        masks = list(_component_masks(g))
        want = split_components(g)
        assert masks == [sum(1 << v for v in verts) for _, verts in want]
        assert sum(m.bit_count() for m in masks) == g.order

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
            # the form is the minimum graph6 text over all relabelings
            assert canonical_form(g).decode() == brute_canonical(g)

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
    def test_form_parses_to_an_isomorphic_relabeling(self, g):
        form = canonical_form(g)
        h = parse_graph6(form.decode())
        assert h.order == g.order and h.edge_count == g.edge_count
        assert canonical_form(h) == form


class TestGraph6Packing:
    """canonical_form packs an _encode bitstring into graph6 itself. The
    bytes must be write_graph6 of the graph relabeled the same way. From
    order 2 to 20 the bit count n(n-1)/2 is 0, 1, 3 and 4 mod 6, so every
    padding length the orders reach is checked."""

    def test_matches_write_graph6_of_the_relabeled_graph(self):
        import random

        rng = random.Random(6)
        paddings = set()
        for n in range(2, ISO_LIMIT + 1):
            paddings.add(n * (n - 1) // 2 % 6)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                g = make_graph(n, [e for e in pairs if rng.random() < p])
                lab = list(range(n))
                rng.shuffle(lab)
                pos = {v: i for i, v in enumerate(lab)}
                h = make_graph(n, [(pos[u], pos[v]) for u, v in g.edges()])
                assert _pack_graph6(n, _encode(g.adj, lab)) == write_graph6(h).encode(), (n, p)
        assert paddings == {0, 1, 3, 4}


def _random_graph(rng, n):
    p = rng.random()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(n, [e for e in pairs if rng.random() < p])


class TestInertRefinement:
    """_refine skips cells that have already been the splitter; its cells
    must equal the reference refinement, which retries every splitter."""

    def test_matches_reference_on_random_partitions(self):
        import random

        rng = random.Random(1990)
        for _ in range(2000):
            n = rng.randint(1, 11)
            g = _random_graph(rng, n)
            verts = list(range(n))
            rng.shuffle(verts)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            cells = [verts[a:b] for a, b in zip([0] + cuts, cuts + [n])]
            reference = refine_reference(g.adj, cells)
            refined, inert = _refine(g.adj, _masks(cells), set())
            assert refined == _masks(reference)
            assert set(refined) <= inert
            # individualize as the search does, carrying the inert masks down
            k = next((i for i, c in enumerate(reference) if len(c) > 1), None)
            if k is not None:
                v = rng.choice(reference[k])
                rest = [w for w in reference[k] if w != v]
                child = reference[:k] + [[v], rest] + reference[k + 1 :]
                carried = set(inert)
                expected = _masks(refine_reference(g.adj, child))
                assert _refine(g.adj, _masks(child), inert)[0] == expected
                assert inert == carried  # siblings reuse the parent's set


def _masks(cells):
    return [sum(1 << v for v in cell) for cell in cells]


class TestForestSinglePath:
    """On a forest _single_path follows one vertex per level. It must reach
    the full search's minimum encoding on every generated tree and forest,
    as generated and under a shuffled labeling: the generator's labels are
    structured, and shuffled ones exercise the orbit argument."""

    @pytest.mark.parametrize("stream, top, seed", [(free_trees, 14, 1990), (forests, 12, 2017)])
    def test_matches_full_search(self, stream, top, seed):
        import random

        rng = random.Random(seed)
        for n in range(1, top + 1):
            for g in stream(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, permute(g, perm)):
                    assert _single_path(h.adj, n) == _CanonSearch(h).run(), write_graph6(h)

    @pytest.mark.parametrize("stream, top, seed", [(free_trees, 12, 1990), (forests, 10, 2017)])
    def test_twin_peeling_matches_vertex_by_vertex(self, stream, top, seed):
        # The forests hold isolated vertices (twins with an empty
        # neighbourhood, split in one step) and K2 components, whose two
        # ends are twins only with each end counted in its own
        # neighbourhood and are split one vertex at a time.
        import random

        rng = random.Random(seed)
        for n in range(1, top + 1):
            for g in stream(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, permute(g, perm)):
                    expected = single_path_reference(h.adj, n)
                    assert _single_path(h.adj, n) == expected, write_graph6(h)

    def test_only_forests_take_the_single_path(self, monkeypatch):
        import misbounds.graphs as graphs_mod

        routes = []
        walk, search = graphs_mod._single_path, graphs_mod._CanonSearch
        monkeypatch.setattr(
            graphs_mod, "_single_path", lambda adj, n: routes.append("path") or walk(adj, n)
        )
        monkeypatch.setattr(graphs_mod, "_CanonSearch", lambda g: routes.append("search") or search(g))
        triangle_and_edge = make_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        for g in (path(6), star(5), make_graph(5, [(0, 1), (2, 3)]), cycle(6), triangle_and_edge):
            canonical_form(g)
        assert routes == ["path", "path", "path", "search", "search"]
