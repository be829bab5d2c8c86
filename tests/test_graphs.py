from __future__ import annotations

import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from misbounds.extremal import build_H, build_T
from misbounds.generate import forests, free_trees, unicyclic_graphs
from misbounds.graphs import (
    Graph,
    _component_masks,
    _refine,
    _single_path,
    canonical_form,
    classify,
    graph6_blocks,
    make_graph,
    parse_dot,
    parse_graph6,
    to_dot,
    write_graph6,
)

from conftest import graphs, labeled_forests, trees_with_extra_edges
from oracle_helpers import (
    _CanonSearch,
    _encode,
    _pack_graph6,
    brute_canonical,
    delete_vertices,
    find_support_reduction,
    permute,
    refine_reference,
    search_canonical_form,
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

    def test_blocks_join_to_the_graph_across_block_boundaries(self):
        # Order 7000 takes four body blocks, which start at columns 1,
        # 3540, 5004 and 6132; a path runs through every boundary column
        # and random chords land in every block.
        import random

        rng = random.Random(6)
        n = 7000
        edges = [(j - 1, j) for j in range(1, n)]
        edges += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(3000)]
        g = make_graph(n, edges)
        pieces = list(graph6_blocks(g))
        assert pieces[0] == "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
        assert len(pieces) == 5
        assert parse_graph6("".join(pieces)) == g

    def test_order_above_the_size_forms_refused_before_allocating(self):
        # Order 258048 would need a 5.5 GB buffer; the child's address
        # space is capped at 1 GiB, so only a refusal made before the
        # buffer is allocated prints ValueError.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from misbounds.graphs import make_graph, write_graph6\n"
            "try:\n"
            "    write_graph6(make_graph(258048, []))\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "ValueError\n"), proc.stderr


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

    def test_vertex_numbers_stop_below_the_graph6_order_limit(self):
        assert parse_dot("graph { 258046 }").order == 258047
        assert parse_dot("graph { 007 -- 0 }") == make_graph(8, [(0, 7)])
        for text in ("graph { 258047 }", "graph { 0 -- 1000000000000 }", "9" * 5000):
            with pytest.raises(ValueError, match="below 258047"):
                parse_dot(text)


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

    def test_refuses_two_cycles(self):
        k4 = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        c3_c6 = make_graph(9, cycle(3).edges() + [(3 + u, 3 + v) for u, v in cycle(6).edges()])
        k4_minus_edge = make_graph(4, k4.edges()[1:])
        for g in (c3_c6, k4, k4_minus_edge):
            with pytest.raises(ValueError, match="at most one cycle"):
                canonical_form(g)

    def test_matches_brute_minimum_on_small_graphs(self):
        samples = [
            make_graph(4, [(0, 1), (1, 2), (2, 3)]),
            make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
            make_graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
            make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        ]
        for g in samples:
            # the form is the minimum graph6 text over all relabelings
            assert canonical_form(g).decode() == brute_canonical(g)
        two_triangles = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert search_canonical_form(two_triangles).decode() == brute_canonical(two_triangles)

    def test_partitions_all_small_graphs_exactly_like_brute_force(self):
        # every labeled graph on up to 5 vertices: each route must
        # induce exactly the same equivalence classes as the minimum
        # over all n! relabelings; canonical_form on the graphs with at
        # most one cycle, the full search on every graph
        from itertools import combinations

        for n in range(6):
            pairs = list(combinations(range(n), 2))
            by_route = {"path": {}, "search": {}}
            for mask in range(1 << len(pairs)):
                es = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                g = make_graph(n, es)
                brute = brute_canonical(g)
                by_route["search"].setdefault(brute, set()).add(search_canonical_form(g))
                if len(es) <= n - sum(1 for _ in _component_masks(g)) + 1:
                    by_route["path"].setdefault(brute, set()).add(canonical_form(g))
            for by_brute in by_route.values():
                forms = [next(iter(v)) for v in by_brute.values()]
                assert all(len(v) == 1 for v in by_brute.values())
                assert len(set(forms)) == len(forms)

    # canonical_form on graphs with at most one cycle, the full search
    # on any graph
    ONE_CYCLE = st.one_of(trees_with_extra_edges(max_extra=1), labeled_forests())

    @given(ONE_CYCLE, graphs(max_n=8), st.data())
    @settings(max_examples=150)
    def test_permutation_invariance(self, g, any_g, data):
        for form_of, h in ((canonical_form, g), (search_canonical_form, any_g)):
            perm = data.draw(st.permutations(list(range(h.order))))
            assert form_of(h) == form_of(permute(h, perm))

    @given(ONE_CYCLE, graphs(max_n=8))
    def test_form_parses_to_an_isomorphic_relabeling(self, g, any_g):
        for form_of, h in ((canonical_form, g), (search_canonical_form, any_g)):
            form = form_of(h)
            back = parse_graph6(form.decode())
            assert back.order == h.order and back.edge_count == h.edge_count
            assert form_of(back) == form

    def test_extremal_families_up_to_order_40(self):
        # every T cell with n <= 40 and every H cell with 6 <= n <= 40:
        # the form survives a shuffled labeling and parses back to a
        # graph with the same form
        import random

        cells = [(build_T, n, a) for n in range(2, 41) for a in range(-(-n // 2), n)]
        cells += [(build_H, n, a) for n in range(6, 41) for a in range(-(-n // 2), n - 2)]
        assert len(cells) == 400 + 324
        rng = random.Random(1980)
        for build, n, alpha in cells:
            g = build(n, alpha)
            perm = list(range(n))
            rng.shuffle(perm)
            form = canonical_form(g)
            assert canonical_form(permute(g, perm)) == form, (build.__name__, n, alpha)
            assert canonical_form(parse_graph6(form.decode())) == form


    def test_forms_of_the_certify_streams_pinned(self):
        # Every tree to 14, forest to 12 and unicyclic graph to 12 in
        # stream order: the certificates' witnesses are among these forms,
        # so a change to the refinement or the writer that moves any form
        # shows here.
        import hashlib

        digest, count = hashlib.sha256(), 0
        for stream, low, top in ((free_trees, 1, 14), (forests, 1, 12), (unicyclic_graphs, 3, 12)):
            for n in range(low, top + 1):
                for g in stream(n):
                    digest.update(canonical_form(g))
                    count += 1
        assert count == 16_267
        assert digest.hexdigest() == (
            "bc9f96e18964923f0b163962856052959ce2d2b127a3817ef446aae0108fa4c2")


class TestGraph6Packing:
    """The oracle's search packs an _encode bitstring into graph6 itself.
    The bytes must be write_graph6 of the graph relabeled the same way,
    and write_graph6 of the graph given that labeling, which is how
    canonical_form writes them. From order 2 to 20 the bit count
    n(n-1)/2 is 0, 1, 3 and 4 mod 6, so every padding length the orders
    reach is checked."""

    def test_matches_write_graph6_of_the_relabeled_graph(self):
        import random

        rng = random.Random(6)
        paddings = set()
        for n in range(2, 21):
            paddings.add(n * (n - 1) // 2 % 6)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                g = make_graph(n, [e for e in pairs if rng.random() < p])
                lab = list(range(n))
                rng.shuffle(lab)
                pos = {v: i for i, v in enumerate(lab)}
                h = make_graph(n, [(pos[u], pos[v]) for u, v in g.edges()])
                assert _pack_graph6(n, _encode(g.adj, lab)) == write_graph6(h).encode(), (n, p)
                assert write_graph6(g, lab) == write_graph6(h), (n, p)
        assert paddings == {0, 1, 3, 4}

    def test_labeling_across_a_block_boundary(self):
        # The second body block starts at column 3540; a shuffled path
        # with chords puts edges on both sides of it and across it.
        import random

        rng = random.Random(7)
        n = 3600
        edges = [(j - 1, j) for j in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(500)]
        g = make_graph(n, edges)
        lab = list(range(n))
        rng.shuffle(lab)
        pos = {v: i for i, v in enumerate(lab)}
        h = make_graph(n, [(pos[u], pos[v]) for u, v in g.edges()])
        pieces = list(graph6_blocks(g, lab))
        assert len(pieces) == 3
        assert "".join(pieces) == write_graph6(g, lab) == write_graph6(h)

    @pytest.mark.parametrize("lab", [[0, 0, 1], [0, 1], [0, 1, 3], [2, 1, 0, 3]])
    def test_labeling_must_list_each_vertex_once(self, lab):
        g = make_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            write_graph6(g, lab)


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


def unicyclic(n):
    """unicyclic_graphs, empty below order 3."""
    return unicyclic_graphs(n) if n >= 3 else iter(())


def cycle_plus_forest(n, count=56):
    """count seeded graphs of order n >= 4, each a unicyclic graph (a
    cycle with a tree grown on it) beside a forest of at least one vertex."""
    import random

    rng = random.Random(n)
    for _ in range(count if n >= 4 else 0):
        size = rng.randint(3, n - 1)
        c = rng.randint(3, size)
        edges = [(i, (i + 1) % c) for i in range(c)]
        edges += [(rng.randrange(v), v) for v in range(c, size)]
        edges += [(rng.randrange(size, v), v) for v in range(size + 1, n) if rng.random() < 0.7]
        yield make_graph(n, edges)


class TestSinglePath:
    """_single_path follows one vertex per level. It must reach the full
    search's minimum encoding on every generated tree, forest and
    unicyclic graph, and on seeded graphs of one unicyclic graph beside
    a forest, as generated and under a shuffled labeling: the
    generator's labels are structured, and shuffled ones exercise the
    orbit argument."""

    @pytest.mark.parametrize(
        "stream, top, seed",
        [
            (free_trees, 14, 1990),
            (forests, 12, 2017),
            (unicyclic, 12, 1980),
            (cycle_plus_forest, 12, 1990),
        ],
    )
    def test_matches_full_search(self, stream, top, seed):
        import random

        rng = random.Random(seed)
        for n in range(1, top + 1):
            for g in stream(n):
                perm = list(range(n))
                rng.shuffle(perm)
                minimum = _CanonSearch(g).run()  # the same for every labeling
                for h in (g, permute(g, perm)):
                    assert _encode(h.adj, _single_path(h.adj, n)) == minimum, write_graph6(h)


class TestForestSinglePath:
    """Twin peeling, checked on trees and forests, whose leaf bundles and
    isolated vertices make the most twin cells."""

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
                    assert _encode(h.adj, _single_path(h.adj, n)) == expected, write_graph6(h)
