from __future__ import annotations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from misbounds.counting import (
    PIN_LIMIT,
    _clique_walk,
    _pinned_mis_alpha,
    independence_number,
    mis_alpha,
    mis_count,
    mis_count_cycle,
    mis_enumerate,
    shape_mis_alpha,
)
from misbounds.generate import (
    forest_graph,
    forest_shapes,
    tree_graph,
    tree_shapes,
    unicyclic_graph,
    unicyclic_shapes,
)
from misbounds.graphs import classify, components, make_graph

from conftest import graphs, labeled_forests, labeled_trees, trees_with_extra_edges
from oracle_helpers import (
    brute_alpha,
    brute_mis_count,
    closed_neighborhood,
    delete_vertices,
    find_support_reduction,
    mis_count_bruteforce,
    permute,
    pruefer_tree,
    support_vertex_mis_count,
)


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return make_graph(n, [(0, i) for i in range(1, n)])


class TestBruteforce:
    def test_null_graph(self):
        assert mis_count_bruteforce(make_graph(0, [])) == 1

    def test_c5(self):
        assert mis_count_bruteforce(cycle(5)) == 5

    def test_p4_by_hand(self):
        # the three maximal sets of 0-1-2-3 are {0,2}, {0,3}, {1,3}
        assert mis_count_bruteforce(path(4)) == 3

    def test_guard(self):
        with pytest.raises(ValueError):
            mis_count_bruteforce(make_graph(26, []))

    @given(graphs(max_n=10))
    def test_matches_pure_python_loop(self, g):
        assert mis_count_bruteforce(g) == brute_mis_count(g)


class TestEnumerate:
    def test_star_two_sets(self):
        assert list(mis_enumerate(star(5))) == [
            frozenset({0}),
            frozenset({1, 2, 3, 4}),
        ]

    def test_c4_two_sets(self):
        assert list(mis_enumerate(cycle(4))) == [frozenset({0, 2}), frozenset({1, 3})]

    def test_edgeless(self):
        assert list(mis_enumerate(make_graph(3, []))) == [frozenset({0, 1, 2})]

    def test_null(self):
        assert list(mis_enumerate(make_graph(0, []))) == [frozenset()]

    def test_lexicographic_order(self):
        sets = [tuple(sorted(s)) for s in mis_enumerate(cycle(7))]
        assert sets == sorted(sets)

    @given(graphs(max_n=9))
    def test_sets_are_maximal_independent_and_unique(self, g):
        seen = set()
        for s in mis_enumerate(g):
            assert s not in seen
            seen.add(s)
            for u in s:
                assert not (g.adj[u] & sum(1 << v for v in s))
            outside = set(range(g.order)) - s
            for v in outside:
                assert g.adj[v] & sum(1 << u for u in s)
        assert len(seen) == mis_count_bruteforce(g)


class TestForestCount:
    def test_stars(self):
        for n in range(2, 14):
            assert mis_count(star(n)) == 2

    def test_p5(self):
        assert mis_count(path(5)) == 4

    def test_two_p4s_multiply(self):
        g = make_graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        assert mis_count(g) == 9

    def test_base_cases(self):
        assert mis_count(make_graph(0, [])) == 1
        assert mis_count(make_graph(1, [])) == 1
        assert mis_count(path(2)) == 2

    @given(labeled_forests(max_n=11))
    def test_matches_oracle(self, g):
        assert mis_count(g) == mis_count_bruteforce(g)


class TestCycleCount:
    def test_small_values(self):
        assert [mis_count_cycle(n) for n in range(3, 8)] == [3, 2, 5, 5, 7]

    def test_c6_c7_c8(self):
        assert mis_count_cycle(6) == 5
        assert mis_count_cycle(7) == 7
        assert mis_count_cycle(8) == 10

    def test_recurrence_window(self):
        for n in range(6, 26):
            assert mis_count_cycle(n) == mis_count_cycle(n - 2) + mis_count_cycle(n - 3)

    def test_matches_brute_force(self):
        for n in range(3, 19):
            assert mis_count_cycle(n) == mis_count_bruteforce(cycle(n))

    def test_domain(self):
        with pytest.raises(ValueError):
            mis_count_cycle(2)


class TestDispatcher:
    def test_c4_with_pendant(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        assert mis_count(g) == 3

    def test_triangle_with_leaf_bundle(self):
        for n in range(4, 10):
            g = make_graph(n, [(0, 1), (1, 2), (0, 2)] + [(0, i) for i in range(3, n)])
            assert mis_count(g) == 3

    def test_triangle_glued_to_star_leaf(self):
        g = make_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (4, 5)])
        assert mis_count(g) == 5

    def test_lemma3_invariant(self):
        tricky = [
            make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)]),
            path(7),
            make_graph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (3, 5), (5, 6)]),
        ]
        for g in tricky:
            red = find_support_reduction(g)
            a = delete_vertices(g, red.leaves | {red.support})
            b = delete_vertices(g, closed_neighborhood(g, red.support))
            assert mis_count(g) == mis_count(a) + mis_count(b)
            assert mis_count(g) == support_vertex_mis_count(g) == brute_mis_count(g)

    @given(graphs(max_n=9), st.data())
    def test_lemma3_invariant_random(self, g, data):
        red = find_support_reduction(g)
        if red is None:
            return
        a = delete_vertices(g, red.leaves | {red.support})
        b = delete_vertices(g, closed_neighborhood(g, red.support))
        assert mis_count(g) == mis_count(a) + mis_count(b)

    @given(graphs(max_n=9))
    def test_lemma4_component_product(self, g):
        prod = 1
        for comp, _ in components(g):
            prod *= mis_count(comp)
        assert mis_count(g) == prod

    @given(graphs(max_n=10))
    def test_oracle_equivalence(self, g):
        want = mis_count_bruteforce(g)
        assert mis_count(g) == want
        assert sum(1 for _ in mis_enumerate(g)) == want
        assert independence_number(g) == brute_alpha(g)

    def test_other_component_stores_no_sets(self):
        """A hub joined to 8 disjoint triangles has 3^8 + 1 maximal sets;
        counting them and finding alpha keeps none of them in memory."""
        import tracemalloc

        k = 8
        edges = []
        for a in range(1, 3 * k, 3):
            b, c = a + 1, a + 2
            edges += [(a, b), (b, c), (a, c), (0, a), (0, b), (0, c)]
        g = make_graph(3 * k + 1, edges)
        assert classify(g).kind == "other"
        tracemalloc.start()
        try:
            pair = mis_count(g), independence_number(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair == (3**k + 1, k)
        assert peak < 1 << 20

    @given(graphs(max_n=8), st.data())
    @settings(max_examples=100)
    def test_isomorphism_invariance(self, g, data):
        perm = data.draw(st.permutations(list(range(g.order))))
        assert mis_count(g) == mis_count(permute(g, perm))


class TestOracleEquivalenceFullScale:
    def test_every_tree_and_unicyclic_graph_to_order_12(self):
        from misbounds.generate import free_trees, unicyclic_graphs

        for n in range(1, 13):
            for t in free_trees(n):
                want = mis_count_bruteforce(t)
                assert mis_count(t) == want
                assert sum(1 for _ in mis_enumerate(t)) == want
        for n in range(3, 13):
            for g in unicyclic_graphs(n):
                want = mis_count_bruteforce(g)
                assert mis_count(g) == want
                assert sum(1 for _ in mis_enumerate(g)) == want


class TestSupportVertexOracle:
    """The linear-time DP against the paper's support-vertex recursion."""

    def test_every_tree_to_12_and_unicyclic_graph_to_10(self):
        from misbounds.generate import free_trees, unicyclic_graphs

        cases = [t for n in range(1, 13) for t in free_trees(n)]
        cases += [g for n in range(3, 11) for g in unicyclic_graphs(n)]
        assert len(cases) == 987 + 1040
        for g in cases:
            assert mis_count(g) == support_vertex_mis_count(g)
            assert independence_number(g) == max(len(s) for s in mis_enumerate(g))

    def test_components_multiply(self):
        g = make_graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (6, 7)])
        assert mis_count(g) == support_vertex_mis_count(g) == 2 * 3 * 2 * 1


class TestNetworkxCrossCheck:
    """Counts and alpha beyond the brute-force guard, against networkx's
    maximal cliques of the complement."""

    @staticmethod
    def _nx_mis_alpha(g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.order))
        sizes = [len(c) for c in nx.find_cliques(nx.complement(h))]
        return len(sizes), max(sizes)

    def test_random_trees_and_unicyclic_graphs_26_to_40(self):
        import random

        rng = random.Random(20261018)
        for n in range(26, 41):
            t = pruefer_tree(tuple(rng.randrange(n) for _ in range(n - 2)), n)
            u, v = rng.choice(
                [(u, v) for u in range(n) for v in range(u + 1, n) if not t.has_edge(u, v)]
            )
            g = make_graph(n, t.edges() + [(u, v)])
            assert classify(t).kind == "tree" and classify(g).kind == "unicyclic"
            for h in (t, g):
                assert (mis_count(h), independence_number(h)) == self._nx_mis_alpha(h)


def _tree_plus_edges(rng, n, extra):
    """A seeded Pruefer tree of order n plus `extra` further edges."""
    t = pruefer_tree(tuple(rng.randrange(n) for _ in range(n - 2)), n)
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if not t.has_edge(u, v)]
    return make_graph(n, t.edges() + rng.sample(absent, extra))


def _chorded_cycle(n, c):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, c)])


def _chorded_cycle_mis(n, c):
    """mis of C_n plus the chord (0, c), 2 <= c <= n - 2, by a walk round
    the cycle that carries, after vertex v, the state (0 dominated, v in
    S, v dominated); a vertex is dominated when it or a neighbour is in
    S. Vertex 0 stays open until the walk closes the cycle."""
    total = 0
    for in0, inc in ((False, False), (True, False), (False, True)):
        states = {(in0 or inc, in0, in0 or inc): 1}
        for v in range(1, n):
            nxt = {}
            for (dom0, prev_in, prev_dom), ways in states.items():
                for in_v in (inc,) if v == c else (False, True):
                    if in_v and (prev_in or (v == n - 1 and in0)):
                        continue  # two neighbours in S
                    if v > 1 and not (prev_dom or in_v):
                        continue  # v - 1 left undominated
                    key = (dom0 or (v == 1 and in_v), in_v, in_v or prev_in or (v == c and in0))
                    nxt[key] = nxt.get(key, 0) + ways
            states = nxt
        total += sum(
            ways
            for (dom0, last_in, last_dom), ways in states.items()
            if (last_dom or in0) and (dom0 or last_in)
        )
    return total


class TestPinnedRoute:
    """The spanning-tree route with pinned co-tree endpoints, against
    brute force, the clique walk, networkx and a cycle walk."""

    @pytest.mark.parametrize("extra", range(5))
    def test_trees_plus_edges_match_brute_force(self, extra):
        import random

        rng = random.Random(7000 + extra)
        for n in (6, 10, 14, 18):
            g = _tree_plus_edges(rng, n, extra)
            want = (mis_count_bruteforce(g), brute_alpha(g))
            assert _pinned_mis_alpha(g)[1] == want
            assert (mis_count(g), independence_number(g)) == want

    @pytest.mark.parametrize("extra, orders", [(2, (26, 35)), (3, (29, 38)), (4, (32, 40))])
    def test_trees_plus_edges_match_walk_and_networkx(self, extra, orders):
        import random

        rng = random.Random(8000 + extra)
        for n in orders:
            g = _tree_plus_edges(rng, n, extra)
            want = TestNetworkxCrossCheck._nx_mis_alpha(g)
            assert _pinned_mis_alpha(g)[1] == _clique_walk(g) == want
            assert (mis_count(g), independence_number(g)) == want

    @given(trees_with_extra_edges(max_n=11, max_extra=4))
    def test_grown_trees_match_brute_force(self, g):
        assert _pinned_mis_alpha(g)[1] == (mis_count_bruteforce(g), brute_alpha(g))

    def test_runs_per_class(self, monkeypatch):
        """A tree takes one tree pass, a unicyclic graph three."""
        import misbounds.counting as counting

        runs = []
        tree_pass = counting._tree_pass
        monkeypatch.setattr(counting, "_tree_pass", lambda *a: runs.append(1) or tree_pass(*a))
        for g, want in ((path(9), 1), (cycle(9), 3)):
            runs.clear()
            _pinned_mis_alpha(g)
            assert len(runs) == want

    def test_above_the_cap_takes_the_walk(self):
        k = make_graph(PIN_LIMIT + 2, [(u, v) for u in range(PIN_LIMIT + 2) for v in range(u)])
        assert _pinned_mis_alpha(k)[1] is None
        assert (mis_count(k), independence_number(k)) == (PIN_LIMIT + 2, 1)

    def test_cycle_walk_oracle_small(self):
        for n in range(4, 13):
            for c in range(2, n - 1):
                g = _chorded_cycle(n, c)
                assert _chorded_cycle_mis(n, c) == brute_mis_count(g)
                assert brute_alpha(g) == n // 2

    @pytest.mark.parametrize("n, c", [(1000, 500), (1000, 2), (1001, 333), (2000, 1000)])
    def test_long_cycle_with_chord(self, n, c):
        g = _chorded_cycle(n, c)
        assert mis_count(g) == _chorded_cycle_mis(n, c)
        assert independence_number(g) == n // 2


def _interleaved(rng, n, dense):
    """A disconnected graph whose components interleave their labels.

    The labels v % 3 != 2 carry, when dense, a K_10 minus three edges on
    the first ten (more co-tree endpoints than PIN_LIMIT, so it takes the
    walk) and a path on the rest; otherwise a tree plus two edges. The
    labels v % 3 == 2 but the last carry a path, closed into a cycle with
    a chord once it has four vertices, and the last is isolated."""
    main = [v for v in range(n) if v % 3 != 2]
    rim = [v for v in range(n) if v % 3 == 2][:-1]
    if dense:
        k, tail = main[:10], main[10:]
        pairs = [(u, v) for i, u in enumerate(k) for v in k[i + 1:]]
        edges = rng.sample(pairs, len(pairs) - 3) + list(zip(tail, tail[1:]))
    else:
        h = _tree_plus_edges(rng, len(main), 2)
        edges = [(main[u], main[v]) for u, v in h.edges()]
    edges += list(zip(rim, rim[1:]))
    if len(rim) >= 4:
        edges += [(rim[0], rim[-1]), (rim[0], rim[len(rim) // 2])]
    return make_graph(n, edges)


class TestOneBfsRoute:
    """mis_alpha finds each component by the pinned route's BFS in the
    graph's own labels and relabels only a component that takes the walk."""

    @pytest.mark.parametrize("dense", [True, False])
    def test_interleaved_components_match_brute_force(self, dense):
        import random

        rng = random.Random(9100 + dense)
        for n in range(8, 19):
            g = _interleaved(rng, n, dense)
            assert mis_alpha(g) == (mis_count_bruteforce(g), brute_alpha(g)), n

    @pytest.mark.parametrize("dense", [True, False])
    def test_interleaved_components_match_networkx(self, dense):
        import random

        rng = random.Random(9200 + dense)
        for n in range(26, 41, 2):
            g = _interleaved(rng, n, dense)
            assert mis_alpha(g) == TestNetworkxCrossCheck._nx_mis_alpha(g), n

    def test_dense_component_takes_the_walk(self, monkeypatch):
        """K_10 minus three edges has more than PIN_LIMIT co-tree
        endpoints, so it alone is relabelled and walked."""
        import random

        import misbounds.counting as counting

        walked = []
        walk = counting._clique_walk
        monkeypatch.setattr(counting, "_clique_walk", lambda c: walked.append(c.order) or walk(c))
        g = _interleaved(random.Random(9300), 20, True)
        assert len(components(g)) == 4
        assert mis_alpha(g) == (mis_count_bruteforce(g), brute_alpha(g))
        assert walked == [10]

    def test_tree_passes_sized_by_component(self, monkeypatch):
        """Each pass allocates for its own component, not for the whole
        graph, so many small components cost linear time."""
        import misbounds.counting as counting

        sizes = []
        run = counting._tree_pass
        monkeypatch.setattr(
            counting, "_tree_pass", lambda par, pins: sizes.append(len(par)) or run(par, pins)
        )
        g = make_graph(3000, [(2 * i, 2 * i + 1) for i in range(1000)])  # 1000 isolated vertices
        assert mis_alpha(g) == (2**1000, 2000)
        assert sorted(sizes) == [1] * 1000 + [2] * 1000

    @given(graphs(max_n=12))
    def test_reads_agree(self, g):
        assert mis_alpha(g) == (mis_count(g), independence_number(g))

    def test_mask_is_the_component(self):
        import random

        g = _interleaved(random.Random(9400), 14, False)
        for comp, verts in components(g):
            mask, counts = _pinned_mis_alpha(g, verts[0])
            assert mask == sum(1 << v for v in verts)
            assert counts is None or counts == mis_alpha(comp)


class TestLongPathsAndCycles:
    """The DP is iterative: order 10,000 needs no recursion and no memo."""

    N = 10_000

    @staticmethod
    def _recurrence(a, b, c, n):
        """Term n of x(k) = x(k-2) + x(k-3) from x(1), x(2), x(3)."""
        for _ in range(n - 3):
            a, b, c = b, c, a + b
        return c

    def test_path_padovan(self):
        n = self.N
        assert [self._recurrence(1, 2, 2, k) for k in range(3, 9)] == [
            mis_count_bruteforce(path(k)) for k in range(3, 9)
        ]
        g = path(n)
        assert mis_count(g) == self._recurrence(1, 2, 2, n)
        assert independence_number(g) == -(-n // 2)

    def test_cycle_perrin(self):
        n = self.N
        # Perrin numbers from P(1), P(2), P(3) = 0, 2, 3
        assert [self._recurrence(0, 2, 3, k) for k in range(3, 10)] == [
            mis_count_bruteforce(cycle(k)) for k in range(3, 10)
        ]
        g = cycle(n)
        assert mis_count(g) == self._recurrence(0, 2, 3, n)
        assert independence_number(g) == n // 2


class TestIndependenceNumber:
    def test_c7(self):
        assert independence_number(cycle(7)) == 3

    def test_star(self):
        assert independence_number(star(5)) == 4

    def test_null(self):
        assert independence_number(make_graph(0, [])) == 0

    def test_T85_witness(self):
        from misbounds.extremal import build_T

        assert independence_number(build_T(8, 5)) == 5 == brute_alpha(build_T(8, 5))

    @given(labeled_trees(max_n=11))
    def test_tree_dp_matches_brute(self, g):
        assert independence_number(g) == brute_alpha(g)

    @given(graphs(max_n=10))
    def test_general_matches_brute(self, g):
        assert independence_number(g) == brute_alpha(g)


SHAPE_SCOPES = [
    ("tree", tree_shapes, tree_graph, 12),
    ("unicyclic", unicyclic_shapes, unicyclic_graph, 10),
    ("forest", forest_shapes, forest_graph, 10),
]
FIRST_ORDER = {"tree": 1, "unicyclic": 3, "forest": 1}


class TestShapeRoute:
    """shape_mis_alpha counts the generator's own codes without building a
    graph; it must agree with the graph built from the same shape."""

    @pytest.mark.parametrize("cls, shapes, build, n_max", SHAPE_SCOPES)
    def test_matches_graph_route(self, cls, shapes, build, n_max):
        for n in range(FIRST_ORDER[cls], n_max + 1):
            for s in shapes(n):
                assert shape_mis_alpha(cls, s) == mis_alpha(build(s)), (cls, s)

    @pytest.mark.parametrize("cls, shapes, build, n_max", SHAPE_SCOPES)
    def test_matches_brute_force(self, cls, shapes, build, n_max):
        for n in range(FIRST_ORDER[cls], 10):
            for s in shapes(n):
                g = build(s)
                assert shape_mis_alpha(cls, s) == (brute_mis_count(g), brute_alpha(g)), (cls, s)

    def test_bare_cycles_match_recurrence(self):
        # the Perrin-type recurrence shares no code with the state fold
        for n in range(3, 41):
            assert shape_mis_alpha("unicyclic", ((),) * n) == (mis_count_cycle(n), n // 2), n

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            shape_mis_alpha("graph", ((),))
