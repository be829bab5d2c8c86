from __future__ import annotations

import hashlib

import pytest

from misbounds.counting import independence_number
from misbounds.extremal import build_T
from misbounds.generate import (
    FOREST_LIMIT,
    TREE_LIMIT,
    UNICYCLIC_LIMIT,
    GenerationTask,
    forests,
    free_trees,
    task_stream,
    unicyclic_graphs,
)
from misbounds.graphs import canonical_form, classify, make_graph, write_graph6
from misbounds.rooted import _CHILDREN, rooted_tree_codes

from oracle_helpers import (
    code_key,
    grown_forest_classes,
    grown_tree_classes,
    grown_unicyclic_classes,
    labeled_forest_classes,
    labeled_tree_classes,
    labeled_unicyclic_classes,
    nested_rooted_codes,
)


def count_stream(task: GenerationTask) -> int:
    return sum(1 for _ in task_stream(task))


# Isomorphism classes per order through the certification scope: OEIS
# A000055 (trees), A001429 (connected unicyclic graphs), A005195 (forests).
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
               11: 235, 12: 551, 13: 1301, 14: 3159}
UNI_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}
FOREST_COUNTS = {1: 1, 2: 2, 3: 3, 4: 6, 5: 10, 6: 20, 7: 37, 8: 76, 9: 153, 10: 329,
                 11: 710, 12: 1601}


# Rooted trees per order: OEIS A000081.
ROOTED_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def _nested(code: int) -> tuple:
    return tuple(_nested(child) for child in _CHILDREN[code])


class TestRootedCodes:
    """Rooted trees are ranked ints; the nested tuples they replaced, and
    their key order, are the oracle."""

    def test_counts(self):
        assert [len(rooted_tree_codes(s)) for s in range(1, 13)] == ROOTED_COUNTS

    def test_expand_to_the_nested_codes_in_order(self):
        for s in range(1, 13):
            assert [_nested(c) for c in rooted_tree_codes(s)] == list(nested_rooted_codes(s)), s

    def test_int_order_is_key_order(self):
        codes = [c for s in range(1, 13) for c in rooted_tree_codes(s)]
        assert sorted(codes, key=lambda c: code_key(_nested(c))) == sorted(codes)


class TestFreeTrees:
    def test_counts(self):
        for n, want in TREE_COUNTS.items():
            assert count_stream(GenerationTask("tree", n)) == want, n

    def test_single_vertex(self):
        (t,) = list(free_trees(1))
        assert t.order == 1

    def test_all_are_trees_of_right_order(self):
        for n in range(1, 11):
            for t in free_trees(n):
                assert t.order == n and classify(t).kind == "tree"

    def test_no_duplicate_canonical_forms(self):
        for n in range(1, 12):
            forms = [canonical_form(t) for t in free_trees(n)]
            assert len(forms) == len(set(forms))

    def test_matches_labeled_dedup_oracle_small(self):
        for n in range(1, 8):
            stream = {canonical_form(t).decode() for t in free_trees(n)}
            oracle = {f.decode() for f in labeled_tree_classes(n)}
            assert stream == oracle, n

    def test_matches_grown_oracle(self):
        levels = grown_tree_classes(9)
        for n in range(1, 10):
            stream = {canonical_form(t) for t in free_trees(n)}
            assert stream == levels[n], n

    def test_alpha_coverage(self):
        for n in range(2, 11):
            alphas = {}
            for t in free_trees(n):
                a = independence_number(t)
                alphas[a] = alphas.get(a, 0) + 1
            assert set(alphas) == set(range(-(-n // 2), n))
            assert alphas[n - 1] == 1  # only the star
            for a in alphas:
                witness = canonical_form(build_T(n, a))
                assert witness in {canonical_form(t) for t in free_trees(n)
                                   if independence_number(t) == a}

    def test_deterministic_restart(self):
        a = [write_graph6(t) for t in free_trees(9)]
        b = [write_graph6(t) for t in free_trees(9)]
        assert a == b

    def test_limits(self):
        with pytest.raises(ValueError):
            next(free_trees(0))
        with pytest.raises(ValueError):
            next(free_trees(TREE_LIMIT + 1))
        # unsafe override hands back a working stream
        assert next(free_trees(TREE_LIMIT + 1, unsafe=True)).order == TREE_LIMIT + 1


class TestUnicyclic:
    def test_counts(self):
        for n, want in UNI_COUNTS.items():
            assert count_stream(GenerationTask("unicyclic", n)) == want, n

    def test_all_unicyclic_of_right_order(self):
        for n in range(3, 10):
            for g in unicyclic_graphs(n):
                cls = classify(g)
                assert g.order == n and cls.kind == "unicyclic"
                cyc = cls.cycle
                assert len(set(cyc)) == len(cyc) >= 3
                for i in range(len(cyc)):
                    assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])

    def test_no_duplicate_canonical_forms(self):
        for n in range(3, 11):
            forms = [canonical_form(g) for g in unicyclic_graphs(n)]
            assert len(forms) == len(set(forms))

    def test_matches_labeled_dedup_oracle_small(self):
        for n in range(3, 7):
            stream = {canonical_form(g) for g in unicyclic_graphs(n)}
            assert stream == labeled_unicyclic_classes(n), n

    def test_matches_grown_oracle(self):
        levels = grown_unicyclic_classes(8)
        for n in range(3, 9):
            stream = {canonical_form(g) for g in unicyclic_graphs(n)}
            assert stream == levels[n], n

    def test_every_cycle_length_appears(self):
        lengths = {len(classify(g).cycle) for g in unicyclic_graphs(7)}
        assert lengths == set(range(3, 8))

    def test_cycle_argument_matches_classify_filter(self):
        for n in range(3, 11):
            every = list(unicyclic_graphs(n))
            for c in range(0, n + 2):
                want = [g for g in every if len(classify(g).cycle) == c]
                assert list(unicyclic_graphs(n, cycle=c)) == want, (n, c)
                assert bool(want) == (3 <= c <= n)

    def test_deterministic_restart(self):
        a = [write_graph6(g) for g in unicyclic_graphs(8)]
        b = [write_graph6(g) for g in unicyclic_graphs(8)]
        assert a == b

    def test_limits(self):
        with pytest.raises(ValueError):
            next(unicyclic_graphs(2))
        with pytest.raises(ValueError):
            next(unicyclic_graphs(UNICYCLIC_LIMIT + 1))


class TestForests:
    def test_counts(self):
        for n, want in FOREST_COUNTS.items():
            assert count_stream(GenerationTask("forest", n)) == want, n

    def test_n2(self):
        got = [classify(g).kind for g in forests(2)]
        assert sorted(got) == ["forest", "tree"]  # two isolated vertices; P_2

    def test_all_acyclic_of_right_order(self):
        for n in range(1, 9):
            for g in forests(n):
                assert g.order == n and classify(g).kind in ("tree", "forest")

    def test_no_duplicate_canonical_forms(self):
        for n in range(1, 11):
            forms = [canonical_form(g) for g in forests(n)]
            assert len(forms) == len(set(forms))

    def test_matches_labeled_dedup_oracle_small(self):
        for n in range(1, 7):
            stream = {canonical_form(g) for g in forests(n)}
            assert stream == labeled_forest_classes(n), n

    def test_matches_grown_oracle(self):
        levels = grown_forest_classes(8)
        for n in range(1, 9):
            stream = {canonical_form(g) for g in forests(n)}
            assert stream == levels[n], n

    def test_deterministic_restart(self):
        a = [write_graph6(g) for g in forests(7)]
        b = [write_graph6(g) for g in forests(7)]
        assert a == b

    def test_limits(self):
        with pytest.raises(ValueError):
            next(forests(0))
        with pytest.raises(ValueError):
            next(forests(FOREST_LIMIT + 1))


class TestTasks:
    def test_count_stream_totals(self):
        assert count_stream(GenerationTask("tree", 10)) == 106
        assert count_stream(GenerationTask("tree", 8)) == 23
        assert count_stream(GenerationTask("unicyclic", 6)) == 13

    def test_cycle_length_filter(self):
        task = GenerationTask("unicyclic", 7, cycle_length=7)
        graphs = list(task_stream(task))
        assert len(graphs) == 1  # the bare cycle
        total = sum(
            count_stream(GenerationTask("unicyclic", 7, cycle_length=c))
            for c in range(3, 8)
        )
        assert total == UNI_COUNTS[7]

    def test_alpha_filter(self):
        assert count_stream(GenerationTask("tree", 8, alpha=7)) == 1
        total = sum(
            count_stream(GenerationTask("tree", 8, alpha=a)) for a in range(4, 8)
        )
        assert total == TREE_COUNTS[8]

    def test_filter_misuse(self):
        with pytest.raises(ValueError):
            task_stream(GenerationTask("tree", 5, cycle_length=3))
        with pytest.raises(ValueError):
            task_stream(GenerationTask("graphs", 5))


# sha256 of the newline-joined graph6 lines of each stream. `misbounds
# enumerate` prints these lines, so the pins hold its labels and order.
STREAM_DIGESTS = [
    (free_trees, 12, 551, "d33e74061fce66e3d0afbe228312b709b2cc2e50805dd65d6267f40325eb7f72"),
    (unicyclic_graphs, 10, 657, "32010179dffbe4329ef1587242c7024319e31d4aad35eea38f5e16679d14f1c8"),
    (forests, 10, 329, "06e09a03c50a96d727157b018f082e6e5e456f0c1a3884591a9ef02dc851362a"),
]


@pytest.mark.parametrize("stream, n, count, digest", STREAM_DIGESTS)
def test_stream_labels_and_order_pinned(stream, n, count, digest):
    lines = [write_graph6(g) for g in stream(n)]
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


class TestNetworkxTrees:
    """networkx's own tree generator (Wright, Richmond, Odlyzko and McKay)
    shares no code with the centroid enumeration."""

    @staticmethod
    def _nx_trees(nx, n):
        for t in nx.nonisomorphic_trees(n):
            yield t, make_graph(n, t.edges())

    def test_same_classes_as_networkx(self):
        nx = pytest.importorskip("networkx")
        for n in range(2, 11):
            theirs = [canonical_form(g) for _, g in self._nx_trees(nx, n)]
            ours = [canonical_form(t) for t in free_trees(n)]
            assert len(theirs) == len(ours) == TREE_COUNTS[n]
            assert set(theirs) == set(ours), n

    def test_matched_pairs_isomorphic_in_networkx(self):
        nx = pytest.importorskip("networkx")
        for n in range(2, 8):
            ours = {canonical_form(t): t for t in free_trees(n)}
            for theirs, g in self._nx_trees(nx, n):
                mine = ours[canonical_form(g)]
                assert nx.is_isomorphic(theirs, nx.Graph(list(mine.edges()))), n
