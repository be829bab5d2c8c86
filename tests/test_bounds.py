from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from misbounds.bounds import (
    LEMMA2_SAMPLES,
    LEMMA2_SEED,
    BoundQuery,
    _lemma2_tuples,
    _sweep_lemma2,
    ell_seq,
    fib,
    g_seq,
    h_seq,
    sweep_sequence_lemmas,
    tree_bound,
    unicyclic_bound,
)

from oracle_helpers import lemma2_tuples_reference, majorizes


def fib_oracle(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestSequences:
    def test_fib_base(self):
        assert fib(0) == 0
        assert fib(1) == 1

    def test_fib_10(self):
        assert fib(10) == 55

    def test_fib_matches_unrolled(self):
        for n in range(0, 80):
            assert fib(n) == fib_oracle(n)

    def test_g_base(self):
        assert g_seq(0) == 1
        assert g_seq(1) == 2

    def test_g_4(self):
        assert g_seq(4) == fib_oracle(6) == 8

    def test_h_values(self):
        assert h_seq(0) == 0
        assert h_seq(1) == 2
        assert h_seq(3) == 4
        assert h_seq(4) == 6

    def test_ell_values(self):
        assert ell_seq(3) == 5
        assert ell_seq(4) == 7
        assert ell_seq(5) == 12

    def test_ell_domain(self):
        with pytest.raises(ValueError):
            ell_seq(2)

    def test_recurrences(self):
        for n in range(2, 60):
            assert g_seq(n) == g_seq(n - 1) + g_seq(n - 2)
            assert h_seq(n) == h_seq(n - 1) + h_seq(n - 2)
        for n in range(5, 60):
            assert ell_seq(n) == ell_seq(n - 1) + ell_seq(n - 2)

    def test_ell_identity_and_dominates_h(self):
        for n in range(3, 60):
            assert ell_seq(n) == 2 * fib(n) + fib(n - 2)
            assert ell_seq(n) >= h_seq(n)


class TestTreeBound:
    def test_star_cell(self):
        assert tree_bound(BoundQuery("tree", 5, 4)) == 2

    def test_half_alpha_cell(self):
        assert tree_bound(BoundQuery("tree", 8, 4)) == 8

    def test_edgeless_forest(self):
        assert tree_bound(BoundQuery("forest", 6, 6)) == 1

    def test_forest_uses_same_formula(self):
        for n in range(2, 15):
            for a in range(-(-n // 2), n):
                assert tree_bound(BoundQuery("forest", n, a)) == tree_bound(
                    BoundQuery("tree", n, a)
                )

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            tree_bound(BoundQuery("tree", 8, 3))
        with pytest.raises(ValueError):
            tree_bound(BoundQuery("tree", 8, 8))
        with pytest.raises(ValueError):
            tree_bound(BoundQuery("forest", 6, 2))

    def test_wrong_class_rejected(self):
        with pytest.raises(ValueError):
            tree_bound(BoundQuery("unicyclic", 6, 3))


class TestUnicyclicBound:
    def test_four_cycle_cell(self):
        assert unicyclic_bound(BoundQuery("unicyclic", 4, 2)) == 2

    def test_near_max_alpha_cell(self):
        assert unicyclic_bound(BoundQuery("unicyclic", 7, 5)) == 3
        assert unicyclic_bound(BoundQuery("unicyclic", 3, 1)) == 3

    def test_odd_floor_cell(self):
        assert unicyclic_bound(BoundQuery("unicyclic", 7, 3)) == ell_seq(4) == 7

    def test_generic_cell(self):
        assert unicyclic_bound(BoundQuery("unicyclic", 10, 5)) == h_seq(5) == 10

    def test_exactly_one_case_fires(self):
        # replicate the four guards and check they're a partition of the
        # feasible rectangle for every n <= 20
        for n in range(3, 21):
            for a in range(n // 2, n - 1):
                cases = [
                    n == 4 and a == 2,
                    a == n - 2 and n != 4,
                    n >= 5 and n % 2 == 1 and a == n // 2,
                    n >= 5 and -(-n // 2) <= a < n - 2,
                ]
                assert sum(cases) == 1, (n, a, cases)
                unicyclic_bound(BoundQuery("unicyclic", n, a))  # never raises

    def test_gap_two_at_least_h2(self):
        for n in range(4, 31):
            assert unicyclic_bound(BoundQuery("unicyclic", n, n - 2)) >= h_seq(2) == 2

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            unicyclic_bound(BoundQuery("unicyclic", 7, 6))
        with pytest.raises(ValueError):
            unicyclic_bound(BoundQuery("unicyclic", 7, 2))
        with pytest.raises(ValueError):
            unicyclic_bound(BoundQuery("unicyclic", 2, 1))


class TestMajorizes:
    def test_examples(self):
        assert majorizes((3, 1), (2, 2))
        assert not majorizes((2, 2), (3, 1))
        assert majorizes((5, 5), (5, 5))

    @given(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    def test_reflexive(self, pair):
        assert majorizes(pair, pair)

    @given(
        st.integers(0, 10**4), st.integers(0, 10**4), st.integers(0, 10**4),
        st.integers(0, 10**4), st.integers(0, 10**4), st.integers(0, 10**4),
    )
    def test_transitive(self, a, b, c, d, e, f):
        x, y, z = (a, b), (c, d), (e, f)
        if majorizes(x, y) and majorizes(y, z):
            assert majorizes(x, z)


class TestLemmaSweeps:
    def test_small_limit_zero_violations(self):
        sweeps = sweep_sequence_lemmas(10, samples=2000)
        assert {s.lemma for s in sweeps} == {
            "lemma1_product",
            "lemma1_identity",
            "lemma2_majorization",
            "lemma5",
            "lemma6",
            "lemma10",
        }
        for s in sweeps:
            assert s.violations == [], s.lemma
            assert s.tuples_checked > 0

    def test_identity_at_n1_equals_1(self):
        # g(1)g(n2) + g(0)g(n2-1) = 2 g(n2) + g(n2-1) = g(n2+2)
        for n2 in range(1, 40):
            assert 2 * g_seq(n2) + g_seq(n2 - 1) == g_seq(n2 + 2)

    def test_lemma10_spot_value(self):
        assert ell_seq(3) * 2**2 == 20 >= ell_seq(5) == 12

    def test_reports_serialize(self):
        sweeps = sweep_sequence_lemmas(6, samples=10)
        d = sweeps[0].to_dict()
        assert set(d) == {"lemma", "tuples_checked", "violations"}

    def test_sampling_is_reproducible(self):
        a = sweep_sequence_lemmas(5, samples=500, seed=7)
        b = sweep_sequence_lemmas(5, samples=500, seed=7)
        assert [s.tuples_checked for s in a] == [s.tuples_checked for s in b]

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            sweep_sequence_lemmas(4)

    @pytest.mark.parametrize("seed", [LEMMA2_SEED, 0, 7, 99, 12345])
    @pytest.mark.parametrize("samples", [0, 1, 2, 1000])
    def test_lemma2_tuples_match_randrange(self, seed, samples):
        assert list(_lemma2_tuples(samples, seed)) == lemma2_tuples_reference(samples, seed)

    def test_lemma2_default_tuples_match_randrange(self):
        got = list(_lemma2_tuples(LEMMA2_SAMPLES, LEMMA2_SEED))
        assert got == lemma2_tuples_reference(LEMMA2_SAMPLES, LEMMA2_SEED)

    @pytest.mark.parametrize(
        "bad",
        [
            (1, 0, 2, 0, 1, 0, 1, 0),  # ae < cg
            (1, 0, 1, 1, 1, 0, 1, 1),  # ae = cg, ae + bf < cg + dh
        ],
    )
    def test_lemma2_reports_a_violating_tuple(self, monkeypatch, bad):
        """The sweep inlines `majorizes`; either failed comparison is one
        violation, and every tuple read is counted."""
        a, b, c, d, e, f, g, h = bad
        assert not majorizes((a * e, b * f), (c * g, d * h))
        good = (1, 1, 1, 1, 1, 1, 1, 1)
        monkeypatch.setattr("misbounds.bounds._lemma2_tuples", lambda *args: iter([bad, good]))
        sweep = _sweep_lemma2(2, 0)
        assert sweep.tuples_checked == 2
        assert sweep.violations == [dict(zip("abcdefgh", bad))]

    @pytest.mark.parametrize("limit", [5, 6, 7, 13, 40])
    def test_pair_lemmas_from_tables(self, limit):
        """The pair lemmas read g, h and l from tables; every pair in
        range is checked once and every lemma holds, up to the top index
        each table needs."""
        lo = {"lemma1_product": (0, 0), "lemma1_identity": (1, 1), "lemma5": (2, 0),
              "lemma6": (3, 0), "lemma10": (3, 0)}
        sweeps = {s.lemma: s for s in sweep_sequence_lemmas(limit, samples=1)}
        for name, (lo1, lo2) in lo.items():
            pairs = sum(1 for n1 in range(lo1, limit + 1) for _ in range(lo2, limit - n1 + 1))
            assert (sweeps[name].tuples_checked, sweeps[name].violations) == (pairs, [])
