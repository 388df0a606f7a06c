import pytest

from vermaext.coxeter import build_system
from vermaext.rpoly import RTable
from vermaext.typea import (
    bigrassmannian_chain,
    bm_set,
    expected_ext1_shift,
    penultimate_element,
    phi_degree,
    predict_ext1,
    w_hat,
)


@pytest.fixture(scope="module")
def s4():
    return build_system("A3")


@pytest.fixture(scope="module")
def s6():
    return build_system("A5")


class TestPenultimate:
    def test_hat_diagonal_is_simple(self, s4):
        for i in (1, 2, 3):
            assert w_hat(s4, i, i) == s4.element("s%d" % i)

    def test_hat_descents(self, s4):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                u = w_hat(s4, i, j)
                assert s4.left_descents(u) == frozenset([i - 1])
                assert s4.right_descents(u) == frozenset([j - 1])

    def test_q_values_s4(self, s4):
        assert penultimate_element(s4, 2, 2).q == 1
        for i, j in [(1, 1), (1, 2), (1, 3), (2, 1), (3, 3), (2, 3)]:
            if (i, j) != (2, 2):
                assert penultimate_element(s4, i, j).q == 0

    def test_pen_is_hat_times_longest(self, s4):
        pen = penultimate_element(s4, 2, 2)
        assert pen.w_pen == s4.mult(s4.element("s2"), s4.w0)
        assert s4.lengths[pen.w_pen] == 5

    def test_pen_unique_ascents(self, s4):
        n = 4
        full = frozenset(range(3))
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                pen = penultimate_element(s4, i, j).w_pen
                assert s4.left_descents(pen) == full - {i - 1}
                assert s4.right_descents(pen) == full - {j - 1}

    def test_s6_diagonal(self, s6):
        pen = penultimate_element(s6, 3, 3)
        assert pen.w_pen == s6.mult(s6.element("s3"), s6.w0)
        assert s6.lengths[pen.w_pen] == 14
        assert pen.q == 2

    def test_range_check(self, s4):
        with pytest.raises(ValueError, match=r"^indices must lie in 1\.\.n-1$"):
            penultimate_element(s4, 0, 1)
        with pytest.raises(ValueError, match=r"^indices must lie in 1\.\.n-1$"):
            penultimate_element(s4, 1, 4)


class TestChains:
    @pytest.mark.parametrize("label,n", [("A2", 3), ("A3", 4), ("A4", 5), ("A5", 6)])
    def test_count_chain_min(self, label, n):
        sy = build_system(label)
        for i in range(1, n):
            for j in range(1, n):
                pen = penultimate_element(sy, i, j)
                chain = bigrassmannian_chain(sy, i, j)
                assert len(chain) == 1 + pen.q
                assert chain[0] == pen.w_hat
                for a in range(len(chain)):
                    for b in range(a + 1, len(chain)):
                        assert sy.bruhat_leq(chain[a], chain[b])

    def test_s4_13_singleton(self, s4):
        assert bigrassmannian_chain(s4, 1, 3) == [s4.element("s1*s2*s3")]

    def test_s4_22_pair(self, s4):
        chain = bigrassmannian_chain(s4, 2, 2)
        assert [s4.word_name(u) for u in chain] == ["s2", "s2*s1*s3*s2"]

    def test_total_bigrassmannian_count(self, s4):
        total = sum(1 for w in range(s4.order) if s4.is_bigrassmannian(w))
        by_pair = sum(
            1 + penultimate_element(s4, i, j).q
            for i in (1, 2, 3)
            for j in (1, 2, 3)
        )
        assert total == by_pair == 10


class TestPhi:
    def test_minimal_and_maximal_degrees(self, s6):
        pen = penultimate_element(s6, 3, 3)
        chain = bigrassmannian_chain(s6, 3, 3)
        L = s6.lengths[pen.w_pen]
        assert phi_degree(s6, 3, 3, chain[0]) == L - 2 * pen.q
        assert phi_degree(s6, 3, 3, chain[-1]) == L
        degs = [phi_degree(s6, 3, 3, u) for u in chain]
        assert degs == list(range(L - 2 * pen.q, L + 1, 2))

    def test_q_zero_single_degree(self, s4):
        pen = penultimate_element(s4, 1, 3)
        assert phi_degree(s4, 1, 3, pen.w_hat) == s4.lengths[pen.w_pen]

    def test_wrong_witness_rejected(self, s4):
        with pytest.raises(ValueError):
            phi_degree(s4, 2, 2, s4.element("s1"))


class TestBMSet:
    def test_generator(self, s4):
        s2 = s4.element("s2")
        assert bm_set(s4, s2) == [s2]

    def test_bigrassmannian_is_its_own_max(self, s4):
        u = s4.element("s2*s1*s3*s2")
        assert bm_set(s4, u) == [u]

    def test_s6_generator(self, s6):
        s3 = s6.element("s3")
        assert bm_set(s6, s3) == [s3]

    def test_incomparable_maxima(self, s4):
        w = s4.element("s1*s3")
        got = {s4.word_name(u) for u in bm_set(s4, w)}
        assert got == {"s1", "s3"}

    def test_type_restriction(self):
        b3 = build_system("B3")
        for call in (bm_set, predict_ext1):
            with pytest.raises(ValueError, match="^type A only; got B3$"):
                call(b3, 0)


class TestPredictor:
    def test_s6_example(self, s6):
        s3 = s6.element("s3")
        recs = predict_ext1(s6, s3)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.degree == 10
        assert rec.shift == -9
        assert not rec.expected
        assert rec.witness == s3
        assert rec.w_pen == s6.mult(s3, s6.w0)
        # parity of the shift matches the length gap
        d = s6.lengths[rec.w_pen] - s6.lengths[s3]
        assert (rec.shift - d) % 2 == 0

    def test_s6_expected_part_dimension(self, s6):
        pen = penultimate_element(s6, 3, 3)
        s3 = s6.element("s3")
        rt = RTable(s6)
        m = expected_ext1_shift(s6, pen.w_pen, s3)
        assert m == -11
        assert abs(rt.r_poly(pen.w_pen, s3).coeff(m)) == 5

    def test_s4_never_additional(self, s4):
        for w in range(s4.order):
            for rec in predict_ext1(s4, w):
                assert rec.expected, (s4.word_name(w), rec)

    def test_s4_expected_record_consistent_with_r(self, s4):
        rt = RTable(s4)
        for w in range(s4.order):
            for rec in predict_ext1(s4, w):
                assert abs(rt.r_poly(rec.w_pen, w).coeff(rec.shift)) >= 1

    def test_longest_element_no_records(self, s4):
        assert predict_ext1(s4, s4.w0) == []

    def test_identity_no_records(self, s4):
        assert predict_ext1(s4, 0) == []

    def test_guard_blocks_unrelated_pen(self, s4):
        # witness s1 below w = s1*s3 has its penultimate element not above w
        recs = predict_ext1(s4, s4.element("s1*s3"))
        for rec in recs:
            assert s4.bruhat_leq(rec.w, rec.w_pen)

    def test_s5_has_no_additional_records(self):
        # the construction needs chains of length at least 3, which first
        # appear in S6; an exhaustive S5 scan comes back all-expected
        s5 = build_system("A4")
        hits = [
            rec
            for w in range(s5.order)
            for rec in predict_ext1(s5, w)
            if not rec.expected
        ]
        assert hits == []

    def test_s6_additional_records_exist(self, s6):
        hits = [rec for rec in predict_ext1(s6, s6.element("s3")) if not rec.expected]
        assert hits
        for rec in hits:
            d = s6.lengths[rec.w_pen] - s6.lengths[rec.w]
            assert (rec.shift - d) % 2 == 0
