import random
import tracemalloc
from itertools import combinations

import pytest

from vermaext.coxeter import build_system
from vermaext.hecke import KLTable
from vermaext.poly import LaurentPoly
from vermaext.refdata import A2_ORDER, A2_R_TABLE, D4_R_W0_E, D4_SIGN_VIOLATIONS
from vermaext.rpoly import ParabolicRTable, RTable, r_oracle_table


def lp(table):
    return LaurentPoly(table)


@pytest.fixture(scope="module")
def a2():
    return build_system("A2")


@pytest.fixture(scope="module")
def a3():
    return build_system("A3")


@pytest.fixture(scope="module")
def rt2(a2):
    return RTable(a2)


@pytest.fixture(scope="module")
def rt3(a3):
    return RTable(a3)


class TestOrdinary:
    def test_base_cases(self, a2, rt2):
        for x in range(a2.order):
            want = lp({0: 1}) if x == a2.w0 else LaurentPoly()
            assert rt2.r_poly(x, a2.w0) == want
        assert rt2.r_poly(0, 0) == lp({0: 1})

    def test_zero_when_not_geq(self, a2, rt2):
        s, t = a2.element("s1"), a2.element("s2")
        assert rt2.r_poly(s, t) == LaurentPoly()
        assert rt2.r_poly(0, s) == LaurentPoly()

    def test_full_a2_table(self, a2, rt2):
        for xw in A2_ORDER:
            for yw in A2_ORDER:
                want = lp(A2_R_TABLE.get((xw, yw), {}))
                assert rt2.r_poly(a2.element(xw), a2.element(yw)) == want, (xw, yw)

    def test_specific_cells(self, a2, rt2):
        assert rt2.r_poly(a2.w0, 0) == lp({3: 1, 1: -2, -1: 2, -3: -1})
        assert rt2.r_poly(a2.element("s1*s2"), a2.element("s1")) == lp({1: 1, -1: -1})

    def test_coeff_list(self, a2, rt2):
        assert rt2.r_coeff_list(a2.w0, 0) == [-1, 2, -2, 1]
        assert rt2.r_coeff_list(0, 0) == [1]
        with pytest.raises(ValueError):
            rt2.r_coeff_list(0, a2.w0)

    def test_delorme_a2_all_pairs(self, a2, rt2):
        assert all(rt2.delorme_check(x, y) for x in range(6) for y in range(6))

    def test_bar_symmetry(self, a3, rt3):
        # r(v^-1) = (-1)^(l(x)-l(y)) r(v) on every comparable pair
        for x, y in a3.comparable_pairs():
            p = rt3.r_poly(x, y)
            d = a3.lengths[x] - a3.lengths[y]
            assert p.bar() == (p if d % 2 == 0 else -p)

    def test_endpoints(self, a3, rt3):
        for x, y in a3.comparable_pairs():
            d = a3.lengths[x] - a3.lengths[y]
            p = rt3.r_poly(x, y)
            assert p.coeff(d) == 1
            assert p.coeff(-d) == (-1) ** d

    def test_ascent_choice_independence(self, a3, rt3):
        rng = random.Random(7)
        pairs = a3.comparable_pairs()
        for _ in range(200):
            x, y = pairs[rng.randrange(len(pairs))]
            assert rt3.r_poly_random_ascents(x, y, rng) == rt3.r_poly(x, y)


@pytest.fixture(scope="module")
def f4_filled():
    """F4, its comparable pairs, an RTable holding r_{x,y} for all of them,
    and the distinct values (r_poly interns them: one object per value)."""
    sy = build_system("F4")
    rt = RTable(sy)
    pairs = sy.comparable_pairs()
    distinct = {id(p): p for p in (rt.r_poly(x, y) for x, y in pairs)}
    return sy, rt, pairs, list(distinct.values())


def r_tilde(p):
    """The coefficients of R~ with p(v) = R~(v - v^-1), highest degree first:
    while p has a top term c v^d, record c and subtract c (v - v^-1)^d."""
    powers = [lp({0: 1})]
    while len(powers) <= max(p.degree_span()[1], 0):
        powers.append(powers[-1] * lp({1: 1, -1: -1}))
    out = []
    while p:
        d = p.degree_span()[1]
        assert d >= 0, "%s is not a polynomial in v - v^-1" % p
        out.append(p.coeff(d))
        p = p - powers[d] * p.coeff(d)
    return out


class TestPackedBound:
    def test_f4_r_tilde_coefficients_within_bound(self, f4_filled):
        sy, _, _, values = f4_filled
        assert len(values) == 436
        coeffs = [c for p in values for c in r_tilde(p)]
        assert min(coeffs) >= 0
        assert max(coeffs) <= 2 ** sy.lengths[sy.w0]

    def test_f4_matches_random_ascents(self, f4_filled):
        sy, rt, pairs, _ = f4_filled
        rng = random.Random(11)
        assert rt.r_poly_random_ascents(sy.w0, 0, rng) == rt.r_poly(sy.w0, 0)
        for x, y in random.Random(12).sample(pairs, 300):
            assert rt.r_poly_random_ascents(x, y, rng) == rt.r_poly(x, y)


# r_{w0,e} on E6 over exponents -36..36 in steps of 2, computed by the
# recursion when it still tested the Bruhat order at every node.
E6_R_W0_E = [1, -6, 16, -26, 31, -31, 27, -24, 35, -64, 92, -95, 71, -46, 49, -79, 109, -121,
             122, -121, 109, -79, 49, -46, 71, -95, 92, -64, 35, -24, 27, -31, 31, -26, 16,
             -6, 1]


class TestPrunes:
    """r_poly reads no Bruhat order: it prunes by length and weight dominance
    and relies on the recursion giving 0 exactly off the order."""

    @pytest.mark.parametrize("label,replay", [("A3", True), ("B3", True), ("D4", True),
                                              ("B4", False)])
    def test_zero_exactly_off_the_order(self, label, replay):
        # TestOracle also checks every pair of A3 and B3 against the oracle
        sy = build_system(label)
        rt = RTable(sy)
        rng = random.Random(5)
        for x in range(sy.order):
            for y in range(sy.order):
                p = rt.r_poly(x, y)
                if not sy.bruhat_leq(y, x):
                    assert not p, (x, y)
                elif replay:
                    assert p == rt.r_poly_random_ascents(x, y, rng), (x, y)
                else:
                    assert p, (x, y)

    def test_e6_queries_build_no_bruhat_row(self):
        sy = build_system("E6")
        p = RTable(sy).r_poly(sy.w0, 0)
        assert [p.coeff(k) for k in range(-36, 37, 2)] == E6_R_W0_E
        rng = random.Random(17)
        for _ in range(20):
            x = y = rng.randrange(sy.order)
            for _ in range(rng.randrange(4, 16)):
                ascents = [s for s in range(sy.rank) if sy.lengths[sy.right[s][x]] > sy.lengths[x]]
                if not ascents:
                    break
                x = sy.right[rng.choice(ascents)][x]
            p = RTable(sy).r_poly(x, y)
            d = sy.lengths[x] - sy.lengths[y]
            assert p.eval_at_one() == (x == y)
            assert p.coeff(d) == 1 and p.coeff(-d) == (-1) ** d
        assert len(sy._rows) == 1  # only the row of e, made with the group


class TestSigns:
    def test_a2_clean(self, a2, rt2):
        assert rt2.sign_compatibility(a2.w0, 0) == []
        assert rt2.sign_compatibility(0, 0) == []

    def test_requires_comparable(self, a2, rt2):
        with pytest.raises(ValueError):
            rt2.sign_compatibility(0, a2.w0)

    @pytest.mark.parametrize("label", ["B3", "D4"])
    def test_matches_direct_walk(self, label):
        sy = build_system(label)
        rt = RTable(sy)
        for x, y in sy.comparable_pairs():
            d = sy.lengths[x] - sy.lengths[y]
            want = [k for k, c in rt.r_poly(x, y).items() if c * (-1) ** ((d - k) // 2) < 0]
            got = rt.sign_compatibility(x, y)
            assert got == want
            got.append(99)  # the caller's list; the next answer is unchanged
            assert rt.sign_compatibility(x, y) == want

    def test_d4(self):
        d4 = build_system("D4")
        rt = RTable(d4)
        assert rt.r_coeff_list(d4.w0, 0) == D4_R_W0_E
        assert rt.sign_compatibility(d4.w0, 0) == D4_SIGN_VIOLATIONS
        assert rt.delorme_check(d4.w0, 0)


class TestOracle:
    @pytest.mark.parametrize("label", ["A2", "A3", "B3"])
    def test_matches_recursion_everywhere(self, label):
        sy = build_system(label)
        rt = RTable(sy)
        oracle = r_oracle_table(KLTable(sy))
        for x in range(sy.order):
            for y in range(sy.order):
                assert oracle.get((x, y), LaurentPoly()) == rt.r_poly(x, y), (
                    sy.word_name(x),
                    sy.word_name(y),
                )

    def test_oracle_support(self):
        sy = build_system("A2")
        oracle = r_oracle_table(KLTable(sy))
        for (x, y), p in oracle.items():
            if p:
                assert sy.bruhat_leq(y, x)


class TestParabolicSingular:
    def test_j_empty_degenerates(self, a2, rt2):
        par = a2.parabolic(())
        sr = ParabolicRTable(rt2, par, "singular")
        pr = ParabolicRTable(rt2, par, "parabolic")
        for x in range(a2.order):
            for y in range(a2.order):
                assert sr.poly(x, y) == rt2.r_poly(x, y)
                assert pr.poly(x, y) == rt2.r_poly(x, y)

    def test_non_representative_rejected(self, a2, rt2):
        par = a2.parabolic([0])
        sr = ParabolicRTable(rt2, par, "singular")
        with pytest.raises(ValueError):
            sr.poly(a2.element("s1"), 0)

    def test_singular_top_is_delta(self, a3, rt3):
        for size in range(4):
            for J in combinations(range(3), size):
                par = a3.parabolic(J)
                sr = ParabolicRTable(rt3, par, "singular")
                for x in sr.reps:
                    want = lp({0: 1}) if x == sr.top else LaurentPoly()
                    assert sr.poly(x, sr.top) == want

    def test_parabolic_base(self, a3, rt3):
        par = a3.parabolic([0, 1])
        pr = ParabolicRTable(rt3, par, "parabolic")
        for x in pr.reps:
            want = lp({0: 1}) if x == pr.top else LaurentPoly()
            assert pr.poly(x, pr.top) == want

    def test_a2_singular_j0_table(self, a2, rt2):
        # independent hand computation for J = {s1}
        par = a2.parabolic([0])
        sr = ParabolicRTable(rt2, par, "singular")
        e, t, st = 0, a2.element("s2"), a2.element("s1*s2")
        assert sr.poly(e, e) == lp({0: 1})
        assert sr.poly(t, e) == lp({1: 1, -1: -1})
        assert sr.poly(st, e) == lp({2: 1, 0: -1})
        assert sr.poly(st, t) == lp({1: 1, -1: -1})
        assert sr.poly(t, t) == lp({0: 1})
        assert sr.poly(e, t) == LaurentPoly()

    def test_a2_parabolic_j0_table(self, a2, rt2):
        # independent hand computation for J = {s1} acting on the left
        par = a2.parabolic([0])
        pr = ParabolicRTable(rt2, par, "parabolic")
        e, t, ts = 0, a2.element("s2"), a2.element("s2*s1")
        assert pr.poly(e, e) == lp({0: 1})
        assert pr.poly(t, e) == lp({1: 1, -1: -1})
        assert pr.poly(ts, e) == lp({-2: 1, 0: -1})
        assert pr.poly(ts, t) == lp({1: 1, -1: -1})
        assert pr.poly(ts, ts) == lp({0: 1})
        assert pr.poly(e, ts) == LaurentPoly()

    @pytest.mark.parametrize("Jsize", [0, 1, 2, 3])
    def test_duality_and_delorme_a3(self, a3, rt3, Jsize):
        for J in combinations(range(3), Jsize):
            par = a3.parabolic(J)
            sr = ParabolicRTable(rt3, par, "singular")
            pr = ParabolicRTable(rt3, par, "parabolic")
            for x in pr.reps:
                for y in pr.reps:
                    assert pr.poly(x, y) == sr.poly(
                        a3.inverse[x], a3.inverse[y]
                    ).subst_neg_inv()
                    assert pr.poly(x, y).eval_at_one() == (1 if x == y else 0)
            for x in sr.reps:
                for y in sr.reps:
                    assert sr.poly(x, y).eval_at_one() == (1 if x == y else 0)


class TestMemoSize:
    """The memo is one dict per y keyed by the shared element ints, and it
    holds one int object per distinct value."""

    def test_b4_traced_bytes_per_pair(self):
        sy = build_system("B4")
        pairs = sy.comparable_pairs()
        tracemalloc.start()
        try:
            rt = RTable(sy)
            for x, y in pairs:
                rt.r_poly(x, y)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # per-y columns of interned values take about 41 bytes per pair; a
        # key int x * order + y and a fresh int per entry take about 87
        assert traced / len(pairs) < 60
        values = [n for col in rt._cols.values() for n in col.values()]
        assert len({id(n) for n in values}) == len(set(values))
