import doctest

import pytest
from hypothesis import given, strategies as st

import vermaext.poly
from vermaext.coxeter import build_system
from vermaext.hecke import HeckeElement
from vermaext.poly import ONE, BiPoly, LaurentPoly


def lp(table):
    return LaurentPoly(table)


coeffs = st.integers(min_value=-50, max_value=50)
exps = st.integers(min_value=-8, max_value=8)
polys = st.builds(LaurentPoly, st.dictionaries(exps, coeffs, max_size=6))


class TestLaurentRing:
    def test_product_of_differences(self):
        p = lp({1: 1, -1: -1})
        assert p * p == lp({2: 1, 0: -2, -2: 1})

    def test_add_zero(self):
        p = lp({3: 2, -1: 5})
        assert p + LaurentPoly() == p
        assert p + 0 == p

    def test_shift(self):
        assert ONE.shift(-3) == lp({-3: 1})
        assert lp({1: 2}).shift(2) == lp({3: 2})

    def test_zero_coefficients_dropped(self):
        assert not lp({5: 0})
        assert (lp({1: 1}) - lp({1: 1})) == LaurentPoly()

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(polys)
    def test_involutions(self, p):
        assert p.bar().bar() == p
        assert p.subst_neg_inv().subst_neg_inv() == p

    @given(polys, polys)
    def test_involutions_multiplicative(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).subst_neg_inv() == a.subst_neg_inv() * b.subst_neg_inv()
        assert (a + b).subst_neg_inv() == a.subst_neg_inv() + b.subst_neg_inv()


class TestSubstitutions:
    def test_bar(self):
        assert lp({1: 1}).bar() == lp({-1: 1})
        assert lp({1: 1, -1: -1}).bar() == lp({-1: 1, 1: -1})

    def test_neg_inv(self):
        assert lp({1: 1}).subst_neg_inv() == lp({-1: -1})
        assert lp({2: 1, 0: -2, -2: 1}).subst_neg_inv() == lp({2: 1, 0: -2, -2: 1})
        assert lp({3: 1, 1: -2}).subst_neg_inv() == lp({-3: -1, -1: 2})

    def test_eval_at_one(self):
        assert ONE.eval_at_one() == 1
        assert lp({1: 1, -1: -1}).eval_at_one() == 0
        assert lp({3: 1, 1: -2, -1: 2, -3: -1}).eval_at_one() == 0


class TestAccessors:
    def test_coeff(self):
        p = lp({3: 1, 1: -2})
        assert p.coeff(1) == -2
        assert p.coeff(7) == 0

    def test_span(self):
        p = lp({2: 1, 4: 1})
        assert p.degree_span() == (2, 4)

    def test_span_of_zero_raises(self):
        with pytest.raises(ValueError):
            LaurentPoly().degree_span()

    def test_json_round_trip(self):
        p = lp({-3: -1, -1: 2, 1: -2, 3: 1})
        blob = p.to_json()
        assert blob == {"var": "v", "terms": [[-3, -1], [-1, 2], [1, -2], [3, 1]]}


class TestBiPoly:
    def test_swap(self):
        p = BiPoly({(1, 0): 1, (0, 2): 3})
        assert p.swap_vars() == BiPoly({(0, 1): 1, (2, 0): 3})

    def test_json_round_trip(self):
        p = BiPoly({(0, 1): 1, (1, 0): 1})
        blob = p.to_json()
        assert blob == {"vars": ["u", "v"], "terms": [[0, 1, 1], [1, 0, 1]]}


class TestTerms:
    def test_equal_values_hash_equal(self):
        assert 1 in {ONE}
        assert {ONE: "x"}[1] == "x"
        assert 0 in {LaurentPoly()}
        assert lp({0: -3}) in {-3}

    def test_type_rules(self):
        p, b = lp({0: 1}), BiPoly({(0, 0): 1})
        assert p != b and b != p
        for left, right in ((p, b), (b, p), (b, 1), (1, b)):
            with pytest.raises(TypeError):
                left + right
        assert p + 1 == 1 + p == lp({0: 2})
        assert p - 1 == 1 - p == 0
        sy, other = build_system("A2"), build_system("A2")
        with pytest.raises(ValueError):
            HeckeElement.standard(sy, 0) + HeckeElement.standard(other, 0)
        assert HeckeElement.standard(sy, 0) != HeckeElement.standard(other, 0)

    def test_printed_forms(self):
        assert str(lp({1: -1, -3: 5})) == "-v + 5*v^-3"
        assert str(lp({0: -3})) == "-3"
        b = BiPoly({(0, 0): -2, (1, 0): 1, (0, 2): -1, (3, 1): 4})
        assert str(b) == "-2 - v^2 + u + 4*u^3*v"
        sy = build_system("A2")
        h = HeckeElement(sy, {0: lp({1: 1}), 3: lp({-1: -2})})
        assert repr(h) == "HeckeElement((v)*h[e] + (-2*v^-1)*h[s1*s2])"
        zeros = (LaurentPoly(), BiPoly(), HeckeElement(sy))
        assert [str(z) for z in zeros[:2]] == ["0", "0"]
        assert [repr(z) for z in zeros] == [
            "LaurentPoly('0')", "BiPoly('0')", "HeckeElement(0)"]

    def test_doctests(self):
        result = doctest.testmod(vermaext.poly)
        assert result.attempted >= 3 and not result.failed
