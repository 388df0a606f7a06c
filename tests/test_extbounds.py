import itertools
import random

import numpy as np
import pytest

from vermaext import extbounds
from vermaext.coxeter import CoxeterSystem, build_system
from vermaext.extbounds import (
    BOOLEAN,
    RANK2,
    SMALL_LENGTH_GAP,
    TRIVIAL_KL,
    TYPE_A3_THEOREM,
    Certificate,
    all_expected_predicate,
    expected_dims,
    hom_grid,
    kl_bound_poly,
    r_determined,
    refined_bound,
    triangle_region,
    trivial_kl_certificate,
)
from vermaext.hecke import KLTable
from vermaext.intervals import equiv_classes
from vermaext.poly import BiPoly
from vermaext.refdata import A3_GRID_EDGE, A3_GRID_OFF_EDGE
from vermaext.rpoly import RTable


@pytest.fixture(scope="module")
def a3():
    return build_system("A3")


@pytest.fixture(scope="module")
def kl3(a3):
    return KLTable(a3)


@pytest.fixture(scope="module")
def rt3(a3):
    return RTable(a3)


def whole_group_bound(kl, x, y):
    """kl_bound_poly summed over every z of the group."""
    sy = kl.system
    yw0 = sy.mult(y, sy.w0)
    terms = []
    for z in range(sy.order):
        pu, pv = kl.kl_poly(yw0, sy.mult(z, sy.w0)), kl.kl_poly(x, z)
        terms += [((a, b), ca * cb) for a, ca in pu.items() for b, cb in pv.items()]
    return BiPoly(terms)


def whole_group_refined(kl, x, y, a, b):
    """refined_bound with its witnesses w >= y taken from the whole group."""
    sy = kl.system
    xw0 = sy.mult(x, sy.w0)
    best = max((kl.kl_poly(xw0, sy.mult(w, sy.w0)).coeff(a - b) for w in range(sy.order)
                if sy.lengths[w] == sy.lengths[y] + a and sy.bruhat_leq(y, w)), default=0)
    return max(whole_group_bound(kl, y, x).coeff(a - b, a) - best, 0)


@pytest.mark.parametrize("name", ["triangle_region", "refined_bound", "expected_dims",
                                  "r_determined", "r_coeff_list", "sign_compatibility"])
def test_incomparable_pair_message(name, a3, kl3, rt3):
    calls = {
        "triangle_region": lambda: triangle_region(a3, 0, a3.w0),
        "refined_bound": lambda: refined_bound(kl3, 0, a3.w0, 1, 0),
        "expected_dims": lambda: expected_dims(rt3, 0, a3.w0),
        "r_determined": lambda: r_determined(a3, 0, a3.w0, kl=kl3,
                                             partition=equiv_classes(a3)),
        "r_coeff_list": lambda: rt3.r_coeff_list(0, a3.w0),
        "sign_compatibility": lambda: rt3.sign_compatibility(0, a3.w0),
    }
    with pytest.raises(ValueError, match="^%s needs x >= y$" % name):
        calls[name]()


class TestTriangleRegion:
    def test_degenerate(self, a3):
        region = triangle_region(a3, 0, 0)
        assert [(p.a, p.b) for p in region.points] == [(0, 0)]
        p = region.points[0]
        assert p.south and p.east and p.expected

    def test_d3_is_only_the_edge(self, a3):
        region = triangle_region(a3, a3.element("r*s*t"), 0)
        assert [(p.a, p.b) for p in region.points] == [(0, -3), (1, -1), (2, 1), (3, 3)]
        assert all(p.expected for p in region.points)

    def test_d4_edge_and_interior(self, a3):
        region = triangle_region(a3, a3.element("s*r*t*s"), 0)
        assert [(p.a, p.b) for p in region.points if p.expected] == [
            (0, -4), (1, -2), (2, 0), (3, 2), (4, 4)]
        assert [(p.a, p.b) for p in region.points if not p.expected] == [(1, 0)]

    def test_invariant_inequalities(self, a3):
        for x, y in a3.comparable_pairs():
            region = triangle_region(a3, x, y)
            d = region.d
            for p in region.points:
                assert 0 <= p.a <= d
                assert 2 * p.a - d <= p.b <= p.a
                assert (p.b - d) % 2 == 0
                # dashed edges excluded
                assert not (p.b == p.a and p.a < d and not p.south)
                assert not (p.a == 0 and p.b > -d)

    def test_requires_comparable(self, a3):
        with pytest.raises(ValueError):
            triangle_region(a3, 0, a3.w0)


class TestKLBound:
    def test_rank1(self):
        a1 = build_system("A1")
        kl = KLTable(a1)
        assert kl_bound_poly(kl, 0, 1) == BiPoly({(1, 0): 1, (0, 1): 1})

    def test_diagonal(self, a3, kl3):
        for x in (0, a3.element("s1"), a3.w0):
            assert kl_bound_poly(kl3, x, x) == BiPoly({(0, 0): 1})

    def test_a3_main_and_extra_terms(self, a3, kl3):
        bound = kl_bound_poly(kl3, 0, a3.w0)
        counts = [1, 3, 5, 6, 5, 3, 1]
        for k in range(7):
            assert bound.coeff(6 - k, k) == counts[k]
        assert bound.coeff(1, 3) == 1
        assert bound.coeff(2, 2) == 2
        assert bound.coeff(3, 1) == 1

    def test_corner_degree_parity(self, a3, kl3):
        for y in range(a3.order):
            for x in range(a3.order):
                if not a3.bruhat_leq(x, y):
                    continue
                bound = kl_bound_poly(kl3, x, y)
                d = a3.lengths[y] - a3.lengths[x]
                assert bound.coeff(d, 0) == 1
                assert bound.coeff(0, d) == 1
                assert all(t % 2 == d % 2 for t in bound.total_degrees())

    def test_symmetries(self, a3, kl3):
        # swapping source and target via w0-translation exchanges u and v;
        # conjugate-inverse leaves the bound unchanged
        for y in range(a3.order):
            for x in range(a3.order):
                if not a3.bruhat_leq(x, y):
                    continue
                lhs = kl_bound_poly(kl3, x, y)
                swapped = kl_bound_poly(
                    kl3, a3.mult(y, a3.w0), a3.mult(x, a3.w0)
                ).swap_vars()
                assert lhs == swapped
                conj = kl_bound_poly(
                    kl3, a3.conj_w0(a3.inverse[x]), a3.conj_w0(a3.inverse[y])
                )
                assert lhs == conj

    @pytest.mark.parametrize("label,sample", [("A3", None), ("B3", None), ("D4", 400),
                                              ("B4", 400)])
    def test_matches_whole_group_sum(self, label, sample):
        # every ordered pair, so x not <= y gives 0 too, or a seeded sample
        sy = build_system(label)
        kl = KLTable(sy)
        pairs = list(itertools.product(range(sy.order), repeat=2))
        if sample:
            pairs = random.Random(label).sample(pairs, sample)
        for x, y in pairs:
            assert kl_bound_poly(kl, x, y) == whole_group_bound(kl, x, y), (x, y)

    def test_builds_only_interval_rows(self):
        # [e, s1] in F4 needs the KL rows of e, s1, s1 w0 and w0 and what
        # their induction reads, not all 1152
        f4 = build_system("F4")
        kl = KLTable(f4)
        kl_bound_poly(kl, 0, f4.element("s1"))
        assert len(kl._basis) < f4.order


class TestHomGrid:
    def test_a3_figure(self, a3, kl3):
        grid = hom_grid(kl3, 0, a3.w0)
        for (a, b), v in A3_GRID_EDGE.items():
            assert grid.value(a, b) == v
        off = {(a, b): v for (a, b), v in grid.cells.items() if v and b != 2 * a - 6}
        assert off == A3_GRID_OFF_EDGE

    def test_rank1(self):
        a1 = build_system("A1")
        grid = hom_grid(KLTable(a1), 0, 1)
        assert grid.cells == {(0, -1): 1, (1, 1): 1}

    def test_matches_bound_poly(self, a3, kl3):
        grid = hom_grid(kl3, 0, a3.w0)
        bound = kl_bound_poly(kl3, 0, a3.w0)
        for (a, b), v in grid.cells.items():
            assert bound.coeff(a - b, a) == v

    def test_gray_region_containment(self, a3, kl3):
        for target in range(a3.order):
            grid = hom_grid(kl3, target, a3.w0)
            dgray = 6 - a3.lengths[target]
            for (a, b), v in grid.cells.items():
                if v:
                    assert 0 <= a <= dgray
                    assert 2 * a - dgray <= b <= a


class TestRefinedBound:
    def test_kills_a3_low_cell(self, a3, kl3):
        assert refined_bound(kl3, a3.w0, 0, 1, -2) == 0

    def test_guard(self, a3, kl3):
        with pytest.raises(ValueError):
            refined_bound(kl3, a3.w0, 0, 3, 0)  # expected-edge cell

    def test_trivial_pairs_vanish_inside(self, a3, kl3):
        x = a3.element("r*s*t")
        region = triangle_region(a3, x, 0)
        for p in region.points:
            if p.expected:
                continue
            assert refined_bound(kl3, x, 0, p.a, p.b) == 0

    def test_b3(self):
        # one witness summand is always subtracted from the grid value 3
        b3 = build_system("B3")
        kl = KLTable(b3)
        val = refined_bound(kl, b3.w0, 0, 2, -1)
        assert val == 2

    def test_never_negative(self):
        # and equal to the bound with its cell and witnesses read off sums
        # over the whole group: on every comparable pair of A3 and B3, and on
        # a seeded sample of D4
        for label, sample in [("A3", None), ("B3", None), ("D4", 300)]:
            sy = build_system(label)
            kl = KLTable(sy)
            pairs = sy.comparable_pairs()
            if sample:
                pairs = random.Random(label).sample(pairs, sample)
            for x, y in pairs:
                for p in triangle_region(sy, x, y).points:
                    if p.expected:
                        continue
                    got = refined_bound(kl, x, y, p.a, p.b)
                    assert got >= 0
                    assert got == whole_group_refined(kl, x, y, p.a, p.b), (label, x, y, p)


class TestExpectedDims:
    def test_a2_longest_pair(self):
        a2 = build_system("A2")
        grid = expected_dims(RTable(a2), a2.w0, 0)
        assert grid.nonzero() == [(0, -3, 1), (1, -1, 2), (2, 1, 2), (3, 3, 1)]
        assert not grid.untrusted

    def test_diagonal(self, a3, rt3):
        assert expected_dims(rt3, 0, 0).nonzero() == [(0, 0, 1)]

    def test_rank1(self):
        a1 = build_system("A1")
        grid = expected_dims(RTable(a1), 1, 0)
        assert grid.nonzero() == [(0, -1, 1), (1, 1, 1)]

    def test_d4_untrusted(self):
        d4 = build_system("D4")
        grid = expected_dims(RTable(d4), d4.w0, 0)
        assert grid.untrusted

    def test_cells_on_edge_only(self, a3, rt3):
        for x, y in a3.comparable_pairs():
            d = a3.lengths[x] - a3.lengths[y]
            for (a, b), v in expected_dims(rt3, x, y).cells.items():
                assert b == 2 * a - d and v > 0

    def test_dominated_by_kl_bound(self, a3, kl3, rt3):
        b3 = build_system("B3")
        klb, rtb = KLTable(b3), RTable(b3)
        for sy, kl, rt in ((a3, kl3, rt3), (b3, klb, rtb)):
            for x, y in sy.comparable_pairs():
                grid = hom_grid(kl, y, x)
                for (a, b), v in expected_dims(rt, x, y).cells.items():
                    assert v <= grid.value(a, b)

    def test_alternating_sum_recovers_r(self, a3, rt3):
        for x, y in a3.comparable_pairs():
            d = a3.lengths[x] - a3.lengths[y]
            cells = expected_dims(rt3, x, y).cells
            p = rt3.r_poly(x, y)
            for a in range(d + 1):
                signed = cells.get((a, 2 * a - d), 0) * (-1) ** a
                assert signed == p.coeff(d - 2 * a)


class TestCertificates:
    def test_rank2(self):
        a2 = build_system("A2")
        kl, part = KLTable(a2), equiv_classes(a2)
        for x, y in a2.comparable_pairs():
            assert r_determined(a2, x, y, kl=kl, partition=part).kind == RANK2

    def test_small_gap(self, a3, kl3):
        x = a3.element("r*s*t")
        assert r_determined(a3, x, 0, kl=kl3, partition=equiv_classes(a3)).kind == SMALL_LENGTH_GAP

    def test_trivial_kl_clause(self):
        b3 = build_system("B3")
        kl = KLTable(b3)
        # the antidominant end always satisfies the trivial-KL condition
        cert = r_determined(b3, b3.w0, b3.w0, kl=kl, partition=equiv_classes(b3))
        assert cert is not None

    @pytest.mark.parametrize("label", ["A3", "B3"])
    def test_trivial_kl_reused_table_matches_fresh(self, label):
        sy = build_system(label)
        shared = KLTable(sy)
        for y in range(sy.order):
            first = trivial_kl_certificate(shared, y)
            assert trivial_kl_certificate(shared, y) == first
            assert trivial_kl_certificate(KLTable(sy), y) == first
        assert len(shared.trivial_certificates) == sy.order

    def test_boolean_clause_fires_in_d4(self):
        # a multiplicity-free product of all four generators: length 4, so
        # the small-gap clause is out, and the trivial-KL clause fails at e
        d4 = build_system("D4")
        kl = KLTable(d4)
        part = equiv_classes(d4)
        w = d4.element("s1*s2*s3*s4")
        assert d4.is_boolean(w) and d4.lengths[w] == 4
        cert = r_determined(d4, w, 0, kl=kl, partition=part)
        assert cert.kind == BOOLEAN

    def test_theorem_clause_covers_long_pairs(self, a3, kl3):
        part = equiv_classes(a3)
        cert = r_determined(a3, a3.w0, 0, kl=kl3, partition=part)
        assert cert.kind == TYPE_A3_THEOREM

    def test_d4_top_pair_unknown(self):
        d4 = build_system("D4")
        kl = KLTable(d4)
        part = equiv_classes(d4)
        assert r_determined(d4, d4.w0, 0, kl=kl, partition=part) is None

    def test_requires_comparable(self, a3, kl3):
        with pytest.raises(ValueError):
            r_determined(a3, 0, a3.w0, kl=kl3, partition=equiv_classes(a3))

    def test_requires_partition(self):
        # without a partition the Boolean clause could not be tried, so the
        # call is refused rather than answered with a weaker certificate
        d4 = build_system("D4")
        w = d4.element("s1*s2*s3*s4")
        with pytest.raises(TypeError):
            r_determined(d4, w, 0, kl=KLTable(d4))

    def test_requires_kl(self):
        # without KL data the trivial-KL clause could not be tried, so the
        # call is refused rather than answered with a weaker certificate
        d4 = build_system("D4")
        w = d4.element("s1*s2*s3*s4")
        with pytest.raises(TypeError):
            r_determined(d4, w, 0, partition=equiv_classes(d4))

    @pytest.mark.parametrize("label", ["A3", "B3", "D4"])
    def test_class_level_clauses_come_first(self, label):
        # trivial KL is the last clause: it is named only where no
        # class-level clause (Boolean member, type A3) holds
        sy = build_system(label)
        kl, part = KLTable(sy), equiv_classes(sy)
        for x, y in sy.comparable_pairs():
            cert = r_determined(sy, x, y, kl=kl, partition=part)
            if cert is not None and cert.kind == TRIVIAL_KL:
                assert not part.boolean_member(x, y)
                assert sy.type_label != "A3"


class TestAllExpected:
    def test_a2_true(self):
        a2 = build_system("A2")
        report = all_expected_predicate(a2)
        assert report.verdict and report.signs_consistent

    def test_a3_true(self, a3):
        report = all_expected_predicate(a3)
        assert report.verdict

    def test_d4_boolean_search_linear_in_pairs(self, monkeypatch):
        # each equivalence class is searched at most once, two passes each
        d4 = build_system("D4")
        part = equiv_classes(d4)
        counted = []
        original = CoxeterSystem.is_boolean
        monkeypatch.setattr(
            CoxeterSystem, "is_boolean",
            lambda self, w: counted.append(w) or original(self, w),
        )
        all_expected_predicate(d4)
        assert 0 < len(counted) <= 2 * len(part.pairs)

    def test_trivial_kl_asked_once_per_least_pair_and_y(self, monkeypatch):
        # inside r_determined the predicate asks trivial_kl_certificate once
        # for the least pair of every class with no class-level certificate
        # (rank 2, small gap, Boolean, type A3); on those classes it asks
        # once more for each distinct y among their pairs
        b3 = build_system("B3")
        part, kl = equiv_classes(b3), KLTable(b3)
        bare = [members for members in part.classes
                if r_determined(b3, *members[0], kl=kl, partition=part)
                in (None, Certificate(TRIVIAL_KL))]
        calls = []
        original = extbounds.trivial_kl_certificate
        monkeypatch.setattr(
            extbounds, "trivial_kl_certificate",
            lambda kl, y: calls.append(y) or original(kl, y),
        )
        all_expected_predicate(b3)
        ys = {y for members in bare for _, y in members}
        assert len(bare) == 46 and len(ys) == 32
        assert len(calls) == len(bare) + len(ys) == 78

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "B4"])
    def test_class_scan_matches_every_pair(self, label):
        # the predicate reads the sign rule and the class-level clauses off
        # each class's least pair; recompute both for every pair on its own,
        # with fresh tables and a fresh partition
        sy = build_system(label)
        report = all_expected_predicate(sy)
        rt, kl = RTable(sy), KLTable(sy)
        own = equiv_classes(sy)
        violations, uncertified = [], []
        for x, y in sy.comparable_pairs():
            bad = rt.sign_compatibility(x, y)
            if bad:
                violations.append((x, y, bad))
            if r_determined(sy, x, y, kl=kl, partition=own) is None:
                uncertified.append((x, y))
        assert report.sign_violations == violations
        assert report.uncertified == uncertified
        assert report.pairs == len(sy.comparable_pairs())
        assert len({id(bad) for _, _, bad in report.sign_violations}) == len(violations)

    def test_uncertified_keys_are_sorted_pair_keys(self):
        b3 = build_system("B3")
        report = all_expected_predicate(b3)
        keys = report.uncertified_keys
        assert keys.dtype == np.int64 and len(keys) == 272
        assert (np.diff(keys) > 0).all()
        assert report.uncertified == [divmod(k, b3.order) for k in keys.tolist()]
        assert "272 pair(s) lack a certificate" in report.summary()

    def test_d4_false_with_witness(self):
        d4 = build_system("D4")
        report = all_expected_predicate(d4)
        assert not report.verdict
        assert any(x == d4.w0 and y == 0 for x, y, _ in report.sign_violations)
        assert "additional" in report.summary()
