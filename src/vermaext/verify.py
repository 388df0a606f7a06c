"""Named verification suites reproducing the frozen reference data end to end.

Each suite rebuilds what it needs from scratch, runs a list of exact checks
and returns a SuiteResult; nothing is tolerant, every comparison is integer
or polynomial equality.  The CLI `verify` command and the acceptance tests
both drive these functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from . import refdata
from .coxeter import CapExceededError, build_system
from .extbounds import (
    all_expected_predicate,
    expected_bipoly,
    expected_dims,
    hom_grid,
    kl_bound_poly,
    r_determined,
    refined_bound,
)
from .hecke import KLTable
from .intervals import class_r_constancy, equiv_classes, poset_isomorphic
from .poly import BiPoly, LaurentPoly
from .rpoly import ParabolicRTable, RTable, r_oracle_table
from .typea import expected_ext1_shift, penultimate_element, predict_ext1


@dataclass
class SuiteResult:
    name: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, description: str, ok: bool, detail: str = ""):
        self.checks.append((description, bool(ok), detail))

    def expect_equal(self, description: str, got, want):
        ok = got == want
        detail = "" if ok else "got %r, wanted %r" % (got, want)
        self.checks.append((description, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def report_lines(self) -> list[str]:
        lines = ["suite %s: %s" % (self.name, "PASS" if self.passed else "FAIL")]
        for desc, ok, detail in self.checks:
            mark = "ok  " if ok else "FAIL"
            lines.append("  [%s] %s%s" % (mark, desc, (" -- " + detail) if detail else ""))
        return lines


def suite_a1_tables() -> SuiteResult:
    res = SuiteResult("a1-tables")
    sy = build_system("A1")
    rt = RTable(sy)
    for (xw, yw), cells in refdata.A1_EXPECTED_TABLE.items():
        x, y = sy.element(xw), sy.element(yw)
        res.expect_equal(
            "expected table entry (%s, %s)" % (xw, yw),
            expected_bipoly(rt, x, y),
            BiPoly(cells),
        )
    s = sy.element("s1")
    grid = expected_dims(rt, s, 0)
    res.expect_equal("first extension of the nontrivial pair is 1-dimensional",
                     grid.value(1, 1), 1)
    res.expect_equal("hom of the nontrivial pair sits at shift -1", grid.value(0, -1), 1)
    bound = kl_bound_poly(KLTable(sy), 0, s)
    res.expect_equal("rank-1 bound equals the actual dimensions",
                     bound, BiPoly({(1, 0): 1, (0, 1): 1}))
    return res


def suite_a2_tables() -> SuiteResult:
    res = SuiteResult("a2-tables")
    sy = build_system("A2")
    rt = RTable(sy)
    elems = {w: sy.element(w) for w in refdata.A2_ORDER}
    for xw in refdata.A2_ORDER:
        for yw in refdata.A2_ORDER:
            want = LaurentPoly(refdata.A2_R_TABLE.get((xw, yw), {}))
            got = rt.r_poly(elems[xw], elems[yw])
            res.expect_equal("R table cell (%s, %s)" % (xw, yw), got, want)
    for x, y in sy.comparable_pairs():
        xw, yw = sy.word_name(x), sy.word_name(y)
        want = BiPoly(refdata.A2_EXPECTED_TABLE[(xw, yw)])
        res.expect_equal("expected table cell (%s, %s)" % (xw, yw),
                         expected_bipoly(rt, x, y), want)
    return res


def suite_a3_kl() -> SuiteResult:
    res = SuiteResult("a3-kl")
    sy = build_system("A3")
    kl = KLTable(sy)
    got = {sy.word_name(y): p for y, p in kl.nontrivial_from(0)}
    want = {w: LaurentPoly(table) for w, table in refdata.A3_NONTRIVIAL_KL.items()}
    res.expect_equal("nontrivial KL polynomials from the identity", got, want)
    res.expect_equal("exactly two nontrivial entries", len(got), 2)
    return res


def suite_a3_figure() -> SuiteResult:
    res = SuiteResult("a3-figure")
    sy = build_system("A3")
    kl = KLTable(sy)
    grid = hom_grid(kl, 0, sy.w0)
    for (a, b), v in sorted(refdata.A3_GRID_EDGE.items()):
        res.expect_equal("edge cell (%d, %d)" % (a, b), grid.value(a, b), v)
    off = {(a, b): v for (a, b), v in grid.cells.items() if v and b != 2 * a - 6}
    res.expect_equal("off-edge cells", off, refdata.A3_GRID_OFF_EDGE)
    res.expect_equal("refinement kills the off-edge cell at (1, -2)",
                     refined_bound(kl, sy.w0, 0, 1, -2), 0)
    return res


def suite_a3_all_expected() -> SuiteResult:
    res = SuiteResult("a3-all-expected")
    rep2 = all_expected_predicate(build_system("A2"))
    res.check("A2 verdict is true (rank 2)", rep2.verdict, rep2.summary())
    rep3 = all_expected_predicate(build_system("A3"))
    res.check("A3 verdict is true", rep3.verdict, rep3.summary())
    res.check("A3 signs consistent on every pair", rep3.signs_consistent)
    return res


def suite_d4_boe() -> SuiteResult:
    res = SuiteResult("d4-boe")
    res.check("E7 stays un-enumerated under the default cap", _e7_guard())
    res.expect_equal("E7 display list length", len(refdata.E7_R_W0_E), 64)
    sy = build_system("D4")
    rt = RTable(sy)
    res.expect_equal("coefficients of r(w0, e)",
                     rt.r_coeff_list(sy.w0, 0), refdata.D4_R_W0_E)
    res.expect_equal("sign violations of (w0, e)",
                     rt.sign_compatibility(sy.w0, 0), refdata.D4_SIGN_VIOLATIONS)
    pairs = sy.comparable_pairs()
    bad = [(x, y) for x, y in pairs if not rt.delorme_check(x, y)]
    res.expect_equal("Delorme check over all %d comparable pairs" % len(pairs), bad, [])
    rep = all_expected_predicate(sy)
    res.check("D4 verdict is false", not rep.verdict)
    res.check("(w0, e) among the violators",
              any(x == sy.w0 and y == 0 for x, y, _ in rep.sign_violations))
    return res


def _e7_guard() -> bool:
    try:
        build_system("E7")
    except CapExceededError:
        return True
    return False


def suite_b3_example() -> SuiteResult:
    res = SuiteResult("b3-example")
    sy = build_system("B3")
    res.expect_equal("generator names", sy.gen_names, ["s0", "s1", "s2"])
    res.expect_equal("order", sy.order, 48)
    res.expect_equal("longest length", sy.lengths[sy.w0], 9)
    kl = KLTable(sy)
    grid_e = hom_grid(kl, 0, sy.w0)
    grid_s0 = hom_grid(kl, sy.element("s0"), sy.w0)
    for (a, b), v in sorted(refdata.B3_GRID_E_CELLS.items()):
        res.expect_equal("dominant grid cell (%d, %d)" % (a, b), grid_e.value(a, b), v)
    for (a, b), v in sorted(refdata.B3_GRID_S0_CELLS.items()):
        res.expect_equal("s0 grid cell (%d, %d)" % (a, b), grid_s0.value(a, b), v)
    ok = all(v <= grid_e.value(a + 1, b + 1) for (a, b), v in grid_s0.cells.items())
    res.check("cellwise bound: s0 grid embeds in the dominant grid "
              "(one step up in both coordinates)", ok)
    return res


def suite_parabolic_a3() -> SuiteResult:
    res = SuiteResult("parabolic-a3")
    sy = build_system("A3")
    rt = RTable(sy)
    for size in range(sy.rank + 1):
        for J in combinations(range(sy.rank), size):
            par = sy.parabolic(J)
            sr = ParabolicRTable(rt, par, "singular")
            pr = ParabolicRTable(rt, par, "parabolic")
            jname = "{%s}" % ",".join(sy.gen_names[j] for j in J)
            mism = 0
            for x in pr.reps:
                for y in pr.reps:
                    if pr.poly(x, y) != sr.poly(sy.inverse[x], sy.inverse[y]).subst_neg_inv():
                        mism += 1
            res.expect_equal("duality identity on J=%s" % jname, mism, 0)
            bad = sum(
                1
                for tab in (sr, pr)
                for x in tab.reps
                for y in tab.reps
                if tab.poly(x, y).eval_at_one() != (1 if x == y else 0)
            )
            res.expect_equal("Delorme for sr and pr on J=%s" % jname, bad, 0)
    return res


def suite_delorme() -> SuiteResult:
    res = SuiteResult("delorme")
    for label in ("A2", "A3"):
        sy = build_system(label)
        rt = RTable(sy)
        oracle = r_oracle_table(KLTable(sy))
        mism = sum(
            1
            for x in range(sy.order)
            for y in range(sy.order)
            if oracle.get((x, y), LaurentPoly()) != rt.r_poly(x, y)
        )
        res.expect_equal("%s: recursion agrees with the inverse-KL oracle" % label, mism, 0)
    for label in ("A2", "A3", "B3"):
        sy = build_system(label)
        rt = RTable(sy)
        bad = sum(1 for x, y in sy.comparable_pairs() if not rt.delorme_check(x, y))
        res.expect_equal("%s: specialization at v=1 is the delta" % label, bad, 0)
    return res


def suite_intervals_a3() -> SuiteResult:
    res = SuiteResult("intervals-a3")
    sy = build_system("A3")
    part = equiv_classes(sy)
    rts = sy.element("r*t*s")
    srts = sy.element("s*r*t*s")
    s = sy.element("s")
    res.check("(rts, e) and (srts, s) share a class",
              part.same_class((rts, 0), (srts, s)))
    res.expect_equal("class count", len(part.classes), refdata.A3_CLASS_COUNT)
    res.expect_equal("class sizes", part.class_sizes(), refdata.A3_CLASS_SIZES)
    res.expect_equal("comparable pair count", len(part.pairs), refdata.A3_PAIR_COUNT)
    ok, viol = class_r_constancy(part, RTable(sy))
    res.check("A3: R constant on classes", ok)
    b3 = build_system("B3")
    okb, violb = class_r_constancy(equiv_classes(b3), RTable(b3))
    res.check("B3: R constant on classes", okb)
    res.check("[e, rts] not poset-isomorphic to [s, srts]",
              not poset_isomorphic(sy, (0, rts), sy, (s, srts)))
    res.check("[e, rts] isomorphic to itself",
              poset_isomorphic(sy, (0, rts), sy, (0, rts)))
    return res


def suite_class_invariants() -> SuiteResult:
    res = SuiteResult("class-invariants")
    for label in ("D4", "B4"):
        sy = build_system(label)
        ok, _ = class_r_constancy(equiv_classes(sy), RTable(sy))
        res.check("%s: R constant on classes" % label, ok)
    return res


def suite_typea_s6() -> SuiteResult:
    res = SuiteResult("typea-s6")
    s6 = build_system("A5")
    s3 = s6.element("s3")
    recs = predict_ext1(s6, s3)
    res.expect_equal("one record for w = s3", len(recs), 1)
    if recs:
        rec = recs[0]
        res.expect_equal("additional part occurrence degree", rec.degree, 10)
        res.check("record is flagged additional", not rec.expected)
        pen = penultimate_element(s6, 3, 3)
        res.expect_equal("witness chain has length 1 + q", 1 + pen.q, 3)
        rt = RTable(s6)
        m = expected_ext1_shift(s6, pen.w_pen, s3)
        res.expect_equal("expected part dimension from the R-coefficient",
                         abs(rt.r_poly(pen.w_pen, s3).coeff(m)), 5)
    s4 = build_system("A3")
    additional = [
        rec for w in range(s4.order) for rec in predict_ext1(s4, w) if not rec.expected
    ]
    res.expect_equal("no additional-flag records in S4", additional, [])
    kl4 = KLTable(s4)
    part4 = equiv_classes(s4)
    uncovered = [
        (x, y)
        for x, y in s4.comparable_pairs()
        if r_determined(s4, x, y, kl=kl4, partition=part4) is None
    ]
    res.expect_equal("every S4 pair carries a determination certificate", uncovered, [])
    return res


def suite_properties() -> SuiteResult:
    """Exhaustive small-group invariants plus randomized recursion replays."""
    res = SuiteResult("properties")
    rng = random.Random(20240811)
    for label in ("A3", "B3", "D4"):
        sy = build_system(label)
        kl = KLTable(sy)
        kl.fill_all()
        bad = 0
        for y in range(sy.order):
            for x, p in kl.kl_basis_element(y).items():
                d = sy.lengths[y] - sy.lengths[x]
                lo, hi = p.degree_span()
                if hi != d or p.coeff(d) != 1:
                    bad += 1
                elif any(c <= 0 or (k - d) % 2 for k, c in p.items()):
                    bad += 1
                elif x != y and lo < 1:
                    bad += 1
        res.expect_equal("%s: KL positivity, degree and parity" % label, bad, 0)
        rt = RTable(sy)
        pairs = sy.comparable_pairs()
        bad = 0
        for x, y in pairs:
            d = sy.lengths[x] - sy.lengths[y]
            p = rt.r_poly(x, y)
            if p.coeff(d) != 1 or p.coeff(-d) != (-1) ** d:
                bad += 1
            elif any((k - d) % 2 for k, _ in p.items()):
                bad += 1
        res.expect_equal("%s: R endpoint and parity invariants" % label, bad, 0)
    # ascent-choice independence: 1000 seeded replays, split across the two
    # smaller groups
    for label, n_replays in (("A3", 500), ("B3", 500)):
        sy = build_system(label)
        rt = RTable(sy)
        pairs = sy.comparable_pairs()
        bad = 0
        for _ in range(n_replays):
            x, y = pairs[rng.randrange(len(pairs))]
            if rt.r_poly_random_ascents(x, y, rng) != rt.r_poly(x, y):
                bad += 1
        res.expect_equal("%s: %d randomized ascent replays" % (label, n_replays), bad, 0)
    # bound polynomial corner/degree/parity invariants on A3
    sy = build_system("A3")
    kl = KLTable(sy)
    bad = 0
    for y, x in sy.comparable_pairs():
        bound = kl_bound_poly(kl, x, y)
        d = sy.lengths[y] - sy.lengths[x]
        if bound.coeff(d, 0) != 1 or bound.coeff(0, d) != 1:
            bad += 1
        elif any(t % 2 != d % 2 for t in bound.total_degrees()):
            bad += 1
        elif any(a > d or b > d for (a, b), _ in bound.items()):
            bad += 1
    res.expect_equal("A3: bound polynomial unit corners, degree and parity", bad, 0)
    return res


SUITES = {
    "a1-tables": suite_a1_tables,
    "a2-tables": suite_a2_tables,
    "a3-kl": suite_a3_kl,
    "a3-figure": suite_a3_figure,
    "a3-all-expected": suite_a3_all_expected,
    "d4-boe": suite_d4_boe,
    "b3-example": suite_b3_example,
    "parabolic-a3": suite_parabolic_a3,
    "delorme": suite_delorme,
    "intervals-a3": suite_intervals_a3,
    "class-invariants": suite_class_invariants,
    "typea-s6": suite_typea_s6,
    "properties": suite_properties,
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise KeyError("unknown suite %r; available: %s" % (name, ", ".join(sorted(SUITES))))
    return SUITES[name]()
