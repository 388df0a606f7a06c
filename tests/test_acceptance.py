"""Acceptance criteria, one test per criterion, at their stated runtime budgets.

Every comparison is exact.  Each test prints a single PASS line with its
elapsed time (visible with `pytest -s` or on failure); the named verification
suites in vermaext.verify run the same checks behind the CLI.
"""

import time

import pytest

from vermaext import refdata
from vermaext.cli import run as cli_run
from vermaext.coxeter import CapExceededError, DEFAULT_CAP, build_system, expected_order
from vermaext.extbounds import all_expected_predicate, r_determined
from vermaext.hecke import KLTable
from vermaext.intervals import equiv_classes
from vermaext.rpoly import RTable
from vermaext.typea import predict_ext1
from vermaext.verify import (
    suite_a1_tables,
    suite_a2_tables,
    suite_a3_all_expected,
    suite_a3_figure,
    suite_a3_kl,
    suite_b3_example,
    suite_d4_boe,
    suite_delorme,
    suite_intervals_a3,
    suite_parabolic_a3,
    suite_properties,
    suite_typea_s6,
)


def run_within(number, label, budget_seconds, fn):
    start = time.time()
    result = fn()
    elapsed = time.time() - start
    if hasattr(result, "passed"):
        detail = "\n".join(result.report_lines())
        assert result.passed, detail
    assert elapsed < budget_seconds, (
        "criterion %s took %.1fs, budget %.0fs" % (number, elapsed, budget_seconds)
    )
    print("ACCEPTANCE %2d [%s]: PASS (%.2fs, budget %.0fs)"
          % (number, label, elapsed, budget_seconds))
    return result


def test_criterion_01_a2_tables():
    run_within(1, "a2-tables", 1.0, suite_a2_tables)


def test_criterion_02_a1_tables():
    run_within(2, "a1-tables", 1.0, suite_a1_tables)


def test_criterion_03_a3_kl_facts():
    run_within(3, "a3-kl", 1.0, suite_a3_kl)


def test_criterion_04_a3_figure_grid():
    run_within(4, "a3-figure", 5.0, suite_a3_figure)


def test_criterion_05_d4_boe_data():
    def body():
        result = suite_d4_boe()
        # the suite already recomputes the coefficient list, the sign set and
        # the full Delorme scan; double-check the headline numbers directly
        sy = build_system("D4")
        rt = RTable(sy)
        assert rt.r_coeff_list(sy.w0, 0) == refdata.D4_R_W0_E
        assert rt.sign_compatibility(sy.w0, 0) == [0]
        return result

    run_within(5, "d4-boe", 60.0, body)


def test_criterion_06_b3_example_values():
    run_within(6, "b3-example", 5.0, suite_b3_example)


def test_criterion_07_parabolic_singular_coherence():
    run_within(7, "parabolic-a3", 30.0, suite_parabolic_a3)


def test_criterion_08_oracle_equivalence():
    run_within(8, "delorme/oracle", 10.0, suite_delorme)


def test_criterion_09_interval_suite():
    run_within(9, "intervals-a3", 30.0, suite_intervals_a3)


def test_criterion_10_typea_predictor():
    def body():
        result = suite_typea_s6()
        # certificate coverage of every S4 pair, asserted directly as well
        s4 = build_system("A3")
        kl = KLTable(s4)
        part = equiv_classes(s4)
        for x, y in s4.comparable_pairs():
            assert r_determined(s4, x, y, kl=kl, partition=part) is not None
        # and no additional-flag record anywhere in S4
        for w in range(s4.order):
            assert all(rec.expected for rec in predict_ext1(s4, w))
        return result

    run_within(10, "typea-s6", 120.0, body)


def test_criterion_11_property_suites():
    run_within(11, "properties", 120.0, suite_properties)


def test_criterion_12_e7_guard():
    def body():
        # display data only: the verify machinery must finish with the cap
        # untouched and E7 enumeration must refuse under the default cap
        assert expected_order("E7") == 2_903_040 > DEFAULT_CAP
        with pytest.raises(CapExceededError):
            build_system("E7")
        assert cli_run(
            ["rpoly", "--type", "E7", "--from", "w0", "--to", "e",
             "--format", "json", "--output", "/dev/null"]
        ) == 0
        assert len(refdata.E7_R_W0_E) == 64
        assert sum(refdata.E7_R_W0_E) == 0

    run_within(12, "e7-guard", 10.0, body)


def test_all_expected_verdicts_by_type():
    # A2 and A3 fully expected, D4 not: the three headline verdicts together
    a2 = build_system("A2")
    assert all_expected_predicate(a2).verdict
    a3 = build_system("A3")
    assert all_expected_predicate(a3).verdict
    result = suite_a3_all_expected()
    assert result.passed, "\n".join(result.report_lines())
    d4 = build_system("D4")
    report = all_expected_predicate(d4)
    assert not report.verdict
    assert any(x == d4.w0 and y == 0 for x, y, _ in report.sign_violations)
