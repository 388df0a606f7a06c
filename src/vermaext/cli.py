"""Command-line front end.

Subcommands: group, kl, rpoly, prpoly, srpoly, bound, grid, triangle, scan,
predict, classes, verify.  Elements are written "e", "w0" or generator words
like "s1*s2*s1" (types A/D/E use s1..sn, B3 uses s0,s1,s2; A3 also accepts
the letters r, s, t).  Output is deterministic: elements are printed by their
canonical words, tables are sorted by (length, index), and JSON carries no
timestamps.

Every command runs the same way: its handler builds the group and the KL or
R table it needs, computes and returns the output text, and run() alone
writes it, so a command that fails writes nothing.  rpoly --expected needs
--table.  --cache-dir is accepted for existing command lines and has no
effect.  Exit codes: 0 success, 1 verification failure, 2 usage errors (an
unusable --output path among them).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import partial

from . import refdata
from .coxeter import CoxeterSystem, build_system, canonical_label, DEFAULT_CAP
from .extbounds import (
    all_expected_predicate,
    expected_bipoly,
    hom_grid,
    kl_bound_poly,
    triangle_region,
)
from .hecke import KLTable
from .intervals import equiv_classes
from .poly import LaurentPoly
from .rpoly import ParabolicRTable, RTable
from .typea import predict_ext1
from .verify import SUITES, run_suite

TABLE_EMIT_CAP = 120


def _poly_out(args, poly) -> str:
    if args.format == "json":
        # to_json builds {"var": ..., "terms": ...} in the documented order
        return json.dumps(poly.to_json())
    return str(poly)


# -- table emission ------------------------------------------------------------


def emit_table(kind: str, system: CoxeterSystem, fmt: str, J: str = "") -> str:
    """Full table of one kind, both indices sorted by (length, index):
    'rpoly' (R-polynomials) or 'expected' (expected-dimension generating
    polynomials in u, v) over W x W, 'singular' or 'parabolic' over the
    minimal coset representatives for the generators J.  Text output of the
    W x W kinds mirrors the reference layout (rows are the first index x,
    columns the second index y); the coset kinds list 'x , y : p' per
    nonzero cell.  Tables with more than TABLE_EMIT_CAP rows are refused.
    """
    rt = RTable(system)
    if kind in ("singular", "parabolic"):
        table = ParabolicRTable(rt, system.parabolic(_parse_J(system, J)), kind)
        index, cell, meta = table.reps, table.poly, {"J": J}
        rows_of = "coset representatives"
    else:
        index = range(system.order)
        cell = rt.r_poly if kind == "rpoly" else partial(expected_bipoly, rt)
        meta, rows_of = {"type": system.type_label}, "elements"
    if len(index) > TABLE_EMIT_CAP:
        raise ValueError(
            "full-table emission capped at %d rows (got %d %s)"
            % (TABLE_EMIT_CAP, len(index), rows_of)
        )
    order = sorted(index, key=lambda w: (system.lengths[w], w))
    names = [system.word_name(w) for w in order]
    values = [[cell(x, y) for y in order] for x in order]
    nonzero = [
        (names[i], names[j], value)
        for i, row in enumerate(values)
        for j, value in enumerate(row)
        if value
    ]
    if fmt == "json":
        cells = [{"x": x, "y": y, "value": value.to_json()} for x, y, value in nonzero]
        return json.dumps({"kind": kind, **meta, "cells": cells}, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "y", "terms"])
        for x, y, value in nonzero:
            writer.writerow([x, y, json.dumps(value.to_json()["terms"])])
        return buf.getvalue().rstrip("\n")
    if kind in ("singular", "parabolic"):
        return "\n".join("%s , %s : %s" % entry for entry in nonzero)
    # text: markdown-ish grid
    header = ["x\\y"] + names
    lines = [" | ".join(header)]
    lines.append(" | ".join("---" for _ in header))
    for name, row in zip(names, values):
        lines.append(" | ".join([name] + [str(value) if value else "0" for value in row]))
    return "\n".join(lines)


def _records(args, payload, lines, empty: str = "") -> str:
    """A record or a list of rows: the payload as JSON under --format json,
    otherwise the text lines (csv prints the text form too)."""
    if args.format == "json":
        return json.dumps(payload, sort_keys=True)
    return "\n".join(lines) or empty


def _info_lines(info: dict):
    return ["%s: %s" % item for item in sorted(info.items())]


# -- subcommand handlers ---------------------------------------------------------


def cmd_group(args) -> str:
    sy = build_system(args.type, cap=args.cap)
    info = {
        "type": sy.type_label,
        "rank": sy.rank,
        "generators": sy.gen_names,
        "order": sy.order,
        "longest_length": sy.lengths[sy.w0],
        "longest_word": sy.word_name(sy.w0),
    }
    return _records(args, info, _info_lines(info))


def cmd_kl(args) -> str:
    sy = build_system(args.type, cap=args.cap)
    kl = KLTable(sy)
    if args.nontrivial_from is not None:
        x = sy.element(args.nontrivial_from)
        rows = [(sy.word_name(y), p) for y, p in kl.nontrivial_from(x)]
        return _records(args, [{"y": y, "p": p.to_json()} for y, p in rows],
                        ["%s: %s" % row for row in rows], empty="(none)")
    x, y = sy.element(getattr(args, "from")), sy.element(args.to)
    return _poly_out(args, kl.kl_poly(x, y))


def cmd_rpoly(args) -> str:
    if args.expected and not args.table:
        raise ValueError("--expected needs --table")
    if canonical_label(args.type) == "E7":
        return _rpoly_e7_reference(args)
    sy = build_system(args.type, cap=args.cap)
    if args.table:
        return emit_table("expected" if args.expected else "rpoly", sy, args.format)
    x, y = sy.element(getattr(args, "from")), sy.element(args.to)
    return _poly_out(args, RTable(sy).r_poly(x, y))


def _rpoly_e7_reference(args) -> str:
    """E7 is far above the enumeration cap; the (w0, e) coefficient list is
    served from the stored reference data, never recomputed.  Any other
    pair, and any --table, is refused."""
    if args.table or (getattr(args, "from"), args.to) != ("w0", "e"):
        raise ValueError(
            "E7 is not enumerated (order 2903040 exceeds the cap); there is no "
            "E7 table, only the stored reference pair (w0, e)."
        )
    coeffs = refdata.E7_R_W0_E
    poly = LaurentPoly({-63 + 2 * i: c for i, c in enumerate(coeffs)})
    out = _poly_out(args, poly)
    if args.format != "json":
        out += "\n(reference data; not recomputed)"
    return out


def _parse_J(sy: CoxeterSystem, raw: str):
    if not raw:
        return ()
    return tuple(sorted(sy.gen_index(tok) for tok in raw.split(",")))


def cmd_coset(args) -> str:
    """prpoly and srpoly: R-polynomials of kind args.kind ('parabolic' or
    'singular') over the minimal coset representatives for --J."""
    sy = build_system(args.type, cap=args.cap)
    if args.table:
        return emit_table(args.kind, sy, args.format, J=args.J)
    table = ParabolicRTable(RTable(sy), sy.parabolic(_parse_J(sy, args.J)), args.kind)
    x, y = sy.element(getattr(args, "from")), sy.element(args.to)
    return _poly_out(args, table.poly(x, y))


def cmd_bound(args) -> str:
    sy = build_system(args.type, cap=args.cap)
    return _poly_out(args, kl_bound_poly(KLTable(sy), sy.element(args.target), sy.element(args.source)))


def cmd_grid(args) -> str:
    sy = build_system(args.type, cap=args.cap)
    grid = hom_grid(KLTable(sy), sy.element(args.target), sy.element(args.source))
    cells = grid.nonzero()
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["a", "b", "dim"])
        writer.writerows(cells)
        return buf.getvalue().rstrip("\n")
    return _records(
        args,
        {"target": sy.word_name(grid.target), "source": sy.word_name(grid.source),
         "cells": [[a, b, v] for a, b, v in cells]},
        ["(%d, %d): %d" % c for c in cells],
    )


def cmd_triangle(args) -> str:
    sy = build_system(args.type, cap=args.cap)
    region = triangle_region(sy, sy.element(getattr(args, "from")), sy.element(args.to))
    rows = [
        {"a": p.a, "b": p.b,
         "kind": ("south" if p.south else "east" if p.east else
                  "expected" if p.expected else "interior")}
        for p in region.points
    ]
    return _records(args, {"d": region.d, "points": rows},
                    ["(%d, %d) %s" % (r["a"], r["b"], r["kind"]) for r in rows])


def cmd_scan(args) -> str:
    sy = build_system(args.type, cap=args.cap)
    partition = equiv_classes(sy)
    report = all_expected_predicate(sy, partition=partition)
    name = sy.word_name
    violations = [(name(x), name(y), bad) for x, y, bad in report.sign_violations]
    uncertified = [(name(x), name(y)) for x, y in report.uncertified]
    lines = ["%s: %d comparable pairs" % (sy.type_label, len(partition.pairs))]
    lines.append("all extensions expected: %s" % ("yes" if report.verdict else "no"))
    lines.extend("sign violation (%s, %s) at %s" % row for row in violations)
    lines.extend("no certificate for (%s, %s)" % row for row in uncertified)
    return _records(args, {
        "type": sy.type_label,
        "pairs": len(partition.pairs),
        "verdict": report.verdict,
        "sign_violations": [{"x": x, "y": y, "exponents": bad} for x, y, bad in violations],
        "uncertified": [{"x": x, "y": y} for x, y in uncertified],
    }, lines)


def cmd_predict(args) -> str:
    sy = build_system(args.type, cap=args.cap)
    w = sy.element(args.w)
    records = predict_ext1(sy, w)
    rows = [
        {"w": sy.word_name(r.w), "witness": sy.word_name(r.witness),
         "pair": [r.i, r.j], "pen": sy.word_name(r.w_pen),
         "degree": r.degree, "shift": r.shift,
         "flag": "expected" if r.expected else "additional"}
        for r in records
    ]
    return _records(args, rows, [
        "%s: witness %s (i,j)=(%d,%d) degree %d shift %d [%s]"
        % (r["pen"], r["witness"], r["pair"][0], r["pair"][1],
           r["degree"], r["shift"], r["flag"])
        for r in rows
    ], empty="(no records)")


def cmd_classes(args) -> str:
    sy = build_system(args.type, cap=args.cap)
    part = equiv_classes(sy)
    if args.pair:
        if args.pair.count(",") != 1:
            raise ValueError("--pair needs two elements 'x,y' (got %r)" % args.pair)
        xw, yw = args.pair.split(",")
        x, y = sy.element(xw.strip()), sy.element(yw.strip())
        if not sy.bruhat_leq(y, x):
            raise ValueError("pair (%s, %s) needs x >= y in Bruhat order"
                             % (sy.word_name(x), sy.word_name(y)))
        rows = [[sy.word_name(a), sy.word_name(b)] for a, b in part.class_of(x, y)]
        return _records(args, rows, ["(%s, %s)" % (a, b) for a, b in rows])
    info = {"type": sy.type_label, "pairs": len(part.pairs),
            "classes": len(part.classes), "sizes": part.class_sizes()}
    return _records(args, info, _info_lines(info))


def cmd_verify(args) -> tuple[str, bool]:
    """The report of the named suite, or of every suite, and whether all passed."""
    if not args.all and args.suite not in SUITES:
        raise ValueError("unknown suite %r; available: %s" % (args.suite, ", ".join(sorted(SUITES))))
    results = [run_suite(name) for name in (sorted(SUITES) if args.all else [args.suite])]
    report = "\n".join(line for result in results for line in result.report_lines())
    return report, all(result.passed for result in results)


def _add_common(p, *, needs_type=True):
    if needs_type:
        p.add_argument("--type", required=True, help="Cartan type, e.g. A3, B3, D4")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="element-count safety cap (default %d)" % DEFAULT_CAP)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output", help="write to a file instead of stdout")
    # accepted and ignored, because existing command lines still pass it
    # (perfbench's query-mix and freeze.py among them)
    p.add_argument("--cache-dir", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vermaext",
        description="Exact Kazhdan-Lusztig / R-polynomial combinatorics for "
                    "graded Verma extension bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="enumerate a Weyl group and print its basic data")
    _add_common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("kl", help="Kazhdan-Lusztig polynomials")
    _add_common(p)
    p.add_argument("--from", dest="from", default="e")
    p.add_argument("--to", default="e")
    p.add_argument("--nontrivial-from", default=None,
                   help="list all nontrivial KL polynomials from this element")
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("rpoly", help="ordinary R-polynomials")
    _add_common(p)
    p.add_argument("--from", dest="from", default="w0")
    p.add_argument("--to", default="e")
    p.add_argument("--table", action="store_true", help="emit the full table")
    p.add_argument("--expected", action="store_true",
                   help="with --table: expected-dimension table instead of R")
    p.set_defaults(func=cmd_rpoly)

    for name, kind in (("prpoly", "parabolic"), ("srpoly", "singular")):
        p = sub.add_parser(name, help="%s R-polynomials" % kind)
        _add_common(p)
        p.add_argument("--J", default="", help="comma-separated generators, e.g. s1,s2")
        p.add_argument("--from", dest="from", default="e")
        p.add_argument("--to", default="e")
        p.add_argument("--table", action="store_true")
        p.set_defaults(func=cmd_coset, kind=kind)

    p = sub.add_parser("bound", help="two-variable hom-dimension bound polynomial")
    _add_common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--source", required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("grid", help="hom dimensions into a linear tilting coresolution")
    _add_common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--source", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("triangle", help="potential bidegrees for a pair")
    _add_common(p)
    p.add_argument("--from", dest="from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("scan", help="sign-rule and certificate scan over all pairs")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("predict", help="type-A first-extension predictor")
    _add_common(p)
    p.add_argument("--w", required=True, help="element word, e.g. s3")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("classes", help="equivalence classes of comparable pairs")
    _add_common(p)
    p.add_argument("--pair", default=None, help="list the class of 'x,y'")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("verify", help="run a named verification suite")
    _add_common(p, needs_type=False)
    p.add_argument("--suite", default=None, help="suite name; see --all")
    p.add_argument("--all", action="store_true", help="run every suite")
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse argv, run the handler and write its text to stdout or --output.

    Nothing is written when the handler fails.  Exit code 0 success, 1 a
    failed verification, 2 an error, reported on stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.all and not args.suite:
        parser.error("verify needs --suite NAME or --all")
    try:
        out = args.func(args)
        text, passed = out if isinstance(out, tuple) else (out, True)
        text = text if text.endswith("\n") else text + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except BrokenPipeError:
        raise  # main() handles a reader that has gone away
    except (OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if passed else 1


def main():  # console entry point
    try:
        code = run()
        # flush here, so a reader that closed the pipe early is seen inside
        # the try block and not at interpreter shutdown
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull so the shutdown
        # flush cannot fail again, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
