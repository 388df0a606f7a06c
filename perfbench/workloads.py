"""The four benchmark workloads; each unit runs in its own child process.

A workload builds its groups in ``setup`` (timed as set-up), then runs one
unit of work: ``unit`` is the timed part and returns what it produced,
``check`` verifies that output without timing it.  Every unit of a run
repeats the same inputs in a fresh process, so units are interchangeable
samples.

The package is driven only through its public names, looked up on the
module at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
import time

from tracing import SUITES

HERE = os.path.dirname(os.path.abspath(__file__))

# Cache directories of the query mix live here, inside the checkout; each is
# removed when its round ends.
WORK_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_work")


def seeds() -> dict:
    """The check seed and the held-out seed, as perfbench/metrics.json names them."""
    with open(os.path.join(HERE, "metrics.json")) as fh:
        return json.load(fh)["seeds"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class UnitResult:
    """What one timed unit did: operations attempted, the per-operation
    latencies where an operation is timed on its own, and raw outputs."""

    def __init__(self, ops: int, latencies=None, outputs=None):
        self.ops = ops
        self.latencies = latencies
        self.outputs = outputs


class Workload:
    name = ""

    def __init__(self, vx, size: str, seed: int, frozen: dict, tracer=None):
        self.vx = vx
        self.size = size
        self.seed = seed
        self.frozen = frozen
        self.tracer = tracer
        self.params = self.SIZES[size]

    def setup(self):
        """Build what the workload needs; timed as set-up."""

    def prepare(self):
        """Untimed: make the inputs once, after set-up."""

    def unit(self) -> UnitResult:
        raise NotImplementedError

    def check(self, result: UnitResult) -> tuple[int, list[str]]:
        """(failed operations, messages) for one unit's output."""
        raise NotImplementedError

    def layer_counts(self) -> dict:
        """Untimed per-layer counts taken after a traced unit."""
        return {}

    def notes(self) -> list[str]:
        """What the run should say about the strength of its check."""
        return []

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def kl_table_stats(system, kl) -> dict:
    """Size and shape of a filled KL table, plus the count of entries that
    break the degree, parity and positivity invariants."""
    lengths = system.lengths
    entries = trivial = bad = 0
    distinct = set()
    for y in range(system.order):
        for x, p in kl.kl_basis_element(y).items():
            entries += 1
            distinct.add(p)
            d = lengths[y] - lengths[x]
            lo, hi = p.degree_span()
            if hi != d or p.coeff(d) != 1:
                bad += 1
            elif any(c <= 0 or (k - d) % 2 for k, c in p.items()):
                bad += 1
            elif x != y and lo < 1:
                bad += 1
            if p.is_monomial():
                trivial += 1
    return {
        "entries": entries,
        "distinct": len(distinct),
        "trivial": trivial,
        "bad": bad,
    }


def table_layer_counts(system, kl, rt, pairs) -> dict:
    stats = kl_table_stats(system, kl)
    return {
        "hecke.kl_entries": stats["entries"],
        "hecke.kl_distinct": stats["distinct"],
        "hecke.kl_trivial_frac": stats["trivial"] / max(stats["entries"], 1),
        "hecke.kl_distinct_frac": stats["distinct"] / max(stats["entries"], 1),
        "rpoly.r_nonzero": sum(1 for x, y in pairs if rt.r_poly(x, y)),
    }


# -- scan-b4 ---------------------------------------------------------------------


class Scan(Workload):
    """One ``vermaext scan --format json`` call over every comparable pair."""

    name = "scan-b4"
    SIZES = {"full": {"type": "B4"}, "smoke": {"type": "B3"}}
    # (comparable pairs, sign violations, uncertified pairs), measured at the
    # commit the digests were frozen from.
    COUNTS = {"B4": (40249, 180, 27147), "B3": (847, 0, 272)}

    def setup(self):
        self.vx.build_system(self.params["type"])

    def unit(self):
        argv = ["scan", "--type", self.params["type"], "--format", "json"]
        rc, out = run_cli(self.vx, argv)
        pairs = self.COUNTS[self.params["type"]][0]
        return UnitResult(pairs, outputs=(rc, out))

    def check(self, result):
        rc, out = result.outputs
        want = self.COUNTS[self.params["type"]]
        problems = []
        if rc != 0:
            problems.append("scan exited with %d" % rc)
        else:
            data = json.loads(out)
            got = (data["pairs"], len(data["sign_violations"]), len(data["uncertified"]))
            if got != want:
                problems.append("scan counts %r, expected %r" % (got, want))
        if sha256(out) != self.frozen[self.size]["stdout_sha256"]:
            problems.append("scan stdout digest differs from the frozen one")
        return (result.ops if problems else 0), problems

    def layer_counts(self):
        held = self.tracer.largest
        if not {"kl", "rt", "partition"} <= held.keys():
            return {}  # the scan no longer builds one of these tables
        system, kl = held["kl"]
        return table_layer_counts(system, kl, held["rt"][1], held["partition"][1].pairs)


# -- tables-f4 ---------------------------------------------------------------------


class Tables(Workload):
    """Bulk fill of every table on one group: pairs, classes, KL, R, Delorme."""

    name = "tables-f4"
    SIZES = {"full": {"type": "F4"}, "smoke": {"type": "A4"}}
    # (comparable pairs, equivalence classes), measured at the frozen commit.
    COUNTS = {"F4": (396809, 13225), "A4": (3781, 63)}

    def setup(self):
        self.system = self.vx.build_system(self.params["type"])

    def unit(self):
        vx, sy = self.vx, self.system
        pairs = sy.comparable_pairs()
        part = vx.equiv_classes(sy)
        kl = vx.KLTable(sy)
        kl.fill_all()
        rt = vx.RTable(sy)
        with self._span("rpoly.r_fill"):
            for x, y in pairs:
                rt.r_poly(x, y)
        with self._span("rpoly.delorme"):
            delorme_bad = [p for p in pairs if not rt.delorme_check(*p)]
        self.tables = (sy, kl, rt, pairs)
        return UnitResult(len(pairs), outputs=(pairs, part, kl, rt, delorme_bad))

    def check(self, result):
        pairs, part, kl, rt, delorme_bad = result.outputs
        sy = self.system
        problems = []
        got = (len(pairs), len(part.classes))
        if got != self.COUNTS[self.params["type"]]:
            problems.append("pair and class counts %r, expected %r"
                            % (got, self.COUNTS[self.params["type"]]))
        if delorme_bad:
            problems.append("%d pairs fail Delorme at v=1" % len(delorme_bad))
        stats = kl_table_stats(sy, kl)
        if stats["bad"]:
            problems.append("%d KL entries break degree/parity/positivity" % stats["bad"])
        if tables_digest(sy, kl, rt, pairs, part) != self.frozen[self.size]["tables_sha256"]:
            problems.append("table digest differs from the frozen one")
        # The digest covers every pair at once, so any problem fails the unit.
        return (result.ops if problems else 0), problems

    def layer_counts(self):
        return table_layer_counts(*self.tables)


def tables_digest(system, kl, rt, pairs, partition) -> str:
    """SHA-256 over every KL entry, every R-polynomial of a comparable pair
    and the class sizes, in a canonical order."""
    h = hashlib.sha256()
    for y in range(system.order):
        row = kl.kl_basis_element(y)
        h.update(repr([(x, row[x].items()) for x in sorted(row)]).encode())
    for x, y in pairs:
        h.update(repr((x, y, rt.r_poly(x, y).items())).encode())
    h.update(repr(partition.class_sizes()).encode())
    return h.hexdigest()


# -- point-e6 ---------------------------------------------------------------------


class Point(Workload):
    """A library session of single-pair R queries on one large group.

    The system and its lazy state are shared across the queries; every query
    gets a fresh RTable.  The first query is r(w0, e); the others are pairs
    x >= y found by a random ascent walk up from a random y.
    """

    name = "point-e6"
    SIZES = {
        "full": {"type": "E6", "queries": 400, "walk": (20, 36)},
        "smoke": {"type": "D4", "queries": 20, "walk": (4, 10)},
    }

    def setup(self):
        self.system = self.vx.build_system(self.params["type"])

    def prepare(self):
        self.queries = point_queries(self.system, self.seed, self.params)

    def unit(self):
        vx, sy = self.vx, self.system
        clock = time.perf_counter
        latencies, values = [], []
        for x, y in self.queries:
            with self._span("rpoly.query"):
                t = clock()
                p = vx.RTable(sy).r_poly(x, y)
                latencies.append(clock() - t)
            values.append(p)
        return UnitResult(len(self.queries), latencies, values)

    def notes(self):
        if str(self.seed) in self.frozen[self.size]:
            return []
        return ["point-e6 has frozen digests only for the check and held-out seeds; "
                "seed %d is checked by the delta and endpoint test alone" % self.seed]

    def check(self, result):
        sy = self.system
        failed = 0
        problems = []
        frozen = self.frozen[self.size].get(str(self.seed), [])
        for i, ((x, y), p) in enumerate(zip(self.queries, result.outputs)):
            d = sy.lengths[x] - sy.lengths[y]
            ok = (p.eval_at_one() == (1 if x == y else 0)
                  and p.coeff(d) == 1 and p.coeff(-d) == (-1) ** d)
            if i < len(frozen) and sha256(repr(p.items())) != frozen[i]:
                ok = False
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append("query %d r(%s, %s) failed its check"
                                    % (i, sy.word_name(x), sy.word_name(y)))
        return failed, problems


def point_queries(system, seed: int, params) -> list[tuple[int, int]]:
    """(w0, e), then pairs from seeded ascent walks up from a random y.

    Query cost grows steeply with the length gap, so the lengths are fixed
    and only the elements depend on the seed: the i-th y has the length of
    the i-th equal slice of the length-sorted group, walk lengths cycle
    through the range, y is drawn uniformly among the elements of its length
    and every step takes a random ascent.  The seed also shuffles the order.
    """
    rng = random.Random(seed)
    lengths, right, rank = system.lengths, system.right, system.rank
    by_length = {}
    for w in range(system.order):
        by_length.setdefault(lengths[w], []).append(w)
    ranked = sorted(range(system.order), key=lengths.__getitem__)
    lo, hi = params["walk"]
    n = params["queries"] - 1
    queries = []
    for i in range(n):
        y = x = rng.choice(by_length[lengths[ranked[(2 * i + 1) * system.order // (2 * n)]]])
        for _ in range(lo + i % (hi - lo + 1)):
            ascents = [s for s in range(rank) if lengths[right[s][x]] > lengths[x]]
            if not ascents:
                break
            x = right[rng.choice(ascents)][x]
        queries.append((x, y))
    rng.shuffle(queries)
    return [(system.w0, system.e)] + queries


# -- query-mix ---------------------------------------------------------------------

# Strata of the call catalogue.  A full round makes ROUND[stratum] calls from
# each stratum, with arguments drawn by the seed; the smoke round makes one.
MIX_GROUPS = ("A2", "G2", "A3", "B3", "D4")
MIX_TABLE_GROUPS = ("A2", "G2", "A3", "B3")  # full-table emission is capped at order 120
PAIR_TEMPLATES = ("kl", "kl-nontrivial", "rpoly", "grid", "bound", "triangle", "classes")
TABLE_TEMPLATES = ("rpoly-table", "rpoly-expected", "srpoly-table", "prpoly-table")

ROUND = {}
ROUND.update({"%s:%s" % (t, g): 8 if g == "D4" else 4 for t in PAIR_TEMPLATES for g in MIX_GROUPS})
ROUND.update({"%s:%s" % (t, g): 3 for t in TABLE_TEMPLATES for g in MIX_TABLE_GROUPS})
ROUND.update({"verify:" + s: 1 for s in SUITES})
ROUND["predict:A5"] = 8

SMOKE_ROUND = {s: 1 for s in (
    "kl:A2", "kl-nontrivial:A3", "rpoly:G2", "grid:A3", "bound:B3", "triangle:A2",
    "classes:G2", "rpoly-table:A2", "rpoly-expected:A3", "srpoly-table:G2",
    "prpoly-table:A2", "verify:a1-tables", "verify:a2-tables", "verify:a3-kl",
    "verify:a3-figure", "verify:delorme", "verify:intervals-a3", "predict:A5",
    "kl:D4", "rpoly:D4",
)}


def run_cli(vx, argv) -> tuple[int, str]:
    """One in-process CLI call; (exit code, stdout).  Stderr is discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = vx.cli.run(list(argv))
        except SystemExit as exc:  # argparse rejects a malformed command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


class QueryMix(Workload):
    """A seeded stream of interactive CLI calls sharing one cache directory
    that is empty when the round starts."""

    name = "query-mix"
    SIZES = {"full": {"round": ROUND}, "smoke": {"round": SMOKE_ROUND}}

    def prepare(self):
        by_stratum = {}
        for entry in self.frozen["catalogue"]:
            by_stratum.setdefault(entry["stratum"], []).append(entry)
        rng = random.Random(self.seed)
        calls = []
        for stratum, count in sorted(self.params["round"].items()):
            calls.extend(rng.choice(by_stratum[stratum]) for _ in range(count))
        rng.shuffle(calls)
        self.calls = calls

    def unit(self):
        vx = self.vx
        clock = time.perf_counter
        os.makedirs(WORK_DIR, exist_ok=True)
        cache = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
        latencies, outputs = [], []
        try:
            for entry in self.calls:
                argv = entry["argv"] + ["--cache-dir", cache]
                t = clock()
                try:
                    rc, out = run_cli(vx, argv)
                except Exception as exc:  # a raised error is a failed call, not a crash
                    rc, out = -1, "%s: %s" % (type(exc).__name__, exc)
                latencies.append(clock() - t)
                outputs.append((rc, out))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return UnitResult(len(self.calls), latencies, outputs)

    def check(self, result):
        failed = 0
        problems = []
        for entry, (rc, out) in zip(self.calls, result.outputs):
            ok = rc == 0 and sha256(out) == entry["sha256"]
            if entry["argv"][0] == "verify":
                ok = ok and out.startswith("suite %s: PASS" % entry["argv"][2])
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append("call %s exited %d or printed unexpected output"
                                    % (" ".join(entry["argv"]), rc))
        return failed, problems

    def layer_counts(self):
        counts = self.tracer.counts
        moved = counts["cli.cache_bytes_read"] + counts["cli.cache_bytes_written"]
        return {"cli.cache_bytes_per_call": moved / max(len(self.calls), 1)}


WORKLOADS = {cls.name: cls for cls in (Scan, Tables, Point, QueryMix)}
