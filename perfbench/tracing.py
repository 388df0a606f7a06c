"""Span tracing installed at run time around vermaext's public functions.

Nothing in the package changes: the tracer replaces public functions and
methods by wrappers that record a span (name, start, end, parent) or bump a
counter, and rebinds every module attribute that held the original, so that
names imported with ``from .x import f`` are traced as well.  Spans stay in
memory until the run ends.  Only the traced run installs the tracer; the
end-to-end numbers come from untraced processes.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import statistics
import sys
import time

# The library layers, one per module, and "cli", the entry layer.  Spans the
# benchmark records around its own loops (rpoly.r_fill, rpoly.delorme,
# rpoly.query) are named after the layer they time.
LIBRARY_LAYERS = ("coxeter", "intervals", "hecke", "rpoly", "extbounds", "typea", "verify")
LAYERS = LIBRARY_LAYERS + ("cli",)

# (module, function) -> span name, for plain public functions.
TRACED_FUNCTIONS = {
    ("coxeter", "build_system"): "coxeter.build_system",
    ("intervals", "equiv_classes"): "intervals.equiv_classes",
    ("intervals", "class_r_constancy"): "intervals.class_r_constancy",
    ("intervals", "poset_isomorphic"): "intervals.poset_isomorphic",
    ("extbounds", "r_determined"): "extbounds.r_determined",
    ("extbounds", "trivial_kl_certificate"): "extbounds.trivial_kl_certificate",
    ("extbounds", "all_expected_predicate"): "extbounds.all_expected_predicate",
    ("extbounds", "hom_grid"): "extbounds.hom_grid",
    ("extbounds", "kl_bound_poly"): "extbounds.kl_bound_poly",
    ("extbounds", "refined_bound"): "extbounds.refined_bound",
    ("extbounds", "expected_dims"): "extbounds.expected_dims",
    ("extbounds", "triangle_region"): "extbounds.triangle_region",
    ("typea", "predict_ext1"): "typea.predict_ext1",
    ("rpoly", "r_oracle_table"): "rpoly.r_oracle_table",
}

# (module, class, method) -> span name.
TRACED_METHODS = {
    ("coxeter", "CoxeterSystem", "comparable_pairs"): "coxeter.comparable_pairs",
    ("intervals", "EquivPartition", "boolean_member"): "intervals.boolean_member",
    ("hecke", "KLTable", "fill_all"): "hecke.fill_all",
    ("rpoly", "RTable", "sign_compatibility"): "rpoly.sign_compatibility",
}


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.trivial_kl_ys: set[tuple[str, int]] = set()
        self.largest: dict[str, object] = {}
        self._bruhat_calls = itertools.count()

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def wrap(self, fn, name, after=None):
        """A wrapper recording one span per call; ``name`` may be a function
        of the call's arguments, ``after(result, args)`` sees each result."""
        begin, end = self.begin, self.end
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            rec = begin(name if fixed else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                end(rec)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self, vx):
        """Install every wrapper on the imported package ``vx``."""
        after = {
            "coxeter.build_system": self._after_build,
            "coxeter.comparable_pairs": self._after_pairs,
            "intervals.equiv_classes": self._after_partition,
            "intervals.boolean_member": self._after_boolean_member,
            "extbounds.r_determined": self._after_r_determined,
            "extbounds.trivial_kl_certificate": self._after_trivial_kl,
        }
        for (modname, fname), span_name in TRACED_FUNCTIONS.items():
            original = getattr(getattr(vx, modname), fname)
            _rebind(original, self.wrap(original, span_name, after.get(span_name)))
        for (modname, cname, mname), span_name in TRACED_METHODS.items():
            cls = getattr(getattr(vx, modname), cname)
            setattr(cls, mname, self.wrap(cls.__dict__[mname], span_name, after.get(span_name)))

        # Bruhat comparisons are far too frequent for spans: count them only.
        cox = vx.coxeter.CoxeterSystem
        bruhat_leq, tick = cox.bruhat_leq, self._bruhat_calls.__next__

        def counted_bruhat_leq(self_, x, y):
            tick()
            return bruhat_leq(self_, x, y)

        cox.bruhat_leq = counted_bruhat_leq

        # Remember the KL and R tables of the largest group a run touches.
        for cls, key in ((vx.hecke.KLTable, "kl"), (vx.rpoly.RTable, "rt")):
            cls.__init__ = self._capture_init(cls.__init__, key)

        run_suite = vx.verify.run_suite
        _rebind(run_suite, self.wrap(run_suite, lambda args, kwargs: "verify." + args[0]))
        cli = vx.cli
        _rebind(cli.run, self.wrap(cli.run, lambda args, kwargs: "cli." + args[0][0]))
        cli.json = _CountingJson(self.counts)

    # -- result hooks ----------------------------------------------------------

    def _keep_largest(self, key, system, value):
        held = self.largest.get(key)
        if held is None or held[0].order <= system.order:
            self.largest[key] = (system, value)

    def _after_build(self, system, args):
        self.counts["coxeter.order"] = max(self.counts["coxeter.order"], system.order)

    def _after_pairs(self, pairs, args):
        self.counts["coxeter.pairs"] = max(self.counts["coxeter.pairs"], len(pairs))

    def _after_partition(self, part, args):
        self._keep_largest("partition", part.system, part)

    def _after_boolean_member(self, hit, args):
        self.counts["intervals.boolean_member_calls"] += 1

    def _after_r_determined(self, cert, args):
        self.counts["extbounds.cert." + (cert.kind if cert is not None else "none")] += 1

    def _after_trivial_kl(self, result, args):
        self.counts["extbounds.trivial_kl_calls"] += 1
        self.trivial_kl_ys.add((args[0].system.type_label, args[1]))

    def _capture_init(self, init, key):
        keep = self._keep_largest

        def __init__(self_, system, *args, **kwargs):
            init(self_, system, *args, **kwargs)
            keep(key, system, self_)
        return __init__

    def take_bruhat_leq_calls(self) -> int:
        """Calls counted so far; read it once, when the timed unit ends."""
        return next(self._bruhat_calls)

    # -- analysis --------------------------------------------------------------

    def self_times(self, window: tuple[float, float]):
        """Inclusive and self time per span name, and self time per layer,
        over the spans that start inside ``window``."""
        lo, hi = window
        child = collections.defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive = collections.defaultdict(float)
        self_time = collections.defaultdict(float)
        durations = collections.defaultdict(list)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if not lo <= start <= hi:
                continue
            inclusive[name] += end - start
            durations[name].append(end - start)
            self_time[name] += (end - start) - child.get(i, 0.0)
        layer_self = collections.defaultdict(float)
        for name, t in self_time.items():
            layer_self[name.split(".", 1)[0]] += t
        return inclusive, durations, layer_self


def _rebind(original, replacement):
    """Point every vermaext module attribute holding ``original`` at
    ``replacement``, so names bound by ``from .x import f`` are traced too."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "vermaext" or modname.startswith("vermaext.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class _CountingJson:
    """Stands in for the ``json`` module inside ``vermaext.cli``: the cache
    snapshot is read with ``json.load`` and written with ``json.dump``, so the
    file positions after those calls are the bytes moved."""

    def __init__(self, counts):
        self._counts = counts

    def load(self, fh, *args, **kwargs):
        data = json.load(fh, *args, **kwargs)
        self._counts["cli.cache_bytes_read"] += fh.tell()
        return data

    def dump(self, obj, fh, *args, **kwargs):
        start = fh.tell()
        json.dump(obj, fh, *args, **kwargs)
        self._counts["cli.cache_bytes_written"] += fh.tell() - start

    def __getattr__(self, attr):
        return getattr(json, attr)


CERT_KINDS = ("Rank2", "SmallLengthGap", "TrivialKL", "Boolean", "none")
SUITES = ("a1-tables", "a2-tables", "a3-kl", "a3-figure", "a3-all-expected", "d4-boe",
          "b3-example", "parabolic-a3", "delorme", "intervals-a3", "typea-s6", "properties")
SUBCOMMANDS = ("kl", "rpoly", "prpoly", "srpoly", "bound", "grid", "triangle", "classes",
               "scan", "predict", "verify")


def layer_metrics(tracer: Tracer, window: tuple[float, float], bruhat_leq_calls: int,
                  extra: dict) -> dict:
    """Every per-layer metric of a traced run.  Phase times and counts cover
    set-up and the unit; self times and span coverage cover the unit only;
    nothing recorded after the unit ends counts.  ``bruhat_leq_calls`` is the
    count taken when the unit ended, ``extra`` the workload's own counts;
    layers it did not touch read 0."""
    inclusive, durations, _ = tracer.self_times((float("-inf"), window[1]))
    _, _, layer_self = tracer.self_times(window)
    unit_s = window[1] - window[0]
    c = tracer.counts

    def ms(name, q):
        return percentile(durations.get(name, []), q) * 1000

    held = tracer.largest.get("partition")
    classes = len(held[1].classes) if held else 0
    boolean_calls = c["intervals.boolean_member_calls"]
    trivial_calls = c["extbounds.trivial_kl_calls"]
    m = {
        "coxeter.build_s": inclusive["coxeter.build_system"],
        "coxeter.order": c["coxeter.order"],
        "coxeter.comparable_pairs_s": inclusive["coxeter.comparable_pairs"],
        "coxeter.pairs": c["coxeter.pairs"],
        "coxeter.bruhat_leq_calls": bruhat_leq_calls,
        "intervals.partition_s": inclusive["intervals.equiv_classes"],
        "intervals.classes": classes,
        "intervals.max_class_size": max((len(k) for k in held[1].classes), default=0) if held else 0,
        "intervals.boolean_member_s": inclusive["intervals.boolean_member"],
        "intervals.boolean_member_calls": boolean_calls,
        "intervals.boolean_member_calls_per_class": boolean_calls / classes if classes else 0.0,
        "hecke.kl_fill_s": inclusive["hecke.fill_all"],
        "hecke.kl_entries": 0,
        "hecke.kl_distinct": 0,
        "hecke.kl_trivial_frac": 0.0,
        "hecke.kl_distinct_frac": 0.0,
        "rpoly.r_fill_s": inclusive["rpoly.r_fill"],
        "rpoly.r_nonzero": 0,
        "rpoly.sign_s": inclusive["rpoly.sign_compatibility"],
        "rpoly.delorme_s": inclusive["rpoly.delorme"],
        "rpoly.query_p50_ms": ms("rpoly.query", 50),
        "rpoly.query_p90_ms": ms("rpoly.query", 90),
        "extbounds.r_determined_s": inclusive["extbounds.r_determined"],
        "extbounds.trivial_kl_s": inclusive["extbounds.trivial_kl_certificate"],
        "extbounds.trivial_kl_calls": trivial_calls,
        "extbounds.trivial_kl_distinct_y": len(tracer.trivial_kl_ys),
        "extbounds.trivial_kl_calls_per_y":
            trivial_calls / len(tracer.trivial_kl_ys) if tracer.trivial_kl_ys else 0.0,
    }
    for kind in CERT_KINDS:
        m["extbounds.cert." + kind] = c["extbounds.cert." + kind]
    m["typea.predict_s"] = inclusive["typea.predict_ext1"]
    for suite in SUITES:
        m["verify.%s_s" % suite] = inclusive["verify." + suite]
    for sub in SUBCOMMANDS:
        m["cli.%s_p50_ms" % sub] = ms("cli." + sub, 50)
    m["cli.cache_bytes_read"] = c["cli.cache_bytes_read"]
    m["cli.cache_bytes_written"] = c["cli.cache_bytes_written"]
    m["cli.cache_bytes_per_call"] = 0.0
    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self[layer]
    m["trace.wall_s"] = unit_s
    m["trace.span_coverage"] = sum(layer_self[k] for k in LIBRARY_LAYERS) / unit_s
    m["trace.spans"] = len(tracer.spans)
    m.update(extra)
    return m


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
