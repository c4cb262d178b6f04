"""Benchmark-side tracing of treelin: spans and counters recorded from outside.

`Tracer.install()` replaces each traced public function by a wrapper in
every treelin namespace that binds it (``linearize.apply_inverse_D`` as
well as ``divisors.apply_inverse_D``), and each traced method on its class.
While the tracer is enabled a wrapper records a span (id, parent id, name,
start, end, op id) and adds to per-name aggregates; while it is disabled the
wrapper only forwards the call.  Self time is a span's duration minus the
durations of its direct child spans, accumulated exactly for every call.
Span records are kept in memory up to ``span_limit`` per process (later
ones are counted as dropped) and written out by `Tracer.dump()`.

This module imports only the standard library, so a child process can
load it before timing its own import of treelin.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter

# (layer, per-layer metrics, which end-to-end metric they should move and where)
LAYERS = (
    ("series", ("series.ScalarSeries.multiply.calls", "series.ScalarSeries.multiply.self_s",
                "series.ScalarSeries.multiply.pair_ops"),
     "solves_per_s and solve_s.p50 on dense_solve, then growth_sparse; no change on tree_cold"),
    ("series", ("series.VectorSeries.compose.calls", "series.VectorSeries.compose.self_s",
                "series.SeriesFamily.evaluate.calls", "series.SeriesFamily.evaluate.self_s",
                "series.shift_expand.self_s"),
     "solves_per_s and solve_s.p50 on dense_solve, then growth_sparse; no change on tree_cold"),
    ("divisors", ("divisors.apply_inverse_D.calls", "divisors.apply_inverse_D.self_s",
                  "divisors.apply_forward_D.calls", "divisors.apply_forward_D.self_s"),
     "solves_per_s and solve_s.p50 on dense_solve"),
    ("divisors", ("divisors.divisor.calls", "divisors.divisor.self_s"),
     "solve_s.p50 on tree_cold (germ and field spectra summed)"),
    ("divisors", ("divisors.bruno_proxy.self_s",),
     "solve_s.p50 on growth_sparse"),
    ("trees", ("trees.enumerate_labeled.calls", "trees.enumerate_labeled.self_s",
               "trees.enumerate_labeled.returned", "trees.LabeledTree.built",
               "trees.kept_ratio"),
     "solve_s.p50 on tree_cold; no change on dense_solve"),
    ("linearize", ("linearize.solve.calls", "linearize.solve.total_s", "linearize.solve.self_s"),
     "solves_per_s on tree_cold, where solve self time is mostly tree-plan evaluation"),
    ("linearize", ("linearize.fixed_point_inversion.calls",
                   "linearize.fixed_point_inversion.self_s",
                   "linearize.fixed_point_inversion.iterations"),
     "failed_ratio and solve_s.p50 on dense_solve"),
    ("linearize", ("linearize.verify_conjugacy.calls", "linearize.verify_conjugacy.total_s",
                   "linearize.verify_conjugacy.self_s"),
     "solve_s.p50 on dense_solve and tree_cold"),
    ("diagnostics", ("diagnostics.growth_report.self_s", "diagnostics.majorant_partial_sums.self_s",
                     "diagnostics.germ_family_radius.total_s",
                     "diagnostics.vf_domain_estimate.total_s"),
     "solves_per_s and solve_s.p50 on growth_sparse"),
    ("documents", ("documents.problem_from_doc.self_s", "documents.run_report.self_s",
                   "documents.canonical_bytes.self_s"),
     "solve_s.p50 on fresh-process workloads, by a small share"),
    ("cli", ("cli.import_s", "cli.main.self_s"),
     "fixed per-process cost in solve_s.p50 on every fresh-process workload"),
)

PER_LAYER_METRICS = tuple(m for _, metrics, _ in LAYERS for m in metrics)

# Computed from argument sizes rather than measured inside the kernel.
UPPER_BOUND_COUNTS = ("series.ScalarSeries.multiply.pair_ops",)

# (module, attribute path, span name)
_SPAN_TARGETS = (
    ("series", "ScalarSeries.multiply", "series.ScalarSeries.multiply"),
    ("series", "VectorSeries.compose", "series.VectorSeries.compose"),
    ("series", "SeriesFamily.evaluate", "series.SeriesFamily.evaluate"),
    ("series", "shift_expand", "series.shift_expand"),
    ("divisors", "apply_inverse_D", "divisors.apply_inverse_D"),
    ("divisors", "apply_forward_D", "divisors.apply_forward_D"),
    ("divisors", "GermSpectrum.divisor", "divisors.divisor"),
    ("divisors", "FieldSpectrum.divisor", "divisors.divisor"),
    ("divisors", "bruno_proxy", "divisors.bruno_proxy"),
    ("trees", "enumerate_labeled", "trees.enumerate_labeled"),
    ("linearize", "solve", "linearize.solve"),
    ("linearize", "fixed_point_inversion", "linearize.fixed_point_inversion"),
    ("linearize", "verify_conjugacy", "linearize.verify_conjugacy"),
    ("diagnostics", "growth_report", "diagnostics.growth_report"),
    ("diagnostics", "majorant_partial_sums", "diagnostics.majorant_partial_sums"),
    ("diagnostics", "germ_family_radius", "diagnostics.germ_family_radius"),
    ("diagnostics", "vf_domain_estimate", "diagnostics.vf_domain_estimate"),
    ("documents", "problem_from_doc", "documents.problem_from_doc"),
    ("documents", "run_report", "documents.run_report"),
    ("documents", "canonical_bytes", "documents.canonical_bytes"),
)


def _treelin_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "treelin" or name.startswith("treelin."))]


def rebind(module_name: str, attr: str, replacement):
    """Bind ``replacement`` wherever treelin binds treelin.<module>.<attr>.

    ``attr`` is a function name or ``Class.method``.  Module-level names are
    replaced in every treelin module whose namespace holds the original
    object, which is where callers look them up.
    """
    module = sys.modules[f"treelin.{module_name}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        setattr(getattr(module, cls_name), meth, replacement)
        return
    original = getattr(module, attr)
    for mod in _treelin_modules():
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, replacement)


def lookup(module_name: str, attr: str):
    obj = sys.modules[f"treelin.{module_name}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self, span_limit: int = 20000):
        self.enabled = False
        self.op_id = None
        self.span_limit = span_limit
        self.stats: dict = {}      # name -> [calls, total_s, self_s]
        self.counters: dict = {}
        self.spans: list = []      # (id, parent id, name, start, end, op id)
        self.dropped = 0
        self._stack: list = []     # frames [child_time, span id]
        self._next_id = 0

    # -- recording ---------------------------------------------------------
    def count(self, name: str, amount=1):
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, /, *args, **kw):
        """Call fn inside a span named ``name`` (or plainly when disabled)."""
        if not self.enabled:
            return fn(*args, **kw)
        self._next_id += 1
        frame = [0.0, self._next_id]
        parent = self._stack[-1][1] if self._stack else None
        self._stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kw)
        finally:
            end = _clock()
            self._stack.pop()
            dur = end - start
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            if self._stack:
                self._stack[-1][0] += dur
            if len(self.spans) < self.span_limit:
                self.spans.append((frame[1], parent, name, start, end, self.op_id))
            else:
                self.dropped += 1

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            return tracer.span(name, fn, *args, **kw)

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        """Patch the traced treelin functions; treelin must already be imported."""
        for module_name, attr, name in _SPAN_TARGETS:
            fn = lookup(module_name, attr)
            if name == "series.ScalarSeries.multiply":
                fn = self._with_pair_ops(fn)
            elif name == "trees.enumerate_labeled":
                fn = self._with_returned(fn)
            elif name == "linearize.fixed_point_inversion":
                fn = self._with_iterations(fn)
            rebind(module_name, attr, self.wrap(name, fn))
        tree_cls = lookup("trees", "LabeledTree")
        init = tree_cls.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kw):
            init(obj, *args, **kw)
            self.count("trees.LabeledTree.built")

        tree_cls.__init__ = counted_init

    def _with_pair_ops(self, fn):
        @functools.wraps(fn)
        def multiply(a, b):
            self.count("series.ScalarSeries.multiply.pair_ops", len(a) * len(b))
            return fn(a, b)
        return multiply

    def _with_returned(self, fn):
        @functools.wraps(fn)
        def enumerate_labeled(*args, **kw):
            out = fn(*args, **kw)
            self.count("trees.enumerate_labeled.returned", len(out))
            self.count("trees.kept", sum(1 for t in out if t.binom_product != 0))
            return out
        return enumerate_labeled

    def _with_iterations(self, fn):
        @functools.wraps(fn)
        def fixed_point_inversion(op, *args, **kw):
            calls = 0

            def counted(g):
                nonlocal calls
                calls += 1
                return op(g)

            try:
                return fn(counted, *args, **kw)
            finally:
                self.count("linearize.fixed_point_inversion.iterations", max(calls - 1, 0))
        return fixed_point_inversion

    # -- output ------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def dump(self, path: str):
        doc = self.summary()
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def merge(summaries) -> dict:
    """Sum per-process summaries into one."""
    stats: dict = {}
    counters: dict = {}
    for s in summaries:
        for name, (calls, total, self_s) in s["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, v in s["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return {"stats": stats, "counters": counters}


def per_layer_metrics(merged: dict) -> dict:
    """Every name in PER_LAYER_METRICS with its value (0 where never called)."""
    stats, counters = merged["stats"], merged["counters"]
    out = {}
    for name in PER_LAYER_METRICS:
        prefix, _, metric = name.rpartition(".")
        if metric in ("calls", "total_s", "self_s"):
            st = stats.get(prefix, [0, 0.0, 0.0])
            out[name] = st[("calls", "total_s", "self_s").index(metric)]
        elif name == "trees.kept_ratio":
            built = counters.get("trees.LabeledTree.built", 0)
            out[name] = counters.get("trees.kept", 0) / built if built else 0.0
        else:
            out[name] = counters.get(name, 0)
    return out
