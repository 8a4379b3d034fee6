"""Span recorder and counters for the traced run.

The package is not edited: ``Tracer.install`` wraps the public functions of
each layer in place, for the duration of a ``with`` block.  Several modules
import layer functions by name (``from .exactmat import closure``), so each
function is patched in every module that looks it up.  Spans stay in memory
until the run ends.  Every matrix product is attributed to the innermost
open span; CycNum and FpPoly operations are counted per tracer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, span name): every place a layer function is looked up
# by a caller that the workloads reach.
PATCHES = (
    ("yagita.harness", "verify_case", "harness.verify_case"),
    ("yagita.harness", "report_to_json", "harness.report_to_json"),
    ("yagita.harness", "witness_menu", "witness.witness_menu"),
    ("yagita.harness", "verify_embedding", "witness.verify_embedding"),
    ("yagita.harness", "order_p_cyclic_subgroups", "exactmat.order_p_cyclic_subgroups"),
    ("yagita.harness", "n_upper", "chern.n_upper"),
    ("yagita.witness", "verify_embedding", "witness.verify_embedding"),
    ("yagita.witness", "closure", "exactmat.closure"),
    ("yagita.witness", "relations_check", "exactmat.relations_check"),
    ("yagita.witness", "det", "exactmat.det"),
    ("yagita.witness", "build_g1", "witness.build"),
    ("yagita.witness", "build_g2", "witness.build"),
    ("yagita.witness", "build_e2m_integer", "witness.build"),
    ("yagita.witness", "build_extraspecial_monomial", "witness.build"),
    ("yagita.witness", "build_q8", "witness.build"),
    ("yagita.witness", "_extraspecial_over_Z", "witness.build"),
    ("yagita.witness", "sl_pad", "witness.build"),
    ("yagita.exactmat", "closure", "exactmat.closure"),
    ("yagita.exactmat", "element_order", "exactmat.element_order"),
    ("yagita.chern", "eigen_exponents", "chern.eigen_exponents"),
    ("yagita.chern", "total_chern", "chern.total_chern"),
    ("yagita.cli", "main", "cli.main"),
    ("yagita.cli", "eigen_exponents", "chern.eigen_exponents"),
    ("yagita.cli", "n_upper", "chern.n_upper"),
    ("yagita.cli", "total_chern", "chern.total_chern"),
    ("yagita.cli", "check_prop6", "fppoly.check_prop6"),
)

# Bucket of exactmat.matmul.count by the innermost open span; products under
# any other span (or none) count as "in_other".
MATMUL_BUCKET = {
    "witness.witness_menu": "in_menu",
    "witness.build": "in_menu",
    "exactmat.closure": "in_closure",
    "exactmat.relations_check": "in_relations",
    "exactmat.element_order": "in_element_order",
    "witness.verify_embedding": "in_verify_self",
    "exactmat.order_p_cyclic_subgroups": "in_order_p_scan",
    "chern.eigen_exponents": "in_chern",
    "chern.n_upper": "in_chern",
    "chern.total_chern": "in_chern",
}
MATMUL_BUCKETS = (
    "in_menu", "in_closure", "in_relations", "in_element_order",
    "in_verify_self", "in_order_p_scan", "in_chern", "in_other",
)
COUNTS = ("cyclo.mul", "cyclo.mul_conductor1", "cyclo.add", "cyclo.inverse",
          "cyclo.embed", "fppoly.mul")
# What summarize() keeps per span name.
STATS = ("calls", "time_ns", "items", "found", "distinct")


class Span:
    """One call across a layer boundary.  ``matmul`` counts the matrix
    products made while this span was the innermost one open; ``items`` is
    the elements the call enumerated or scanned (for verify_case, the witness
    lines it reported), ``found`` the subgroups a scan found, and ``key``
    names the witness a verification was for."""

    __slots__ = ("id", "parent", "name", "start", "end", "matmul", "items", "found", "key")

    def __init__(self, id_, parent, name, start):
        self.id, self.parent, self.name, self.start = id_, parent, name, start
        self.end = self.key = None
        self.matmul = self.items = self.found = 0

    def as_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end,
                self.matmul, self.items, self.found, self.key]


def _record(span: Span, args, out) -> None:
    name = span.name
    if name == "exactmat.closure":
        span.items = len(out)
    elif name == "witness.verify_embedding":
        w = args[0]
        span.items = len(out.elements)
        span.key = f"{w.kind}|{w.ring}|{w.padded}|{w.dimension}"
    elif name == "harness.verify_case":
        span.items = len(out.witnesses)
    elif name == "exactmat.order_p_cyclic_subgroups":
        span.items = len(args[0].elements())
        span.found = len(out)


class Tracer:
    """Records spans (times in perf_counter_ns) and operation counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts = dict.fromkeys(COUNTS, 0)

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                out = fn(*args, **kwargs)
                _record(s, args, out)
                return out
            finally:
                self.close(s)

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch the package for the duration of the block.  Every call into
        the package must happen inside an open span (the worker opens one
        per operation), so that each matrix product has a span to count in."""
        from yagita.cyclo import CycNum
        from yagita.exactmat import CycMatrix
        from yagita.fppoly import FpPoly

        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        wrapped = {}
        for mod_name, attr, name in PATCHES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            if (fn, name) not in wrapped:
                wrapped[fn, name] = self.wrap(fn, name)
            patch(mod, attr, wrapped[fn, name])
        from_json = CycMatrix.__dict__["from_json"].__func__
        patch(CycMatrix, "from_json", classmethod(self.wrap(from_json, "cli.matrix_json")))

        stack, counts = self.stack, self.counts
        mat_mul = CycMatrix.__mul__

        def matmul(a, b):
            if type(b) is CycMatrix:
                stack[-1].matmul += 1
            return mat_mul(a, b)

        num_mul, num_add = CycNum.__mul__, CycNum.__add__
        num_inverse, num_embed = CycNum.inverse, CycNum.embed

        def mul(a, b):
            counts["cyclo.mul"] += 1
            if a.conductor == 1 and getattr(b, "conductor", 1) == 1:
                counts["cyclo.mul_conductor1"] += 1
            return num_mul(a, b)

        def add(a, b):
            counts["cyclo.add"] += 1
            return num_add(a, b)

        def inverse(a):
            counts["cyclo.inverse"] += 1
            return num_inverse(a)

        def embed(a, conductor):
            counts["cyclo.embed"] += 1
            return num_embed(a, conductor)

        poly_mul = FpPoly.__mul__

        def fmul(a, b):
            counts["fppoly.mul"] += 1
            return poly_mul(a, b)

        for owner, attr, fn in (
            (CycMatrix, "__mul__", matmul),
            (CycNum, "__mul__", mul), (CycNum, "__rmul__", mul),
            (CycNum, "__add__", add), (CycNum, "__radd__", add),
            (CycNum, "inverse", inverse), (CycNum, "embed", embed),
            (FpPoly, "__mul__", fmul), (FpPoly, "__rmul__", fmul),
        ):
            patch(owner, attr, fn)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# analysis of recorded spans (plain lists, as written to the trace file)

ID, PARENT, NAME, START, END, MATMUL, ITEMS, FOUND, KEY = range(9)


def self_times(spans: list[list]) -> list[int]:
    """Per span, its duration minus the time its child spans cover.  Spans
    of one process are properly nested, so children never overlap."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive time of the outermost calls (a call
    nested in a call of the same name is not counted twice), items, found
    and distinct keys; plus matrix products per bucket."""
    by_name: dict[str, dict] = {}
    buckets = dict.fromkeys(MATMUL_BUCKETS, 0)
    keys: dict[str, set] = {}
    for s in spans:
        d = by_name.setdefault(s[NAME], dict.fromkeys(STATS, 0))
        d["calls"] += 1
        d["items"] += s[ITEMS]
        d["found"] += s[FOUND]
        if not _nested_in_same(spans, s):
            d["time_ns"] += s[END] - s[START]
        if s[KEY] is not None:
            keys.setdefault(s[NAME], set()).add(s[KEY])
        buckets[MATMUL_BUCKET.get(s[NAME], "in_other")] += s[MATMUL]
    for name, ks in keys.items():
        by_name[name]["distinct"] = len(ks)
    return {"spans": by_name, "matmul": buckets}


def _nested_in_same(spans, s) -> bool:
    parent = s[PARENT]
    while parent is not None:
        if spans[parent][NAME] == s[NAME]:
            return True
        parent = spans[parent][PARENT]
    return False
