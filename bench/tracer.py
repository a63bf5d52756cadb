"""Per-layer tracing of reidbasket from outside the package.

``Tracer.install`` rebinds each public function listed in ``SPANNED`` in
every ``reidbasket`` module that holds it (callers inside the package look
the name up in their own module), and ``ClassificationConstraints.admits``
on its class.  Each call becomes a span ``(id, parent id, name, start,
end, failed)`` kept in memory; ``write_spans`` writes them out when the
traced work is over.  ``core.delta_n`` is only counted: it runs once per
plurigenus term, and a span per call would mostly time the tracer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions that get a span (calls, self_s, errors)
SPANNED = {
    "core": (
        "sigma", "sigma_prime", "gamma", "anti_volume", "r_index", "r_max",
        "plurigenus_sequence", "geometric_filter",
    ),
    "packing": ("single_packings", "closure"),
    "canonical": ("unpack", "b0_from_plurigenera", "canonical_sequence"),
    "criteria": ("first_not_pencil", "table_pipeline"),
    "classify": ("enumerate_b0", "classify", "enumerate_index_profiles"),
    "fixtures": ("verify_table",),
    "cli": ("main",),
}
ADMITS = "classify.admits"
COUNTED = "core.delta_n"
TABLE_IDS = (1, 6, 7, 9, 10, 11, 12, 13, 15, 16, 17, 18, 20, 24, 26, 28, 30)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in SPANNED.items() for fn in fns) + (ADMITS,)

# ratio metric -> (numerator total, denominator total); 0 when nothing was tried
RATIOS = {
    "core.geometric_filter.pass_ratio": ("core.geometric_filter.passed", "core.geometric_filter.calls"),
    "criteria.first_not_pencil.terms_used_ratio": (
        "criteria.first_not_pencil.terms_used", "criteria.first_not_pencil.terms_budget"),
    "classify.admits.accept_ratio": ("classify.admits.accepted", "classify.admits.calls"),
    "canonical.b0_from_plurigenera.feasible_ratio": (
        "canonical.b0_from_plurigenera.feasible", "canonical.b0_from_plurigenera.calls"),
}
# totals reported as they are, besides calls/self_s/errors
TOTALS = (
    "core.plurigenus_sequence.terms",
    "core.delta_n.calls",
    "packing.single_packings.children",
    "packing.closure.visited",
    "classify.enumerate_b0.roots",
    "trace.spans",
) + tuple(f"fixtures.table{t}.s" for t in TABLE_IDS)
MAXIMA = ("fixtures.verify_table.max_s",)


def _observe_sequence(raw, args, kwargs, result, seconds):
    raw["core.plurigenus_sequence.terms"] += args[1] if len(args) > 1 else kwargs["upto"]


def _observe_filter(raw, args, kwargs, result, seconds):
    raw["core.geometric_filter.passed"] += bool(result.ok)


def _observe_first_not_pencil(raw, args, kwargs, result, seconds):
    # defaults mirror criteria.first_not_pencil(wb, window=1, limit=400)
    window = args[1] if len(args) > 1 else kwargs.get("window", 1)
    limit = args[2] if len(args) > 2 else kwargs.get("limit", 400)
    raw["criteria.first_not_pencil.terms_used"] += result + window - 1
    raw["criteria.first_not_pencil.terms_budget"] += limit + window


def _observe_packings(raw, args, kwargs, result, seconds):
    raw["packing.single_packings.children"] += len(result)


def _observe_closure(raw, args, kwargs, result, seconds):
    raw["packing.closure.visited"] += result.visited


def _observe_b0(raw, args, kwargs, result, seconds):
    raw["classify.enumerate_b0.roots"] += len(result)


def _observe_admits(raw, args, kwargs, result, seconds):
    raw["classify.admits.accepted"] += bool(result)


def _observe_feasible(raw, args, kwargs, result, seconds):
    from reidbasket.canonical import Infeasible

    raw["canonical.b0_from_plurigenera.feasible"] += not isinstance(result, Infeasible)


def _observe_table(raw, args, kwargs, result, seconds):
    table_id = args[0] if args else kwargs["table_id"]
    raw[f"fixtures.table{table_id}.s"] += seconds
    raw["fixtures.verify_table.max_s"] = max(raw["fixtures.verify_table.max_s"], seconds)


OBSERVERS = {
    "core.plurigenus_sequence": _observe_sequence,
    "core.geometric_filter": _observe_filter,
    "criteria.first_not_pencil": _observe_first_not_pencil,
    "packing.single_packings": _observe_packings,
    "packing.closure": _observe_closure,
    "classify.enumerate_b0": _observe_b0,
    ADMITS: _observe_admits,
    "canonical.b0_from_plurigenera": _observe_feasible,
    "fixtures.verify_table": _observe_table,
}


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, bool]] = []
        self.raw: Counter = Counter()
        self._stack = [0]
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, raw, ids = self.spans, self._stack, self.raw, self._ids
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, parent, name, start, clock(), True))
                stack.pop()
                raise
            end = clock()
            spans.append((span_id, parent, name, start, end, False))
            stack.pop()
            if observe is not None:
                observe(raw, args, kwargs, result, end - start)
            return result

        return traced

    def _count(self, name: str, fn):
        raw = self.raw
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            raw[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, modules, attr: str, original, replacement) -> None:
        for module in modules:
            if module.__dict__.get(attr) is original:
                self._restore.append((module, attr, original))
                setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        for layer in SPANNED:
            importlib.import_module(f"reidbasket.{layer}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "reidbasket" or n.startswith("reidbasket."))]
        for layer, names in SPANNED.items():
            home = sys.modules[f"reidbasket.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                self._rebind(modules, attr, original, self.wrap(f"{layer}.{attr}", original))
        core = sys.modules["reidbasket.core"]
        self._rebind(modules, "delta_n", core.delta_n, self._count(COUNTED, core.delta_n))
        cls = sys.modules["reidbasket.classify"].ClassificationConstraints
        self._restore.append((cls, "admits", cls.__dict__["admits"]))
        cls.admits = self.wrap(ADMITS, cls.__dict__["admits"])
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, float]:
        """Additive per-layer totals of this process (see ``layer_metrics``)."""
        out: dict[str, float] = dict(self.raw)
        selfs = self_times(self.spans)
        for span_id, _parent, name, _start, _end, failed in self.spans:
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + selfs[span_id]
            out[f"{name}.errors"] = out.get(f"{name}.errors", 0) + failed
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, failed in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "failed": failed,
                }) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _id, parent, _name, start, end, _failed in spans:
        children[parent].append((start, end))
    out: dict[int, float] = {}
    for span_id, _parent, _name, start, end, _failed in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach, start), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def merge_totals(parts) -> dict[str, float]:
    """Totals of several traced processes that together make one pass."""
    merged: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            old = merged.get(key, 0)
            merged[key] = max(old, value) if key in MAXIMA else old + value
    return merged


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one pass; absent work reads as 0."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        for suffix in ("calls", "self_s", "errors"):
            out[f"{name}.{suffix}"] = totals.get(f"{name}.{suffix}", 0)
    for key in TOTALS + MAXIMA:
        out[key] = totals.get(key, 0)
    for key, (num, den) in RATIOS.items():
        out[key] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    return out
