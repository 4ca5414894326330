"""Layer spans for hivecount, recorded from outside the package.

Each hook replaces one function under the name a hivecount module looks it up
by (a module global such as ``hivecount.counting.enumerate_vertices``), so the
package's own code runs unchanged and no file under ``src/`` is touched.
Spans are kept in memory and written out when the run ends.

A span is ``[name, start_ns, end_ns, parent, op, work]``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the operation id the runner
set, and ``work`` the count of work items the call returned (vertices, rays,
leaves, cells), or None.
"""

from __future__ import annotations

import importlib
import time

OP = "op"

# (module, global name, layer, work done by one call as read off its result)
HOOKS = (
    ("hivecount.counting", "hive_hrep", "hives.hive_hrep", None),
    ("hivecount.stretch", "hive_hrep", "hives.hive_hrep", None),
    ("hivecount.counting", "lattice_chart", "polyhedra.lattice_chart", None),
    ("hivecount.counting", "restrict_chart", "polyhedra.lattice_chart", None),
    ("hivecount.counting", "interior_point", "polyhedra.lp", None),
    ("hivecount.counting", "lp_standard", "polyhedra.lp", None),
    ("hivecount.counting", "enumerate_vertices", "polyhedra.enumerate_vertices", len),
    ("hivecount.counting", "supporting_cone", "polyhedra.supporting_cone",
     lambda cone: len(cone.rays)),
    ("hivecount.counting", "decompose_cone", "counting.decompose_cone", len),
    ("hivecount.counting", "lll_reduce", "linalg.lll_reduce", None),
    ("hivecount.counting", "placing_triangulation", "triangulation.placing_triangulation",
     lambda tri: len(tri.cells)),
    ("hivecount.counting", "count_barvinok", "counting.count_barvinok", None),
    ("hivecount.stretch", "fit_quasi_polynomial", "stretch.fit_quasi_polynomial", None),
)

# per-layer metric -> (layer, what is summed over its spans, unit)
LAYER_METRICS = {
    "polyhedra.lp.s": ("polyhedra.lp", "self", "s"),
    "polyhedra.lp.calls": ("polyhedra.lp", "calls", "count"),
    "polyhedra.lattice_chart.s": ("polyhedra.lattice_chart", "self", "s"),
    "hives.hive_hrep.s": ("hives.hive_hrep", "self", "s"),
    "polyhedra.enumerate_vertices.s": ("polyhedra.enumerate_vertices", "self", "s"),
    "polyhedra.enumerate_vertices.vertices": ("polyhedra.enumerate_vertices", "work", "count"),
    "polyhedra.supporting_cone.s": ("polyhedra.supporting_cone", "self", "s"),
    "polyhedra.supporting_cone.rays": ("polyhedra.supporting_cone", "work", "count"),
    "counting.decompose_cone.self_s": ("counting.decompose_cone", "self", "s"),
    "counting.decompose_cone.leaves": ("counting.decompose_cone", "work", "count"),
    "linalg.lll_reduce.s": ("linalg.lll_reduce", "self", "s"),
    "linalg.lll_reduce.calls": ("linalg.lll_reduce", "calls", "count"),
    "triangulation.placing_triangulation.s": ("triangulation.placing_triangulation", "self", "s"),
    "triangulation.placing_triangulation.cells": ("triangulation.placing_triangulation", "work", "count"),
    "counting.count_barvinok.self_s": ("counting.count_barvinok", "self", "s"),
    "counting.count_barvinok.calls": ("counting.count_barvinok", "calls", "count"),
    "stretch.fit_quasi_polynomial.s": ("stretch.fit_quasi_polynomial", "self", "s"),
}

# largest share of a count_barvinok span that its subtree's self times may miss
ACCOUNTING_TOLERANCE = 0.02


class Tracer:
    """In-memory spans of one traced round, and the hooks that record them."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.absent = []
        self.layers = set()
        self._stack = []
        self._saved = []

    def install(self):
        """Put a span around every hooked function that still exists."""
        for module_name, attr, layer, work in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            self.layers.add(layer)
            setattr(module, attr, self._wrap(fn, layer, work))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, layer, work):
        def traced(*args, **kwargs):
            return self.call(layer, work, fn, *args, **kwargs)

        return traced

    def call(self, name, work, fn, *args, **kwargs):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if work is not None:
            span[5] = work(out)
        return out


def self_times_ns(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered = 0
        reach = start
        for k in sorted(kids, key=lambda i: spans[i][1]):
            lo, hi = max(spans[k][1], reach), min(spans[k][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, layers):
    """Per-layer totals over the spans, keyed as in LAYER_METRICS.

    Metrics of a layer not in layers (no hook of it could be installed) are
    left out, so a layer that a later change removes shows as absent.
    """
    selfs = self_times_ns(spans)
    totals = {}
    for span, self_ns in zip(spans, selfs):
        t = totals.setdefault(span[0], {"self": 0, "calls": 0, "work": 0})
        t["self"] += self_ns
        t["calls"] += 1
        t["work"] += span[5] or 0
    metrics = {}
    for metric, (layer, field, unit) in LAYER_METRICS.items():
        if layer not in layers:
            continue
        value = totals.get(layer, {}).get(field, 0)
        metrics[metric] = (value / 1e9 if field == "self" else value, unit)
    if {"polyhedra.enumerate_vertices", "counting.decompose_cone"} <= layers:
        vertices = metrics["polyhedra.enumerate_vertices.vertices"][0]
        leaves = metrics["counting.decompose_cone.leaves"][0]
        metrics["counting.leaves_per_vertex"] = (leaves / vertices if vertices else 0.0, "ratio")
    return metrics


def accounting_errors(spans):
    """Spans whose subtree self times do not add up to their own duration.

    For every count_barvinok span and every operation span, the self times of
    all layer spans beneath it plus its own untraced remainder must come to
    its duration; a gap means spans overlap or escaped their parent.
    """
    selfs = self_times_ns(spans)
    subtree = list(selfs)
    for idx in range(len(spans) - 1, -1, -1):
        parent = spans[idx][3]
        if parent >= 0:
            subtree[parent] += subtree[idx]
    errors = []
    for idx, span in enumerate(spans):
        if span[0] not in ("counting.count_barvinok", OP):
            continue
        duration = span[2] - span[1]
        if abs(subtree[idx] - duration) > ACCOUNTING_TOLERANCE * duration + 1000:
            errors.append(
                f"op {span[4]} {span[0]}: layers add up to {subtree[idx]} ns of {duration} ns"
            )
    return errors
