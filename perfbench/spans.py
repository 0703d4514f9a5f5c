"""Span recording around the public functions of each mosaic module.

The tracer wraps functions from outside the program: every module
attribute (or class attribute) that holds one of the traced functions is
replaced by a wrapper, including the names other modules bound with
`from .x import y`.  Each call records one span (name, start, end,
parent) in memory; nothing is written until the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Calls are single-threaded and properly nested, so the children
of one span are disjoint and their durations simply add up.
"""

import functools
import json
import math
import sys
import time

# (module, attribute, span name); a dotted attribute names a method.
TRACED = (
    ("polygon", "enumerate_diagonal_sets", "polygon.enumerate_diagonal_sets"),
    ("polygon", "dihedral_canonical", "polygon.dihedral_canonical"),
    ("polygon", "dual_tree", "polygon.dual_tree"),
    ("operad", "check_operad_axioms", "operad.check_operad_axioms"),
    ("moduli", "build_complex", "moduli.build_complex"),
    ("moduli", "ModuliComplex.cell_for", "moduli.cell_for"),
    ("moduli", "ModuliComplex.coboundary_counts", "moduli.coboundary_counts"),
    ("moduli", "twist", "moduli.twist"),
    ("moduli", "marked_twist", "moduli.marked_twist"),
    ("moduli", "verify_divisor_factorization", "moduli.verify_divisor_factorization"),
    ("moduli", "covering_map", "moduli.covering_map"),
    ("moduli", "classify_surface", "moduli.classify_surface"),
    ("associahedron", "face_lattice", "associahedron.face_lattice"),
    ("associahedron", "face_factorization", "associahedron.face_factorization"),
    ("quasibraid", "relations", "quasibraid.relations"),
    ("quasibraid", "check_phi", "quasibraid.check_phi"),
    ("quasibraid", "pair_of_pants", "quasibraid.pair_of_pants"),
    ("arrangement", "chamber_counts", "arrangement.chamber_counts"),
    ("acceptance", "run_criterion", "acceptance.c{0:02d}"),
    ("cli", "main", "cli.main"),
)

CRITERIA = range(1, 12)
GRADES = range(6)

# Every per-layer metric the traced run emits, with its unit.  A layer
# that the traced workload never calls reads 0.
LAYER_METRICS = (
    [("moduli.build_complex.s", "s"),
     ("moduli.build_complex.cells", "count"),
     ("moduli.build_complex.incidences", "count")]
    + [(f"moduli.build_complex.n8-projective.grade{k}.s", "s") for k in GRADES]
    + [("moduli.cell_for.calls", "count"),
       ("moduli.cell_for.s", "s"),
       ("moduli.cell_for.p50_us", "us"),
       ("moduli.cell_for.p99_us", "us")]
    + [(f"{name}.s", "s") for _, _, name in TRACED
       if name not in ("moduli.build_complex", "moduli.cell_for", "acceptance.c{0:02d}")]
    + [(f"acceptance.c{c:02d}.s", "s") for c in CRITERIA]
    + [("trace.wall_s", "s"), ("trace.spans", "count")]
)


class Tracer:
    """In-memory span recorder; a span is (name, start, end, parent, extra).

    Spans are tuples of numbers and strings, which the garbage collector
    stops tracking, so a long run's spans do not slow its collections.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def wrap(self, name, func, annotate=None):
        spans, stack, clock = self.spans, self._stack, self._clock
        label = name.format if "{" in name else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label(*args, **kwargs) if label else name,
                                start, end, parent, None)
            if annotate is not None:
                spans[index] = spans[index][:4] + (annotate(result),)
            return result

        return traced

    def write(self, path):
        rows = [{"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, **(extra or {})}
                for i, (name, start, end, parent, extra) in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump(rows, handle)


def _complex_size(complex_):
    incidences = sum(len(level.pc_codes) for level in complex_.levels.values())
    return {"cells": len(complex_.cells), "incidences": incidences}


def install(tracer):
    """Wrap every traced function in every loaded mosaic module."""
    modules = [m for key, m in sorted(sys.modules.items())
               if (key == "mosaic" or key.startswith("mosaic.")) and m is not None]
    for module_name, attr, name in TRACED:
        owner = sys.modules[f"mosaic.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
            continue
        original = getattr(owner, attr)
        annotate = _complex_size if name == "moduli.build_complex" else None
        wrapper = tracer.wrap(name, original, annotate)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans):
    """Reduce spans to the per-layer metrics (grades and trace.* excluded)."""
    values = {name: 0 for name, _ in LAYER_METRICS}
    selfs = self_times(spans)
    cell_for = []
    for (name, start, end, _, extra), own in zip(spans, selfs):
        values[f"{name}.s"] += own
        if name == "moduli.cell_for":
            cell_for.append(end - start)
        if extra:
            for key, count in extra.items():
                values[f"{name}.{key}"] += count
    values["moduli.cell_for.calls"] = len(cell_for)
    if cell_for:
        values["moduli.cell_for.p50_us"] = percentile(cell_for, 0.50) * 1e6
        values["moduli.cell_for.p99_us"] = percentile(cell_for, 0.99) * 1e6
    values["trace.spans"] = len(spans)
    return values
