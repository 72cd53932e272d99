"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the noetherlab layers from outside
the library, so the library carries no instrumentation of its own.  A
``from .graphs import adjacent`` import copies the function object into
the importing module, so every module namespace that holds the original
object is rebound, and restored on ``uninstall``.

Each call of a wrapped function records one span (name, start, end,
parent) in flat arrays kept in memory; ``self time`` is a span's
duration minus the durations of its direct child spans and of the
reference slices (refclock.py) that ran directly inside it.  Generators are
not spans: only the items they yield are counted.
"""

from __future__ import annotations

import array
import gzip
import os
import sys
import time
from bisect import bisect_right
from collections import defaultdict
from functools import cached_property, update_wrapper

# (module, attribute, span name).  Span names use the layer names of the
# per-layer metrics; the kernels are named by kernel, not by module.
SPANS = [
    ("graphs", "adjacent", "graphs.adjacent"),
    ("geometry", "box_contains", "geometry.box_contains"),
    ("coloring", "separating_box", "coloring.separating_box"),
    ("coloring", "check_proper", "coloring.check_proper"),
    ("coloring", "greedy_coloring", "coloring.greedy_coloring"),
    ("coloring", "extend_coloring", "coloring.extend_coloring"),
    ("coloring", "stitch_colorings", "coloring.stitch_colorings"),
    ("coloring", "k_colorable_fixed_order", "coloring.k_colorable_fixed_order"),
    ("_kernels", "find_clique", "kernels.find_clique"),
    ("_kernels", "chromatic_number", "kernels.chromatic_number"),
    ("_kernels", "min_subfamily", "kernels.min_subfamily"),
    ("lattice", "good_closure", "lattice.good_closure"),
    ("lattice", "heart", "lattice.heart"),
    ("lattice", "minimal_subfamily", "lattice.minimal_subfamily"),
    ("lattice", "longest_descent_chain", "lattice.longest_descent_chain"),
    ("coloring_poset", "p_leq", "coloring_poset.p_leq"),
    ("coloring_poset", "p_compatible", "coloring_poset.p_compatible"),
    ("coloring_poset", "p_lower_bound", "coloring_poset.p_lower_bound"),
    ("control_poset", "q_compatible", "control_poset.q_compatible"),
    ("control_poset", "reduced_support", "control_poset.reduced_support"),
    ("control_poset", "predense_check", "control_poset.predense_check"),
    ("control_poset", "ramsey_compatible_subset", "control_poset.ramsey_compatible_subset"),
    ("control_poset", "liminf_thin", "control_poset.liminf_thin"),
    ("hamming", "verify_embedding", "hamming.verify_embedding"),
    ("hamming", "verify_vitali_homomorphism", "hamming.verify_vitali_homomorphism"),
    ("generators", "line_universe", "generators.line_universe"),
    ("generators", "path_explicit_universe", "generators.path_explicit_universe"),
    ("generators", "clustered_line_universe", "generators.clustered_line_universe"),
    ("generators", "planar_unit_universe", "generators.planar_unit_universe"),
    ("generators", "random_explicit_universe", "generators.random_explicit_universe"),
    ("generators", "random_universe", "generators.random_universe"),
    ("generators", "random_good_domain", "generators.random_good_domain"),
    ("generators", "random_pcondition", "generators.random_pcondition"),
    ("generators", "random_qcondition", "generators.random_qcondition"),
    ("serialize", "parse_instance_file", "serialize.parse_instance_file"),
    ("cli", "main", "cli.main"),
]

# Methods and properties, wrapped on their class.
METHOD_SPANS = [
    ("graphs", "GraphInstance", "validate_point", "graphs.validate_point"),
    ("graphs", "SampleUniverse", "__init__", "graphs.SampleUniverse"),
]
CACHED_SPANS = [
    ("graphs", "SampleUniverse", "closed_masks", "graphs.closed_masks"),
]

SEPARATING_BOX = "coloring.separating_box"
PACKAGE = "noetherlab"


def _module(short: str):
    return sys.modules[f"{PACKAGE}.{short}"]


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return update_wrapper(wrapper, fn)

    def _yield_counter(self, name: str, fn):
        """Generator ``fn`` wrapped to count its items, and separately the
        items consumed while a separating_box span is innermost."""
        counters, stack, span_name = self.counters, self.stack, self.span_name
        sep = self._name_id(SEPARATING_BOX)

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[name + ".yielded"] += 1
                if stack and span_name[stack[-1]] == sep:
                    counters[SEPARATING_BOX + ".boxes"] += 1
                yield item

        return update_wrapper(wrapper, fn)

    def _variation_search(self, fn):
        """find_variation_prefix as a span that also sums search nodes."""
        counters = self.counters
        search_stats = _module("patterns").SearchStats

        def wrapper(universe, spec, stats=None):
            own = stats if stats is not None else search_stats()
            before = own.nodes_explored
            try:
                return fn(universe, spec, own)
            finally:
                counters["patterns.find_variation_prefix.nodes"] += own.nodes_explored - before

        return self.span("patterns.find_variation_prefix", update_wrapper(wrapper, fn))

    def _load_path(self, fn):
        counters = self.counters

        def wrapper(path):
            data = fn(path)
            counters["serialize.bytes_in"] += os.path.getsize(path)
            return data

        return self.span("serialize.load_path", update_wrapper(wrapper, fn))

    def _dump_canonical(self, fn):
        counters = self.counters

        def wrapper(data):
            text = fn(data)
            counters["serialize.bytes_out"] += len(text.encode("utf-8"))
            return text

        return self.span("serialize.dump_canonical", update_wrapper(wrapper, fn))

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def _set(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for short, attr, name in SPANS:
            original = getattr(_module(short), attr)
            self._rebind(original, self.span(name, original))
        special = [
            ("patterns", "find_variation_prefix", self._variation_search),
            ("serialize", "load_path", self._load_path),
            ("serialize", "dump_canonical", self._dump_canonical),
        ]
        for short, attr, make in special:
            original = getattr(_module(short), attr)
            self._rebind(original, make(original))
        original = _module("geometry").iter_boxes_containing
        self._rebind(original, self._yield_counter("geometry.iter_boxes_containing", original))
        for short, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(_module(short), cls_name)
            self._set(cls, attr, self.span(name, cls.__dict__[attr]))
        for short, cls_name, attr, name in CACHED_SPANS:
            cls = getattr(_module(short), cls_name)
            prop = cached_property(self.span(name, cls.__dict__[attr].func))
            prop.__set_name__(cls, attr)
            self._set(cls, attr, prop)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def innermost(self, slices) -> list[int]:
        """For each (start, end) interval, the innermost span around it, or -1.

        The intervals are reference slices (see refclock.py).  A slice runs
        in a signal handler between bytecodes, so it lies wholly inside or
        wholly outside every span.
        """
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        result = []
        for start, _ in slices:
            # The last span to start before the slice, or its nearest
            # ancestor that was still open then.
            k = bisect_right(starts, start) - 1
            while k >= 0 and ends[k] < start:
                k = parents[k]
            result.append(k)
        return result

    def totals(self, slices=()) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds).  Reference slices
        count as child time of the span they ran in."""
        n = len(self.span_start)
        starts, ends, parents, names = (
            self.span_start,
            self.span_end,
            self.span_parent,
            self.span_name,
        )
        child = array.array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        for (start, end), k in zip(slices, self.innermost(slices)):
            if k >= 0:
                child[k] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = names[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write_spans(self, path: str, slices=()) -> None:
        """Every span, then every reference slice, as gzipped tab-separated
        text: index, name, start_s, end_s, parent index (-1: none)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            for i, (k, start, end, parent) in enumerate(rows):
                fh.write(f"{i}\t{names[k]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
            n = len(self.span_start)
            for i, ((start, end), parent) in enumerate(zip(slices, self.innermost(slices)), n):
                fh.write(f"{i}\treference_slice\t{start:.9f}\t{end:.9f}\t{parent}\n")
