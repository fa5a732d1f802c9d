"""Out-of-program tracing of the package's public functions.

`Tracer.install` wraps every public module-level function of the layer
modules and the public methods of their classes (constant-time accessors
excepted), then rebinds each wrapped name in every package module that
holds it, so calls through `pipelines.well_balanced_orientation` are seen as
well as calls through `orientation.well_balanced_orientation`.  Private
helpers such as `_max_flow` are never wrapped: their time counts as self time
of the public caller, so refactoring them does not break the trace.

Spans (function, parent span, start, end) are kept in flat in-memory arrays
and summarised when the run ends.  Class constructors are counted, not timed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "orientcover"
LAYERS = ("multigraph", "orientation", "structures", "packings", "exact", "pipelines",
          "reduction", "graphio")

# Constant-time or per-edge accessors; wrapping them would time the wrapper.
ACCESSORS = frozenset({
    "ends", "is_loop", "other_end", "incident_edges", "degree", "has_vertex", "has_edge",
    "edge_multiset", "tail", "head", "arcs", "out_arcs", "in_arcs", "out_degree",
    "in_degree", "surviving_edges", "occurrences",
})

COUNTED_CLASSES = ("multigraph.Multigraph", "orientation.Orientation")

PROVENANCE = (("merge-at-cut-vertex", "cut_vertex"),
              ("merge-at-connecting-edge", "connecting_edge"),
              ("cubic-extension", "cubic_extension"))


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters: Dict[str, float] = defaultdict(float)
        self._patches: Optional[List[Tuple[object, str, object]]] = None
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------------

    def _span(self, fn: Callable, name: str) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.fn)
            tracer.fn.append(fid)
            tracer.parent.append(tracer.current)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.current = idx
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.current = tracer.parent[idx]
            if hook is not None:
                hook(tracer.counters, name, result)
            return result

        return traced

    def _count(self, init: Callable, name: str) -> Callable:
        counters = self.counters
        key = f"{name}.calls"

        @functools.wraps(init)
        def counted(self_, *args, **kwargs):
            counters[key] += 1
            init(self_, *args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped name; the wrappers are built on the first call."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, value in self._patches:
            original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def _plan(self) -> List[Tuple[object, str, object]]:
        patches: List[Tuple[object, str, object]] = []
        wrappers: Dict[Callable, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._span(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    patches += self._plan_class(obj, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    patches.append((mod, attr, wrappers[val]))
        return patches

    def _plan_class(self, cls: type, qualname: str) -> List[Tuple[object, str, object]]:
        patches: List[Tuple[object, str, object]] = []
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") or attr in ACCESSORS:
                continue
            if isinstance(val, staticmethod):
                patches.append((cls, attr, staticmethod(self._span(val.__func__, f"{qualname}.{attr}"))))
            elif inspect.isfunction(val):
                patches.append((cls, attr, self._span(val, f"{qualname}.{attr}")))
        if qualname in COUNTED_CLASSES:
            patches.append((cls, "__init__", self._count(cls.__dict__["__init__"], qualname)))
        return patches

    # -- summary -----------------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per traced name: calls, inclusive seconds and self seconds."""
        n = len(self.fn)
        child = [0.0] * n
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[fn[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def call_graph(self) -> Dict[str, float]:
        """Calls per (caller, callee) pair, for the trace file."""
        edges: Dict[str, float] = defaultdict(float)
        for i in range(len(self.fn)):
            p = self.parent[i]
            caller = self.names[self.fn[p]] if p >= 0 else "(operation)"
            edges[f"{caller} -> {self.names[self.fn[i]]}"] += 1
        return dict(sorted(edges.items()))


# -- result hooks: counts read off return values ------------------------------------------


def _decide_hook(counters: Dict[str, float], name: str, result) -> None:
    counters[f"{name}.nodes"] += result.nodes
    if result.status.value == "indeterminate":
        counters[f"{name}.indeterminate"] += 1


def _cover_hook(counters: Dict[str, float], name: str, result) -> None:
    if result.status == "indeterminate":
        counters[f"{name}.indeterminate"] += 1


def _provenance_hook(counters: Dict[str, float], name: str, result) -> None:
    for prefix, label in PROVENANCE:
        if any(p.startswith(prefix) for p in result.provenance):
            counters[f"pipelines.provenance.{label}"] += 1


def _returned_hook(counters: Dict[str, float], name: str, result) -> None:
    counters["orientation.searched_orientations"] += 1


_HOOKS = {
    "exact.deletability_decide": _decide_hook,
    "structures.berge_fulkerson_cover": _cover_hook,
    "pipelines.certify_upper7": _provenance_hook,
    "pipelines.certify_esse4": _provenance_hook,
    "pipelines.certify_color3": _provenance_hook,
    "pipelines.certify_bf5": _provenance_hook,
    "orientation.well_balanced_orientation": _returned_hook,
    "pipelines.orient_matching_deletable": _returned_hook,
}
