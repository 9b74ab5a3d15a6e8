"""Span tracer for the fpselberg layers, installed from outside the package.

The tracer wraps the public functions of each layer module (the names in its
``__all__``) and the constructors of the classes that do work, at every name
where a caller looks them up: ``verify.selberg_bruteforce`` is bound by
``from .selberg_core import ...``, so it is patched there as well as in
``selberg_core``.  Each call records one span (id, name, start, end, parent)
in a flat in-memory array; nothing is written until ``write_spans``.
``uninstall`` puts every original object back.

Two private hooks feed counts rather than spans: the dense expansion cache of
``selberg_core`` (distinct parameter tuples requested) and ``_dense_product``
(coefficient cells allocated, computed from the shapes of the arrays it
returns).
"""

from __future__ import annotations

import array
import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types

PACKAGE = "fpselberg"
LAYERS = ("cli", "verify", "selberg2d_closed", "selberg_core", "fp_poly", "modp_arith", "morris_ct")

# Classes whose construction is work worth a span.  Value types built in the
# inner loops (FpElement, CaseTag) are left alone: a span per field element
# would cost more than the arithmetic it measures.
TRACED_CLASSES = (
    ("selberg_core", "SelbergParams"),
    ("selberg_core", "MasterPolySpec"),
    ("modp_arith", "FpContext"),
    ("morris_ct", "MorrisParams"),
    ("fp_poly", "MultiPoly"),
)

# Record layout of the flat span array.
SPAN_FIELDS = ("id", "name", "start", "end", "parent")


class Tracer:
    """Wraps the layer functions of an imported ``fpselberg`` package."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array.array("d")
        self.expansion_keys: set = set()
        self.dense_cells = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _patch_everywhere(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every package namespace."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        layer_modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        try:
            for layer, module in layer_modules.items():
                for name in getattr(module, "__all__", ()):
                    obj = getattr(module, name, None)
                    defined_here = getattr(obj, "__module__", None) == module.__name__
                    if defined_here and (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                        self._patch_everywhere(obj, self._span(f"{layer}.{name}", obj))
            for layer, name in TRACED_CLASSES:
                cls = getattr(layer_modules[layer], name, None)
                if isinstance(cls, type) and "__init__" in vars(cls):
                    init = vars(cls)["__init__"]
                    self._patches.append((cls, "__init__", init))
                    cls.__init__ = self._span(f"{layer}.{name}", init)
            self._install_count_hooks(layer_modules)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_count_hooks(self, layer_modules):
        dense_master = getattr(layer_modules["selberg_core"], "_dense_master", None)
        if dense_master is not None:
            keys = self.expansion_keys

            @functools.wraps(dense_master)
            def counted_master(*args):
                keys.add(args)
                return dense_master(*args)

            self._patch_everywhere(dense_master, counted_master)
        dense_product = getattr(layer_modules["fp_poly"], "_dense_product", None)
        if dense_product is not None:
            tracer = self

            @functools.wraps(dense_product)
            def counted_product(*args, **kwargs):
                arr = dense_product(*args, **kwargs)
                tracer.dense_cells += arr.size
                return arr

            self._patch_everywhere(dense_product, counted_product)

    def uninstall(self):
        # Reverse order, so a name patched twice ends at its first original.
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording -----------------------------------------------------------

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # One C-level call, so records from pool threads never interleave.
                spans.extend((span_id, name_id, start, end, parent))

        return traced

    # -- summaries -----------------------------------------------------------

    def records(self):
        s = self.spans
        for i in range(0, len(s), len(SPAN_FIELDS)):
            yield int(s[i]), int(s[i + 1]), s[i + 2], s[i + 3], int(s[i + 4])

    def summary(self) -> dict:
        """Calls, total and self time per span name and per layer.

        Self time is a span's duration minus the time of the spans it directly
        caused.  Spans started on pool threads have no parent, so their time
        is not subtracted from the span that submitted them.
        """
        child_time: dict[int, float] = {}
        for _, _, start, end, parent in self.records():
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        by_name: dict[str, dict] = {}
        for span_id, name_id, start, end, _ in self.records():
            entry = by_name.setdefault(self.names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        by_layer = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, entry in by_name.items():
            layer = by_layer[name.split(".", 1)[0]]
            layer["calls"] += entry["calls"]
            layer["self_s"] += entry["self_s"]
        return {"by_name": by_name, "by_layer": by_layer}

    def write_spans(self, stem: str):
        """Write ``<stem>.bin`` (native float64 records) and ``<stem>.json`` (layout)."""
        with open(stem + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "dtype": "float64", "byteorder": sys.byteorder,
                       "clock": "time.perf_counter seconds", "names": self.names,
                       "count": len(self.spans) // len(SPAN_FIELDS)}, fh, indent=1)
