"""In-memory span tracer wrapped around the cvcluster modules from outside.

``Tracer.install`` wraps every public function of each layer module (and
the public methods of the classes defined there), then rebinds every alias
of a wrapped function in every loaded ``cvcluster`` namespace, because the
modules import each other's functions by name. Nothing in ``src/`` changes.

A span is (id, parent, name, start_ns, end_ns) and is recorded where a call
crosses into a layer. A call made from inside the same layer is only
counted: its time already belongs to that layer's self time, and
``engine.update_frame`` alone is called about 3e5 times per long-chain op.
Spans stay in memory until ``write`` puts them out as gzipped JSON lines.
A layer's self time is its spans' time minus their direct children's.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "protocols", "engine", "checks", "phase_space", "cluster", "algebra")
ROOT = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.nested_calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._layers: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        index = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self._layers.append(name.split(".", 1)[0])
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter_ns()
            self._stack.pop()
            self._layers.pop()

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._layers and self._layers[-1] == layer:
                self.nested_calls[name] = self.nested_calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap the layer modules of the imported cvcluster package in place."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"cvcluster.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    replacements[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_methods(f"{layer}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name != "cvcluster" and not name.startswith("cvcluster."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", value))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self._wrap(f"{prefix}.{attr}", value.__func__)
                setattr(cls, attr, type(value)(wrapped))

    def write(self, path: str) -> None:
        """One header line with the field names, then one array per span."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(["id", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for i, name_id in enumerate(self.name):
                span = [i, self.parent[i], self.names[name_id], self.start[i], self.end[i]]
                out.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Per function: calls (spans and same-layer calls) and self time in ns."""
        child_ns = [0] * len(self.name)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[i] - self.start[i]
        calls = dict(self.nested_calls)
        self_ns: dict[str, int] = {}
        for i, name_id in enumerate(self.name):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + self.end[i] - self.start[i] - child_ns[i]
        return {"calls": calls, "self_ns": self_ns}
