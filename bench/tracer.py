"""Spans around xdyn's public callables, installed from outside the package.

``install`` wraps every public function that a module under ``xdyn``
defines, and the ``__post_init__`` validation of every class it defines
(so ``DensityMatrix(...)`` is one span).  Each wrapped function is rebound
in every ``xdyn`` namespace that holds it: ``cli`` imports ``scan`` and
``classify``, ``dynamics`` imports ``DensityMatrix``, ``fidelity`` and
``purity``, and the package re-exports nearly everything.  Modules are
reached through ``sys.modules`` because ``xdyn.fidelity`` as an attribute
of the package is the function, not the module.

Spans of depth 0 and 1 (``cli.main`` and what it calls directly) are kept
one by one with name, start, end, parent and request id.  Deeper calls,
such as the 21 ``as_matrix4`` calls per scan sample, are folded into
per-ancestor totals, so memory stays bounded by the number of requests.
A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "dynamics", "fidelity", "states", "model", "linalg", "validate")
RECORD_DEPTH = 1

# Calls that define the work units per-unit counts are divided by.
CONTEXTS = ("dynamics.classify", "validate.run_validation")


class Tracer:
    """In-memory spans, per-name totals and per-layer error counts."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id, request_id)
        self.folded: dict[tuple, list] = {}  # (ancestor span id, name) -> [calls, total_s, self_s]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.units = {"samples": 0, "verdicts": 0, "cases": 0}
        self.nested: dict[tuple, int] = {}  # (name, context) -> calls made inside that context
        self.request_id = None
        self._stack: list[list] = []  # [layer, span_id, anchor_id, child_s]
        self._active = dict.fromkeys(CONTEXTS, 0)
        self._next_id = 0

    def _count_units(self, name: str, fn, args, kwargs) -> None:
        if name == "dynamics.classify":
            self.units["verdicts"] += 1
        elif name in ("dynamics.scan", "validate.run_validation"):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            if name == "dynamics.scan":
                self.units["samples"] += getattr(bound.arguments.get("grid"), "steps", 0)
            else:
                self.units["cases"] += bound.arguments.get("cases", 0)

    def wrap(self, name: str, layer: str, fn, error_type):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0])
        counts_units = name in ("dynamics.scan", "dynamics.classify", "validate.run_validation")
        is_context = name in self._active
        is_main = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_units:
                self._count_units(name, fn, args, kwargs)
            for ctx, depth in self._active.items():
                if depth:
                    self.nested[(name, ctx)] = self.nested.get((name, ctx), 0) + 1
            parent = stack[-1] if stack else None
            if len(stack) <= RECORD_DEPTH:
                span_id = anchor = self._next_id
                self._next_id += 1
            else:
                span_id, anchor = None, parent[2]
            frame = [layer, span_id, anchor, 0.0]
            if is_context:
                self._active[name] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                # An error leaves this layer when the caller sits in another one.
                if parent is None or parent[0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if is_context:
                    self._active[name] -= 1
                dur = end - start
                if parent is not None:
                    parent[3] += dur
                stat[0] += 1
                stat[1] += dur - frame[3]
                if span_id is not None:
                    self.spans.append((span_id, name, start, end, parent and parent[1], self.request_id))
                else:
                    fold = self.folded.setdefault((anchor, name), [0, 0.0, 0.0])
                    fold[0] += 1
                    fold[1] += dur
                    fold[2] += dur - frame[3]
            if is_main and result != 0:
                # cli.main turns every XdynError into a non-zero exit code.
                self.errors["cli"] += 1
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[1] for name, s in self.stats.items() if name.startswith(layer + "."))

    def write(self, path) -> None:
        """Kept spans, then folded per-ancestor totals, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
            for (anchor, name), (calls, total, own) in sorted(self.folded.items()):
                fh.write(json.dumps({"folded_under": anchor, "name": name, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")


def install(tracer: Tracer) -> int:
    """Wrap the public callables of every loaded xdyn module; returns how many."""
    modules = {name: mod for name, mod in sys.modules.items() if name == "xdyn" or name.startswith("xdyn.")}
    error_type = modules["xdyn.errors"].XdynError
    functions = {}  # id(original) -> (original, wrapper)
    classes = 0
    for modname, mod in sorted(modules.items()):
        layer = modname.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                functions[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", layer, obj, error_type))
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                obj.__post_init__ = tracer.wrap(f"{layer}.{attr}", layer, vars(obj)["__post_init__"], error_type)
                classes += 1
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = functions.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(functions) + classes
