"""Spans around the calls into the six layers of `schmidt_gates`.

The tracer wraps every public function of `cli`, `dynamics`, `linalg`,
`sphere`, `gates` and `invariants` from the outside: each module namespace
that holds such a function (its own, or one that imported it with
`from .x import f`) gets the wrapper, so calls are caught where the caller
looks the name up. `cli._build_path`, which builds the segments and the
path (and so runs the continuity and closure checks with their chart
re-lifts), is traced as the span `sphere.path_build`. Methods and class
constructors are not wrapped.

Spans are aggregated in memory as they close: calls, inclusive time and
raised exceptions per span name, calls per (parent, child) edge, and self
time per layer (a span's duration minus the time of its child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("cli", "dynamics", "linalg", "sphere", "gates", "invariants")

PACKAGE = "schmidt_gates"

# Private functions traced under another name: (module, name) -> span name.
EXTRA_SPANS = {("cli", "_build_path"): "sphere.path_build"}


def _layer_modules():
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}")
            for layer in LAYERS}


class Tracer:
    """Installs span wrappers into the package's module namespaces."""

    def __init__(self):
        self.modules = _layer_modules()
        self._rejection = self.modules["cli"].ScenarioError
        self._stack = []
        self._patches = []
        self.calls = Counter()
        self.inclusive = Counter()
        self.raised = Counter()
        self.edges = Counter()
        self.layer_self = Counter()
        self.layer_errors = Counter()

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(module, attribute, function, span name) for every traced name."""
        owners = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = owners.get(obj.__module__)
                if owner is not None:
                    yield module, attr, obj, f"{owner}.{obj.__name__}"
        for (layer, attr), span in EXTRA_SPANS.items():
            module = self.modules[layer]
            yield module, attr, getattr(module, attr), span

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {}
        for module, attr, fn, span in self._targets():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, span)
            self._patches.append((module, attr, fn))
            setattr(module, attr, wrappers[fn])

    def remove(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, span):
        layer = span.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter

        # a frame holds (time of child spans, layer, span name)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, layer, span]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[span] += 1
                crosses = parent is None or parent[1] != layer
                if crosses and not isinstance(exc, self._rejection):
                    self.layer_errors[layer] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[span] += 1
                self.inclusive[span] += dt
                self.layer_self[layer] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                    self.edges[f"{parent[2]}>{span}"] += 1

        return functools.wraps(fn)(traced)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "inclusive": dict(self.inclusive),
                "raised": dict(self.raised), "edges": dict(self.edges),
                "layer_self": dict(self.layer_self),
                "layer_errors": dict(self.layer_errors)}


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot's counters into another (both plain dicts)."""
    for key, values in part.items():
        bucket = total.setdefault(key, {})
        for name, value in values.items():
            bucket[name] = bucket.get(name, 0) + value
    return total
