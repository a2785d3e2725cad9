"""Span tracing of parabkit's layers, installed from outside the package.

``Tracer.install`` wraps the public functions of ``polyring``, ``cyclotomic``,
``algebraic``, ``dynamics`` and ``classify`` (every callable a module lists in
``__all__`` and defines itself), plus the methods in ``METHODS``.  A module
that bound one of those functions at import (``from .dynamics import
discriminant_Pn``) holds its own reference, so every ``parabkit`` module
attribute that is the original function object is replaced, not only the
defining one.  ``uninstall`` restores every original, so untraced blocks run
the unmodified code.

Spans are kept in memory as ``(name, start, end, parent)`` tuples for the
operation in progress.  ``fold`` runs between operations, outside any timed
region: it turns the finished operation's spans into per-layer totals (calls,
inclusive and self seconds, where self time is the span minus the time its
child spans cover) and the counters below, and keeps the spans of the first
operation of each kind as a sample that the caller writes out when the run
ends.  Nothing is written while a run is measured.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("polyring", "cyclotomic", "algebraic", "dynamics", "classify")
METHODS = {
    "polyring": {"IntegerPoly": ("__mul__", "__rmul__", "divide_exact")},
    "algebraic": {"RealAlgebraic": ("refined",)},
}
# __rmul__ is the same function as __mul__ and is reported under its name.
_ALIASES = {"polyring.IntegerPoly.__rmul__": "polyring.IntegerPoly.__mul__"}


def _public_callables(module):
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


class Tracer:
    """Records spans around parabkit calls while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.totals: dict = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict = {}
        self.ops = 0
        self.samples: dict = {}  # op kind -> spans of its first traced operation

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        if self._patches:
            return
        package = importlib.import_module("parabkit")
        modules = [package] + [importlib.import_module(f"parabkit.{m}") for m in LAYERS]
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"parabkit.{layer}")
            for attr, fn in _public_callables(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    name = _ALIASES.get(f"{layer}.{cls_name}.{method}", f"{layer}.{cls_name}.{method}")
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- aggregation (outside timed regions) -------------------------------

    def fold(self, kind: str = "op", scale: float = 1.0) -> None:
        """Fold the spans of one finished operation into the totals.

        Durations are multiplied by ``scale`` (see calibrate.py).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = self.totals
        counters = self.counters
        reached_in_z = set()
        sturm_in_sign_at = 0
        for i, (name, start, end, parent) in enumerate(spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) * scale
            entry[2] += (end - start - child[i]) * scale
            if name == "polyring.discriminant_in_z":
                # walk up to the enclosing discriminant_Pn call, if any
                p = parent
                while p >= 0 and spans[p][0] != "dynamics.discriminant_Pn":
                    p = spans[p][3]
                if p >= 0:
                    reached_in_z.add(p)
            elif name == "polyring.sturm_count":
                p = parent
                while p >= 0 and spans[p][0] != "algebraic.sign_at":
                    p = spans[p][3]
                sturm_in_sign_at += p >= 0
        pn_calls = sum(1 for s in spans if s[0] == "dynamics.discriminant_Pn")
        counters["pn_calls"] = counters.get("pn_calls", 0) + pn_calls
        counters["pn_misses"] = counters.get("pn_misses", 0) + len(reached_in_z)
        counters["sturm_in_sign_at"] = counters.get("sturm_in_sign_at", 0) + sturm_in_sign_at
        if kind not in self.samples:
            base = spans[0][1] if spans else 0.0
            self.samples[kind] = [
                (name, round(start - base, 9), round(end - base, 9), parent)
                for name, start, end, parent in spans
            ]
        self.ops += 1
        spans.clear()

    def summary(self) -> dict:
        return {
            "ops": self.ops,
            "totals": self.totals,
            "counters": self.counters,
            "samples": self.samples,
        }


def merge(summaries) -> dict:
    """Combine (summary, scale) pairs from several processes (cold-cli children)."""
    out = {"ops": 0, "totals": {}, "counters": {}, "samples": {}}
    for s, scale in summaries:
        out["ops"] += s["ops"]
        for name, (calls, incl, self_s) in s["totals"].items():
            entry = out["totals"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl * scale
            entry[2] += self_s * scale
        for key, value in s["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + value
        for kind, spans in s["samples"].items():
            out["samples"].setdefault(kind, spans)
    return out
