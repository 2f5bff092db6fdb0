"""Span tracing of entbound's public functions, installed from outside the package.

``Tracer(entbound)`` finds every name in ``entbound.__all__`` (plus
``cli.main``) in every ``entbound.*`` module namespace that binds it, so a
binding such as ``from .criteria import realign_norm`` in ``bounds`` is
replaced as well.  Classes contribute their methods.  ``closedform`` is a
reference module and is not traced.  Nothing under ``src/`` is edited: the
wrappers live only while ``install()`` is in effect.

A span is ``(name index, start, end, parent span index, operation id)``;
spans stay in memory until ``write()``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import types

LAYERS = ("spinspace", "linalg", "states", "criteria", "bounds", "cli")


def _layer(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    package, _, layer = module.partition(".")
    return layer if package == "entbound" and layer in LAYERS else None


def _is_function(obj) -> bool:
    # lru_cache wrappers are not FunctionType but carry cache_info
    return isinstance(obj, types.FunctionType) or (callable(obj) and hasattr(obj, "cache_info"))


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self.spans: list = []
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.skipped: list[str] = []
        prefix = package.__name__ + "."
        cli = importlib.import_module(prefix + "cli")
        modules = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(prefix) and m is not None]
        wrappers: dict[int, object] = {}
        seen_classes: set[int] = set()
        wanted = [(name, modules) for name in package.__all__]
        wanted.append(("main", [cli]))
        for name, holders in wanted:
            bound = [(m, vars(m)[name]) for m in holders if name in vars(m)]
            if not bound:
                self.skipped.append(name)
            for module, obj in bound:
                if _layer(obj) is None:
                    continue
                if isinstance(obj, type):
                    if id(obj) not in seen_classes:
                        seen_classes.add(id(obj))
                        self._plan_class(obj, wrappers)
                elif _is_function(obj):
                    self._plan(module, name, obj, f"{_layer(obj)}.{obj.__name__}", wrappers)

    def _plan_class(self, cls, wrappers) -> None:
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, types.FunctionType) and (
                    not attr.startswith("__") or attr == "__post_init__"):
                self._plan(cls, attr, obj, f"{_layer(cls)}.{cls.__name__}.{attr}", wrappers)

    def _plan(self, owner, attr, fn, name, wrappers) -> None:
        if id(fn) not in wrappers:
            wrappers[id(fn)] = self._wrap(fn, name)
        self._patches.append((owner, attr, fn, wrappers[id(fn)]))

    def _wrap(self, fn, name):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            pos = len(spans)
            spans.append(None)
            stack.append(pos)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[pos] = (index, start, end, parent, self.op)

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Calls and self time per name, split into set-up and operation spans.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, dict[str, float]]] = {"setup": {}, "ops": {}}
        for k, (index, start, end, _, op) in enumerate(self.spans):
            phase = out["setup" if op == "setup" else "ops"]
            entry = phase.setdefault(self.names[index], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child[k]
        return out

    def write(self, path) -> None:
        """Gzipped JSON lines: a header with the names, then one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for index, start, end, parent, op in self.spans:
                fh.write(json.dumps([self.names[index], start, end, parent, op]) + "\n")
