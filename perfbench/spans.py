"""Boundary tracer for the revsle modules, installed from outside the package.

Every function named in a revsle module's ``__all__`` is wrapped at each
place where *another* revsle module binds it (``from .driving import
raw_normals`` in montecarlo, everything ``cli`` imports, ...).  Calls inside
one module stay unwrapped, so the scalar ``slit_sqrt`` inside ``trace`` costs
nothing extra.  Keying on ``__all__`` keeps a refactored module traced without
editing this file.

A span is ``[layer, name, start, end, parent]`` with ``parent`` the index of
the enclosing span on the same thread (-1 at the root).  A layer's self time
is the sum over its spans of duration minus the duration of their children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from time import perf_counter

LAYERS = ("cli", "montecarlo", "driving", "loewner", "observables", "cft", "virasoro")


def layer_of(fn) -> str:
    return fn.__module__.rpartition(".")[2]


class Tracer:
    """Records spans in memory; ``install`` patches the module bindings."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    def wrap(self, fn):
        layer = layer_of(fn)
        name = f"{layer}.{fn.__name__}"
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            idx = len(spans)
            spans.append([layer, name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()

        return traced

    def install(self) -> None:
        mods = {name: importlib.import_module(f"revsle.{name}") for name in LAYERS}
        public = {}
        for mod in mods.values():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if inspect.isfunction(obj):   # classes such as McConfig stay unwrapped
                    public[id(obj)] = obj
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                fn = public.get(id(obj))
                if fn is not None and layer_of(fn) != layer:
                    self._patches.append((layer, mod, attr, obj))
                    setattr(mod, attr, self.wrap(fn))

    def uninstall(self) -> None:
        for _, mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    @property
    def patched(self) -> list[str]:
        """``binder:callee`` for every wrapped binding, e.g. ``montecarlo:raw_normals``."""
        return sorted(f"{layer}:{attr}" for layer, _, attr, _ in self._patches)


def layer_times(spans: list[list]) -> dict:
    """Per layer: ``self_s``, ``calls`` and ``excl_driving_s`` (span time
    minus driving children, the engine's own kernel time)."""
    child = [0.0] * len(spans)
    child_driving = [0.0] * len(spans)
    for layer, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
            if layer == "driving":
                child_driving[parent] += end - start
    out = {name: {"self_s": 0.0, "calls": 0, "excl_driving_s": 0.0} for name in LAYERS}
    for i, (layer, _, start, end, _) in enumerate(spans):
        rec = out[layer]
        rec["self_s"] += end - start - child[i]
        rec["calls"] += 1
        rec["excl_driving_s"] += end - start - child_driving[i]
    return out
