"""Spans recorded from outside the program, around qosd's public functions.

A span is (name, start, end, parent span, extra). Spans live in memory in
flat arrays, so a long trace adds no objects for the garbage collector to
scan, and are written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable

# observe(args, kwargs, result) -> a JSON value stored as the span's extra
Observer = Callable[[tuple, dict, object], object]


class Tracer:
    """Records spans; ``installed`` puts its wrappers around qosd functions."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                self.extra[index] = observe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, package: str, modules: tuple[str, ...], observers: dict[str, Observer]):
        """Wrap every public function defined in ``package.<module>`` for each
        of ``modules``, under every name a loaded module of ``package`` binds
        it to (``qosd.framework.pair_shortest_paths`` as well as
        ``qosd.pathcore.pair_shortest_paths``); restore them all on exit."""
        wrappers = {}
        for module in modules:
            mod = sys.modules[f"{package}.{module}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    qualified = f"{module}.{name}"
                    wrappers[obj] = self.wrap(qualified, obj, observers.get(qualified))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    patched.append((mod, name, obj))
        try:
            yield
        finally:
            for mod, name, obj in patched:
                setattr(mod, name, obj)

    def durations(self) -> tuple[list[float], list[float]]:
        """Each span's duration and self time.

        Calls are single-threaded, so a span's children never overlap and
        the part of its interval they cover is the sum of their durations.
        """
        total = [e - s for s, e in zip(self.start, self.end)]
        own = list(total)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= total[i]
        return total, own

    def write(self, path) -> None:
        origin = self.start[0] if self.names else 0.0
        spans = [
            [name, s - origin, e - origin, p, self.extra.get(i)]
            for i, (name, s, e, p) in enumerate(zip(self.names, self.start, self.end, self.parent))
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "extra"], "spans": spans},
                      fh, separators=(",", ":"))
