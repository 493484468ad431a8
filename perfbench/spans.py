"""Spans around calls into heislab, recorded from outside the program.

A span wraps one function as a module looks it up (``heislab.lsi`` calls
``heislab.lsi.lsi_ratio``, so that is the attribute to replace) and records
its wall time and its self time: the wall time minus the part covered by
spans started inside it.  Spans live in memory until the round ends.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = defaultdict(list)  # name -> [(wall_s, self_s, info), ...]
        self._stack = []
        self._patched = []

    def span(self, name, fn, info=None):
        """`fn` wrapped so every call records a span; `info(args, kwargs, result)`
        may attach a small summary of the call."""

        def wrapper(*args, **kwargs):
            inner = [0.0]
            self._stack.append(inner)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += wall
            self.spans[name].append((wall, wall - inner[0], info(args, kwargs, result) if info else None))
            return result

        return wrapper

    def replace(self, module, attr, wrap):
        """Set `module.attr` to `wrap(original)` until `restore()`."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def patch(self, module, attr, name, info=None):
        """Replace `module.attr` by a span until `restore()`."""
        self.replace(module, attr, lambda fn: self.span(name, fn, info))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def walls(self, name):
        return [wall for wall, _, _ in self.spans.get(name, ())]

    def selfs(self, name):
        return [own for _, own, _ in self.spans.get(name, ())]

    def infos(self, name):
        return [info for _, _, info in self.spans.get(name, ())]
