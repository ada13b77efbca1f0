"""Span tracer that wraps a package's public functions from outside.

`Tracer.install(modules)` replaces every public function of each module, and
every public method of each class the module defines, with a wrapper that
records one span per call: the callee's name, start and end on the
`perf_counter` clock, and the index of the enclosing span (-1 at top level).
Spans stay in memory; `uninstall` puts the original objects back.

Only calls that look the callee up through its module or class attribute are
seen.  Private helpers (leading underscore) run inside their caller's span.
"""

from __future__ import annotations

import functools
import inspect
import time

# the dataclass constructor of the diagnostics tables is set-up work worth a span
EXTRA_METHODS = {"DiagnosticsContext": ("__init__",)}


class Tracer:
    def __init__(self, values=None):
        # values: span name -> function(args, kwargs) giving a number kept with the span
        self.values = values or {}
        self.names = []           # span name per span
        self.start = []
        self.end = []
        self.parent = []
        self.value = []
        self._stack = []
        self._saved = []          # (owner, attribute, original object)

    # -- installation -------------------------------------------------------
    def install(self, modules):
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, BaseException):
                        self._install_class(obj, f"{short}.{attr}")
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    self._patch(mod, attr, obj, self._wrap(f"{short}.{attr}", obj))

    def _install_class(self, cls, prefix):
        extra = EXTRA_METHODS.get(cls.__name__, ())
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, obj, type(obj)(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, obj, self._wrap(name, obj))

    def _patch(self, owner, attr, original, replacement):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        get_value = self.values.get(name)
        names, start, end, parent, value = self.names, self.start, self.end, self.parent, self.value
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            value.append(get_value(args, kwargs) if get_value else None)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    # -- reduction ----------------------------------------------------------
    def mark(self) -> int:
        """Index of the next span; spans from here on belong to a later phase."""
        return len(self.names)

    def spans(self, first: int = 0, last: int | None = None) -> "SpanTable":
        return SpanTable(self, first, len(self.names) if last is None else last)


class SpanTable:
    """Read-only view of the spans recorded in [first, last)."""

    def __init__(self, tracer: Tracer, first: int, last: int):
        self.first, self.last = first, last
        self.names = tracer.names
        self.start = tracer.start
        self.end = tracer.end
        self.parent = tracer.parent
        self.value = tracer.value
        child = {}
        by_name = {}
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p] = child.get(p, 0.0) + self.end[i] - self.start[i]
            by_name.setdefault(self.names[i], []).append(i)
        self._child_time = child
        self._by_name = by_name

    def indices(self, name):
        return self._by_name.get(name, [])

    def duration(self, i) -> float:
        return self.end[i] - self.start[i]

    def self_time(self, i) -> float:
        return self.duration(i) - self._child_time.get(i, 0.0)

    def has_child(self, i) -> bool:
        return i in self._child_time

    def outermost(self, names):
        """Spans with one of `names` that no other span with one of `names` encloses."""
        names = set(names)
        out = []
        for name in names:
            for i in self.indices(name):
                p = self.parent[i]
                while p >= self.first and self.names[p] not in names:
                    p = self.parent[p]
                if p < self.first:
                    out.append(i)
        return out

    def ancestor(self, i, name):
        """Index of the nearest enclosing span called `name`, or -1."""
        p = self.parent[i]
        while p >= 0 and self.names[p] != name:
            p = self.parent[p]
        return p

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(self.duration(i) for i in range(self.first, self.last) if self.parent[i] < 0)

    def names_seen(self):
        return list(self._by_name)
