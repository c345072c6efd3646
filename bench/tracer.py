"""In-memory spans recorded around the calls one layer makes into another.

A span is ``[name, start, end, parent, run]``; ``parent`` is the index of the
enclosing span (-1 at the top) and ``run`` the pass it belongs to.  The layer
of a span is its name up to the first dot.  Spans come from the benchmark's
own files: either around a call the benchmark makes, or from a wrapper put in
place of a name that one module looks up in another module's namespace.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

from stats import union_length


class BoundaryMissing(RuntimeError):
    """A traced name no longer exists in the module that should hold it."""


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name)
        if attrs:
            self.attrs[idx] = attrs
        try:
            yield idx
        finally:
            self._close(idx)

    def note(self, idx: int, **attrs) -> None:
        self.attrs.setdefault(idx, {}).update(attrs)

    def wrap(self, module_name: str, attr: str, name: str, hook=None) -> None:
        """Record a span named ``name`` around every call through
        ``module_name.attr``.  ``hook(tracer, idx, args, kwargs, result)``
        runs after a call returns, to note counts on its span."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            raise BoundaryMissing(
                f"traced boundary {module_name}.{attr} does not exist or is not callable"
            )
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                result = original(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, boundaries):
        """Wrap every ``(module, attr, name, hook)`` boundary for a block."""
        try:
            for module_name, attr, name, hook in boundaries:
                self.wrap(module_name, attr, name, hook)
            yield self
        finally:
            self.unwrap_all()


class NullTracer:
    """Stands in for a tracer in untraced passes; records nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield -1


NULL = NullTracer()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        kids = children.get(idx)
        covered = 0.0
        if kids:
            covered = union_length(
                (max(spans[k][1], start), min(spans[k][2], end)) for k in kids
            )
        out.append((end - start) - covered)
    return out


def has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def ancestor_index(spans, idx: int, name: str) -> int:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return -1
