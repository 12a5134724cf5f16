"""In-memory spans around calls into ldlog's public functions.

The benchmark wraps the functions it calls itself, and swaps the names the
engine resolves at call time (`ldlog.solver.unify_atoms`,
`ldlog.oracle.saturate`, ...) for traced versions while a traced pass
runs. Nothing inside `src/ldlog` is changed.

A span records its name, start, end, parent and query id. `unify_atoms`
runs millions of times, so its calls, hits and time are added to the
enclosing span instead of getting spans of their own. A span's self time
is its duration minus its children's durations minus that unify time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "child_s", "unify_calls", "unify_hits", "unify_s", "size")

    def __init__(self, name: str, parent: Optional["Span"], query: Optional[str]):
        self.name = name
        self.parent = parent
        self.query = query
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.unify_calls = 0
        self.unify_hits = 0
        self.unify_s = 0.0
        self.size = None  # result size, for spans that record one

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.unify_s


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.query: Optional[str] = None
        self._stack: List[Span] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.query)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """fn inside a span; size(result), if given, is stored on the span."""

        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if size is not None:
                s.size = size(result)
            return result

        return traced

    def wrap_unify(self, fn: Callable) -> Callable:
        """fn counted and timed into the enclosing span."""
        stack = self._stack

        def traced(*args, **kwargs):
            t = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t
                span = stack[-1]
                span.unify_calls += 1
                span.unify_s += dt
            if result is not None:
                span.unify_hits += 1
            return result

        return traced

    @contextmanager
    def patched(self, targets: Iterable[Tuple[object, str, Callable]]):
        """Set module attributes to traced versions; restore them on exit."""
        saved = []
        try:
            for module, attr, traced in targets:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, traced)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write every span as one JSON line, parents by index."""
        index: Dict[int, int] = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index[id(s.parent)] if s.parent is not None else None,
                    "query": s.query,
                    "self_s": s.self_s,
                    "unify_calls": s.unify_calls,
                    "unify_hits": s.unify_hits,
                    "unify_s": s.unify_s,
                }) + "\n")
