"""In-memory spans recorded from outside the program.

The benchmark never edits the program.  It measures a layer by replacing
one of the layer's public entry points with a wrapper, at the place the
caller looks the name up (a module global such as
``repro.core.pipeline.select_sketch``, or a class attribute such as
``CascadingAnalysts.solve_batch``), and restoring the original afterwards.

Each wrapper records a :class:`Span`: name, start, end, parent and the id of
the end-to-end operation (``root``) it belongs to.  The current span lives in
a context variable, which ``QueryScheduler`` already copies into its pool
threads, so spans recorded on a query thread attach to the request that
submitted them.  The one hop no context variable crosses, client thread to
HTTP handler thread, is bridged with :meth:`Tracer.link`.

Spans are kept in a list and written out only when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, TextIO


class Span:
    """One timed call into a layer."""

    __slots__ = ("sid", "name", "parent", "root", "start", "end", "attrs")

    def __init__(self, sid: int, name: str, parent: "Span | None"):
        self.sid = sid
        self.name = name
        self.parent = parent.sid if parent is not None else None
        self.root = parent.root if parent is not None else sid
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "root": self.root,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans around wrapped entry points; inert until used."""

    def __init__(self):
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._links: dict[tuple, Span] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(
        self, name: str, parent: Span | None = None, root: bool = False
    ) -> Iterator[Span]:
        """Time the enclosed block as a child of ``parent`` (default: the
        current span); ``root=True`` starts a new operation tree instead."""
        if parent is None and not root:
            parent = self._current.get()
        record = Span(next(self._ids), name, parent)
        token = self._current.set(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(record)

    def link(self, key: tuple, span: Span) -> None:
        """Make the handler-side span keyed ``key`` a child of ``span``."""
        with self._lock:
            self._links[key] = span

    def linked(self, key: tuple) -> Span | None:
        with self._lock:
            return self._links.pop(key, None)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        record: Callable | None = None,
        parent_of: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`unwrap_all`.

        ``record(span, args, kwargs, result)`` may add work counts to the
        span; ``parent_of(args, kwargs)`` may name the parent span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = parent_of(args, kwargs) if parent_of is not None else None
            with self.span(name, parent) as record_span:
                result = original(*args, **kwargs)
                if record is not None:
                    record(record_span, args, kwargs, result)
                return result

        self._install(owner, attr, wrapper)

    def wrap_chunks(self, owner: object, attr: str, name: str) -> None:
        """Wrap a generator method: one span per ``next()``, counting rows."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                with tracer.span(name) as record_span:
                    try:
                        chunk = next(iterator)
                    except StopIteration:
                        record_span.attrs.update(rows=0, chunks=0)
                        return
                    record_span.attrs.update(rows=chunk.n_rows, chunks=1)
                yield chunk

        self._install(owner, attr, wrapper)

    def _install(self, owner: object, attr: str, wrapper: Callable) -> None:
        # Keep the raw attribute (a function, not a bound method) so the
        # restore puts back exactly what was there.
        raw = vars(owner)[attr]
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def write_to(self, handle: TextIO) -> None:
        """Write every span as one JSON line, grouped by operation."""
        for record in sorted(self.spans, key=lambda s: (s.root, s.start)):
            handle.write(json.dumps(record.as_json()) + "\n")


class SpanIndex:
    """Parent/child lookups and self times over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {span.sid: span for span in spans}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def ancestors(self, span: Span) -> Iterator[Span]:
        parent = self.by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent) if parent.parent is not None else None

    def has_ancestor(self, span: Span, name: str) -> bool:
        return any(ancestor.name == name for ancestor in self.ancestors(span))

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in self.children.get(span.sid, ())
        )
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered
