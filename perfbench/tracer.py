"""Span tracer used only by the benchmark's traced runs.

The tracer never edits program files: it wraps public callables from
the outside (module attributes, class methods, instance attributes),
records one span per call with a parent id, keeps every span in memory
and writes them out when the benchmark ends.

A span's parent is the span open in the same thread (a context
variable), unless the caller names a parent explicitly — the service
workload does that to hang a dispatcher thread's solve under the
request span its client thread opened.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording ------------------------------------------------------
    def open(self, name: str, parent: int | None = None, **attrs) -> Span:
        sp = Span(next(self._ids),
                  parent if parent is not None else _CURRENT.get(),
                  name, time.perf_counter(), attrs=attrs)
        with self._lock:
            self.spans.append(sp)
        return sp

    def call(self, name: str, fn, args, kwargs, parent: int | None = None,
             attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        sp = self.open(name, parent)
        token = _CURRENT.set(sp.sid)
        try:
            out = fn(*args, **kwargs)
            if attrs is not None:
                sp.attrs.update(attrs(out, *args, **kwargs))
            return out
        finally:
            sp.end = time.perf_counter()
            _CURRENT.reset(token)

    # -- patching -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, parent=None,
             attrs=None, kind=None) -> None:
        """Replace ``owner.attr`` by a traced twin until :meth:`restore`.

        ``parent(args, kwargs)`` may name an explicit parent span id;
        ``attrs(result, *args, **kwargs)`` returns span attributes;
        ``kind(args)`` returns a suffix chosen before the call (the
        cold/refresh split of the preconditioner setup).
        """
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if kind is None else f"{name}.{kind(args)}"
            pid = parent(args, kwargs) if parent is not None else None
            return self.call(label, fn, args, kwargs, pid, attrs)

        setattr(owner, attr, classmethod(traced) if is_cm else traced)
        self._undo.append((owner, attr, raw if own else None))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is None:
                delattr(owner, attr)      # was a bound method: unshadow it
            else:
                setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------
    def _children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                kids.setdefault(sp.parent, []).append(sp)
        return kids

    def span_self(self) -> dict[int, float]:
        """Self seconds per span id: the span's duration minus the union
        of its children's intervals (clipped to the span), so nested
        and cross-thread children are never counted twice."""
        kids = self._children()
        out = {}
        for sp in self.spans:
            covered, edge = 0.0, sp.start
            for ch in sorted(kids.get(sp.sid, ()), key=lambda c: c.start):
                lo, hi = max(ch.start, edge), min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[sp.sid] = sp.duration - covered
        return out

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds."""
        own = self.span_self()
        out: dict[str, dict] = {}
        for sp in self.spans:
            row = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += own[sp.sid]
        return out

    def below(self, root_name: str) -> float:
        """Summed self seconds of every span under a ``root_name`` span:
        the time the traced layers account for inside it."""
        kids, own = self._children(), self.span_self()
        todo = [sp for sp in self.spans if sp.name == root_name]
        total = 0.0
        while todo:
            for ch in kids.get(todo.pop().sid, ()):
                total += own[ch.sid]
                todo.append(ch)
        return total
