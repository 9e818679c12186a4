"""Thread-aware span tracer that wraps functions at their call-site bindings.

A span records one call: its id, its parent's id, the thread it ran on, its
name, wall-clock start and end (``time.perf_counter``) and the thread's CPU
clock at both ends (``time.thread_time``), so busy time and time spent
waiting (wall minus thread CPU, mostly the GIL or I/O) stay apart.

Each thread keeps its own stack of open spans, so a span's parent is the
innermost span open on the same thread. A span that opens on an empty stack
while another thread has a root span open (a worker of a thread pool) takes
that root as its parent. Spans are kept in memory and written once, by
``Tracer.write``, after the traced work ends.

Wrapping happens where the caller looks the name up: a module that did
``from .recovery import cosamp`` calls its own binding, so the tracer must
patch ``congo.optimizers.cosamp``, not ``congo.recovery.cosamp``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    attrs: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start

    @property
    def wait(self) -> float:
        return max(0.0, self.duration - self.cpu)


@dataclass(frozen=True)
class Target:
    """One call-site binding to wrap: ``owner.attr`` becomes span ``name``.

    ``observe`` maps the call's return value to the span's attrs, which is
    how counts (departures, clipped estimates, queries) are recorded at the
    same boundary as the time.
    """

    owner: Any
    attr: str
    name: str
    observe: Callable[[Any], Any] | None = None


class Tracer:
    """Collects a span for every call of the functions it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, observe: Callable[[Any], Any] | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            is_root = False
            if stack:
                parent = stack[-1]
            elif tracer._root is not None:
                parent = tracer._root
            else:
                parent, is_root = None, True
                tracer._root = sid
            stack.append(sid)
            ok = False
            cpu_start = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                cpu_end = time.thread_time()
                stack.pop()
                if is_root:
                    tracer._root = None
                attrs = observe(result) if ok and observe is not None else None
                tracer.spans.append(
                    Span(sid, parent, threading.get_ident(), name, start, end, cpu_start, cpu_end, attrs)
                )
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore it.

        A target whose binding no longer exists is skipped and named in
        ``self.missing``: its layer then reads 0 calls instead of stopping
        the benchmark after a refactor renames or removes a function.
        """
        saved = []
        try:
            for target in targets:
                original = vars(target.owner).get(target.attr)
                if original is None:
                    self.missing.append(f"{target.owner.__name__}.{target.attr}")
                    continue
                saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, self.wrap(target.name, original, target.observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one CSV row; attrs are JSON text."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "thread", "name", "start_s", "end_s", "cpu_start_s", "cpu_end_s", "attrs"))
            for s in self.spans:
                writer.writerow((
                    s.sid, "" if s.parent is None else s.parent, s.thread, s.name,
                    repr(s.start), repr(s.end), repr(s.cpu_start), repr(s.cpu_end),
                    "" if s.attrs is None else json.dumps(s.attrs),
                ))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children on other threads may overlap one another, so their intervals
    are merged before they are subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out
