"""In-memory span recorder for the traced benchmark run.

Spans are kept in a list and written out once the run ends. Each has an
id, the id of the span that was open around it in the same thread (or the
pass root, for spans opened in the pipeline's pool threads), a name, its
start and end on ``time.perf_counter``, and the number of the pass it
belongs to, which all spans of one pass share.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    trace: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace = 0
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic, so pool threads may record concurrently
            self.spans.append(Span(sid, parent, name, start, end, self.trace))

    @contextmanager
    def trace_root(self, trace: int, name: str = "pass"):
        """Open the root span of one pass; spans without an open parent attach to it."""
        self.trace = trace
        with self.span(name) as sid:
            self.root = sid
            try:
                yield sid
            finally:
                self.root = None


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.id] = s.duration - covered
    return out


def write_jsonl(spans, path) -> None:
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({**asdict(s), "self": selfs[s.id]}) + "\n")
