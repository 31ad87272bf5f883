"""Span recording around the program's public calls.

The benchmark wraps public methods of ``repro`` classes for the length
of a traced run (:meth:`Tracer.install`) and restores them afterwards;
no file under ``src/`` is touched.  Each call becomes a :class:`Span`
(name, start, end, parent span, request id, thread).  The parent is the
innermost open span on the calling thread, or, on a thread with no open
span, the innermost open span of the tracer's ambient thread — how a
solver fallback running on a pool thread points back at the rollout
that caused it.

Spans stay in memory until :meth:`Tracer.export` writes them as JSONL
and as Chrome trace-event JSON (opens in Perfetto and chrome://tracing).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float                    # perf_counter seconds
    end: float
    parent: Optional[int]
    request_id: Optional[str]
    thread: str
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One public method to wrap: ``owner.attr`` recorded as ``name``.

    ``request_id(args)`` labels the span from the call's arguments and
    ``on_return(span_args, args, result)`` adds fields read from the
    result; both run outside the timed interval of the span.
    """

    owner: type
    attr: str
    name: str
    request_id: Optional[Callable] = None
    on_return: Optional[Callable] = None


class Tracer:
    """Records spans; ``ambient_thread`` (optional) parents spans opened
    on threads with no open span of their own."""

    def __init__(self, ambient_thread: Optional[threading.Thread] = None):
        self.spans: List[Span] = []
        self._stacks: Dict[int, List[int]] = {}
        self._ambient = ambient_thread.ident if ambient_thread else None
        self._lock = threading.Lock()
        self._next = 0

    def call(self, target: Target, fn, args, kwargs):
        with self._lock:
            span_id = self._next
            self._next += 1
            stack = self._stacks.setdefault(threading.get_ident(), [])
            ambient = self._stacks.get(self._ambient)
            parent = stack[-1] if stack else (
                ambient[-1] if ambient else None)
        rid = target.request_id(args) if target.request_id else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(span_id, target.name, start, end, parent, rid,
                    threading.current_thread().name)
        if target.on_return is not None:
            target.on_return(span.args, args, result)
        with self._lock:
            self.spans.append(span)
        return result

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(target, fn, args, kwargs)
        return wrapper

    def install(self, targets: Sequence[Target]) -> Callable[[], None]:
        """Wrap every target; returns the function that unwraps them."""
        saved: List[Tuple[type, str, object]] = []
        for t in targets:
            orig = t.owner.__dict__[t.attr]
            saved.append((t.owner, t.attr, orig))
            setattr(t.owner, t.attr, self._wrap(t, orig))

        def restore() -> None:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
        return restore

    # -- analysis --------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_seconds(self, span: Span,
                     children: Dict[int, List[Span]]) -> float:
        """Duration minus the part of it that child spans cover (the
        union of their intervals, clipped to this span)."""
        covered, hi = 0.0, span.start
        for c in sorted(children.get(span.span_id, ()),
                        key=lambda c: c.start):
            lo, end = max(c.start, hi), min(c.end, span.end)
            if end > lo:
                covered += end - lo
                hi = end
        return span.seconds - covered

    def self_table(self) -> List[Tuple[str, int, float, float]]:
        """Per span name: (name, calls, total ms, self ms)."""
        kids = self.children()
        rows: Dict[str, List[float]] = {}
        for s in self.spans:
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += 1e3 * s.seconds
            row[2] += 1e3 * self.self_seconds(s, kids)
        return sorted(((k, int(v[0]), v[1], v[2]) for k, v in rows.items()),
                      key=lambda r: -r[3])

    # -- export ----------------------------------------------------------
    def export(self, directory: Path, stem: str) -> Tuple[Path, Path]:
        """Write ``<stem>.spans.jsonl`` and ``<stem>.trace.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s.start)
        t0 = spans[0].start if spans else 0.0
        jsonl = directory / f"{stem}.spans.jsonl"
        with jsonl.open("w") as fh:
            for s in spans:
                fh.write(json.dumps(asdict(s), default=str) + "\n")
        tids: Dict[str, int] = {}
        events = []
        for s in spans:
            tid = tids.setdefault(s.thread, len(tids) + 1)
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": 1e6 * (s.start - t0), "dur": 1e6 * s.seconds,
                "pid": 1, "tid": tid,
                "args": dict(s.args, span_id=s.span_id, parent=s.parent,
                             request_id=s.request_id)})
        for name, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": name}})
        chrome = directory / f"{stem}.trace.json"
        chrome.write_text(json.dumps({"traceEvents": events,
                                      "displayTimeUnit": "ms"},
                                     default=str))
        return jsonl, chrome
