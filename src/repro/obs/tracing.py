"""Request tracing across threads, worker processes and the wire.

A :class:`Span` is one timed region with a trace id, span id, parent
id, tags and monotonic start/stop.  Spans nest through a module-level
*per-thread* stack: entering a span pushes it, exiting pops it and
attaches the finished span (as a plain dict) to its parent, so a
finished root span carries its whole subtree.  Ids are derived from the
pid and a process-local counter — no wall clock, so traced runs stay
deterministic wherever the ids land in gated output.

Crossing boundaries:

* **pipe** — the parent sends ``tracer.header()`` (a two-key dict)
  as an extra element on the worker command tuple; the worker adopts it
  (:meth:`Tracer.adopt`), runs the command under the adopted span so
  :func:`child_span` picks up decode/apply/fsync sub-spans, and ships
  the finished span dict back on the reply for the parent to
  :meth:`~Tracer.graft` into its own tree.
* **wire** — the client puts the same header under a ``"trace"`` key in
  the request's JSON message header; the server adopts it and echoes
  the trace id in the reply header.

When tracing is disabled (the default), :meth:`Tracer.span` returns a
shared no-op singleton and :func:`child_span` returns it too — the
fast path is one attribute test, which is what keeps the throughput
bench within the ≤2% overhead bound.

``REPRO_TRACE=1`` enables tracing process-wide; ``REPRO_SLOW_OP_MS``
sets the slow-op threshold (any finished *root* span at or over it is
rendered into the slow-op log).
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

#: Environment switches (documented in the README's Observability section).
TRACE_ENV = "REPRO_TRACE"
SLOW_OP_ENV = "REPRO_SLOW_OP_MS"

#: Wire/pipe trace-header keys — two short strings so the header stays
#: a handful of bytes on either transport.
HEADER_TRACE = "trace"
HEADER_SPAN = "span"

_IDS = itertools.count(1)
_LOCAL = threading.local()


def _stack() -> list:
    try:
        return _LOCAL.stack
    except AttributeError:
        stack = _LOCAL.stack = []
        return stack


def current_span() -> Optional["Span"]:
    """The innermost live span on *this thread*, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


def _next_span_id() -> str:
    return "%x-%x" % (os.getpid(), next(_IDS))


class _NullSpan:
    """The shared do-nothing span every disabled call site receives."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, _name: str, _value: object) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One timed region of one request; context manager."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "tags",
                 "started", "ended", "children", "_tracer", "_parent")

    def __init__(self, tracer: "Tracer", name: str,
                 parent: Optional["Span"] = None,
                 trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None,
                 tags: Optional[Dict[str, object]] = None) -> None:
        self.span_id = _next_span_id()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = trace_id or ("t" + self.span_id)
            self.parent_id = parent_id
        self.name = name
        self.tags = dict(tags) if tags else {}
        self.started = perf_counter()
        self.ended: Optional[float] = None
        self.children: List[dict] = []
        self._tracer = tracer
        self._parent = parent

    def tag(self, name: str, value: object) -> "Span":
        self.tags[name] = value
        return self

    @property
    def duration_ms(self) -> float:
        ended = self.ended if self.ended is not None else perf_counter()
        return (ended - self.started) * 1000.0

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ms": round(self.duration_ms, 3),
            "tags": self.tags,
            "children": self.children,
        }

    def __enter__(self) -> "Span":
        _stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        self.finish()
        return False

    def finish(self) -> None:
        if self.ended is not None:  # idempotent — explicit finish + __exit__
            return
        self.ended = perf_counter()
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if self._parent is not None:
            self._parent.children.append(self.to_dict())
        else:
            self._tracer._record_root(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%s trace=%s %.3fms)" % (self.name, self.trace_id,
                                             self.duration_ms)


class Tracer:
    """Span factory plus the bounded ring of recent finished traces.

    ``counters`` holds the deterministic accounting the baseline gates:
    ``spans`` (created here, roots and local children), ``adopted``
    (spans continuing a foreign trace id), ``crossings`` (worker
    commands that carried a trace header), ``worker_spans`` (finished
    worker span dicts grafted back), ``slow_ops`` (root spans at or
    over the slow threshold).
    """

    def __init__(self, enabled: bool = False, ring: int = 64,
                 slow_ms: Optional[float] = None,
                 slow_log: int = 128) -> None:
        self.enabled = enabled
        self.counters: Dict[str, int] = {
            "spans": 0, "adopted": 0, "crossings": 0,
            "worker_spans": 0, "slow_ops": 0,
        }
        self.ring: deque = deque(maxlen=ring)
        if slow_ms is None:
            raw = os.environ.get(SLOW_OP_ENV, "")
            slow_ms = float(raw) if raw else float("inf")
        self.slow_ms = slow_ms
        self.slow_log: deque = deque(maxlen=slow_log)

    @classmethod
    def from_env(cls, default_enabled: bool = False) -> "Tracer":
        raw = os.environ.get(TRACE_ENV, "")
        enabled = default_enabled or raw not in ("", "0")
        return cls(enabled=enabled)

    # ------------------------------------------------------------------ #
    # Span creation
    # ------------------------------------------------------------------ #

    def span(self, name: str,
             tags: Optional[Dict[str, object]] = None):
        """A child of this thread's current span (or a new root)."""
        if not self.enabled:
            return NULL_SPAN
        self.counters["spans"] += 1
        return Span(self, name, parent=current_span(), tags=tags)

    def adopt(self, header: Optional[dict], name: str,
              tags: Optional[Dict[str, object]] = None):
        """Continue a foreign trace from a pipe/wire header.

        The adopted span is a *local* root (it lands in this tracer's
        ring when it finishes) but keeps the remote trace id and points
        its parent id at the remote span, so the two sides of the
        crossing stitch into one tree.
        """
        if not self.enabled:
            return NULL_SPAN
        if not header:
            return self.span(name, tags)
        self.counters["spans"] += 1
        self.counters["adopted"] += 1
        return Span(self, name, parent=None,
                    trace_id=header.get(HEADER_TRACE),
                    parent_id=header.get(HEADER_SPAN), tags=tags)

    # ------------------------------------------------------------------ #
    # Crossing glue
    # ------------------------------------------------------------------ #

    def header(self) -> Optional[dict]:
        """The propagation header for this thread's current span."""
        if not self.enabled:
            return None
        span = current_span()
        if span is None:
            return None
        return {HEADER_TRACE: span.trace_id, HEADER_SPAN: span.span_id}

    def note_crossing(self, count: int = 1) -> None:
        self.counters["crossings"] += count

    def graft(self, span_dicts: Sequence[dict]) -> None:
        """Attach finished worker span dicts under the current span."""
        if not span_dicts:
            return
        self.counters["worker_spans"] += len(span_dicts)
        span = current_span()
        if span is not None:
            span.children.extend(span_dicts)
        else:
            for entry in span_dicts:
                self.ring.append(entry)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _record_root(self, span: Span) -> None:
        entry = span.to_dict()
        self.ring.append(entry)
        if span.duration_ms >= self.slow_ms:
            self.counters["slow_ops"] += 1
            self.slow_log.append(entry)

    def traces(self) -> List[dict]:
        """Recent finished root spans, oldest first."""
        return list(self.ring)

    def slow_ops(self) -> List[dict]:
        return list(self.slow_log)

    def snapshot(self) -> Dict[str, int]:
        """The deterministic counter view, ``telemetry.``-ready."""
        return dict(self.counters)


#: The process-wide disabled tracer: every call is the no-op fast path.
NULL_TRACER = Tracer(enabled=False)


def child_span(name: str, tags: Optional[Dict[str, object]] = None):
    """A child of this thread's current span, from *any* layer.

    Lets deep call sites (op-log fsync, structure apply) trace themselves
    without holding a tracer reference: when no span is active — the
    overwhelmingly common case — this is one TLS read and returns the
    shared no-op span.
    """
    parent = current_span()
    if parent is None:
        return NULL_SPAN
    tracer = parent._tracer
    tracer.counters["spans"] += 1
    return Span(tracer, name, parent=parent, tags=tags)


def run_under(span, fn: Callable, *args, **kwargs):
    """Call ``fn`` with ``span`` as this thread's current span.

    The bridge for work handed to another thread (the server's executor
    calls): the target thread's TLS stack gets the span for the
    duration, so spans the engine opens inside land in the right tree.
    """
    if span is NULL_SPAN or span is None:
        return fn(*args, **kwargs)
    stack = _stack()
    stack.append(span)
    try:
        return fn(*args, **kwargs)
    finally:
        if stack and stack[-1] is span:
            stack.pop()


def render_trace(entry: dict, indent: str = "") -> str:
    """One span dict (with children) as an indented text tree."""
    tags = entry.get("tags") or {}
    tag_text = ""
    if tags:
        tag_text = " {%s}" % ", ".join(
            "%s=%s" % (key, tags[key]) for key in sorted(tags))
    lines = ["%s%s %.3fms%s" % (indent, entry.get("name", "?"),
                                entry.get("ms", 0.0), tag_text)]
    if indent == "":
        lines[0] = "trace %s: %s" % (entry.get("trace", "?"), lines[0])
    for child in entry.get("children", ()):
        lines.append(render_trace(child, indent + "  "))
    return "\n".join(lines)
