"""Nestable named spans: wall time, monotonic order, parent links.

A *span* is one timed region of solver work. Spans nest: a thread-local
stack links each span to its enclosing one, so a trace reconstructs the
call-tree shape of a run (phase-1 LP inside the solve, ratio-oracle
solves inside the bicameral sweep, ...). Usable both ways::

    with span("krsp.phase1"):
        ...

    @span("search.bicameral")
    def find_bicameral_cycle(...):
        ...

When no telemetry session is active (:func:`repro.obs.session`), entering
a span records nothing and costs one attribute read — instrumentation
left in hot paths is free while tracing is disabled.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import _state


@dataclass(frozen=True)
class SpanRecord:
    """One closed span.

    Attributes
    ----------
    name:
        Dotted span name (taxonomy in docs/OBSERVABILITY.md).
    span_id:
        Process-global id (also a valid sequence number).
    parent_id:
        Enclosing span's id, or ``None`` for a root span.
    seq:
        Monotonic open-order sequence number (equal to ``span_id``).
    start:
        ``time.perf_counter()`` at open (session-relative on serialization).
    duration:
        Wall seconds between open and close.
    """

    name: str
    span_id: int
    parent_id: int | None
    seq: int
    start: float
    duration: float


class span:
    """Context manager *and* decorator marking one named timed region.

    Re-entrant and reusable: each ``with`` entry opens a fresh span, and
    decorating a function opens one per call.
    """

    __slots__ = ("name", "_open")

    def __init__(self, name: str) -> None:
        self.name = name
        self._open: tuple[int, int | None, float] | None = None

    def __enter__(self) -> "span":
        if not _state._SESSIONS:  # fast path: tracing disabled
            self._open = None
            return self
        sid = _state.next_seq()
        stack = _state.SPAN_STACK.open
        parent = stack[-1] if stack else None
        stack.append(sid)
        self._open = (sid, parent, time.perf_counter())
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._open is None:
            return False
        sid, parent, start = self._open
        self._open = None
        duration = time.perf_counter() - start
        stack = _state.SPAN_STACK.open
        if stack and stack[-1] == sid:
            stack.pop()
        elif sid in stack:  # pragma: no cover - misnested close
            stack.remove(sid)
        record = SpanRecord(
            name=self.name,
            span_id=sid,
            parent_id=parent,
            seq=sid,
            start=start,
            duration=duration,
        )
        for tel in _state._SESSIONS:
            tel.spans.append(record)
            tel.observe_hist(self.name, duration)
        return False

    def __call__(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(self.name):
                return fn(*args, **kwargs)

        return wrapper


def current_span_id() -> int | None:
    """Id of the innermost open span on this thread (``None`` outside)."""
    stack = _state.SPAN_STACK.open
    return stack[-1] if stack else None
