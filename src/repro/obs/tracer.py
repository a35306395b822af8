"""Span-based tracing for the solve pipeline.

A :class:`Tracer` records nested, monotonic-timestamped spans with
arbitrary attributes.  Engine code opens spans through the tracer it
owns; library code far from the engine (the noise fixpoint, checkpoint
I/O, certificate emission/checking) opens spans through the module-level
:func:`span` helper, which targets whatever tracer is *active* in the
current context (:func:`activate`) and degrades to a shared no-op when
none is.

Design constraints, in order:

* **Zero cost when disabled.**  The disabled path allocates nothing per
  span: :data:`NULL_TRACER` hands out one shared reusable context
  manager whose enter/exit do nothing, and the module-level helper
  returns the same singleton when no tracer is active.
* **Causally ordered.**  Spans are appended at *start*; parent links
  come from the tracer's open-span stack, so a span's children always
  follow it in the list and every child's interval nests inside its
  parent's.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Union


class Span:
    """One timed operation: name, interval, attributes, tree links.

    Timestamps are ``time.perf_counter()`` values in the recording
    tracer's process (seconds, monotonic).  ``worker`` labels the
    recording lane (``"main"`` for an engine, ``"service"`` for a
    service job), which becomes the thread lane in the Chrome trace
    view.
    """

    __slots__ = ("name", "span_id", "parent_id", "t0", "t1", "attrs", "worker")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        t0: float,
        worker: str = "main",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = t0
        self.t1: Optional[float] = None
        self.worker = worker
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open or closed span."""
        self.attrs.update(attrs)

    def to_json(self, epoch: float = 0.0) -> Dict[str, Any]:
        """Serialize with timestamps relative to ``epoch``."""
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "t0": self.t0 - epoch,
            "t1": None if self.t1 is None else self.t1 - epoch,
            "worker": self.worker,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Span":
        span = cls(
            name=str(data["name"]),
            span_id=int(data["id"]),
            parent_id=None if data.get("parent") is None else int(data["parent"]),
            t0=float(data["t0"]),
            worker=str(data.get("worker", "main")),
            attrs=dict(data.get("attrs", {})),
        )
        if data.get("t1") is not None:
            span.t1 = float(data["t1"])
        return span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"dur={self.duration:.6f}s, attrs={self.attrs})"
        )


class _SpanHandle:
    """Context manager opening/closing one span on its tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._start(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        assert self._span is not None
        self._tracer._end(self._span)


class _NullSpan:
    """Inert span: accepts attribute writes, records nothing."""

    __slots__ = ()
    duration = 0.0

    def set(self, **attrs: Any) -> None:
        pass


class _NullSpanHandle:
    """Reusable no-op context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        pass


NULL_SPAN = _NullSpan()
_NULL_HANDLE = _NullSpanHandle()


class Tracer:
    """Collects spans for one lane (``worker`` names it in exports).

    Spans are stored flat in start order; the parent/child links and the
    monotonic timestamps carry the tree and the timeline.
    """

    enabled = True

    def __init__(self, worker: str = "main") -> None:
        self.worker = worker
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Union[_SpanHandle, _NullSpanHandle]:
        """Open a child span of whatever span is currently open."""
        return _SpanHandle(self, name, attrs)

    def _start(self, name: str, attrs: Dict[str, Any]) -> Span:
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            t0=time.perf_counter(),
            worker=self.worker,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def _end(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        # Tolerate out-of-order exits (exceptions unwound through several
        # open spans close them innermost-first, which keeps this a pop).
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        elif span.span_id in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span.span_id)

    # -- export --------------------------------------------------------
    def export(self) -> List[Dict[str, Any]]:
        """Serialize all spans."""
        return [s.to_json() for s in self.spans]

    def roots(self) -> List[Span]:
        """Spans with no parent, in start order."""
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]


class NullTracer:
    """Disabled tracer: every call is a no-op on shared singletons."""

    enabled = False
    worker = "main"

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def span(self, name: str, **attrs: Any) -> _NullSpanHandle:
        return _NULL_HANDLE

    def export(self) -> List[Dict[str, Any]]:
        return []

    def roots(self) -> List[Span]:
        return []

    def children(self, span: Span) -> List[Span]:
        return []

    def __reduce__(self):  # a pickled engine keeps the shared singleton
        return (_get_null_tracer, ())


NULL_TRACER = NullTracer()


def _get_null_tracer() -> NullTracer:
    return NULL_TRACER


#: The context's active tracer, targeted by the module-level helpers.
_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar("repro_obs_tracer", default=None)


class _Activation:
    """Context manager installing a tracer as the context's active one."""

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer

    def __enter__(self) -> Optional[Tracer]:
        self._token = _ACTIVE.set(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE.reset(self._token)


def activate(tracer: Union[Tracer, NullTracer, None]) -> _Activation:
    """Make ``tracer`` the target of :func:`span` within the block.

    A disabled (:class:`NullTracer`) or ``None`` argument deactivates
    tracing for the block — nested library code sees no active tracer.
    """
    if tracer is not None and not tracer.enabled:
        tracer = None
    return _Activation(tracer)  # type: ignore[arg-type]


def current_tracer() -> Optional[Tracer]:
    """The active tracer of this context, or None."""
    return _ACTIVE.get()


def span(name: str, **attrs: Any) -> Union[_SpanHandle, _NullSpanHandle]:
    """Open a span on the context's active tracer (no-op when none)."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_HANDLE
    return tracer.span(name, **attrs)


def iter_tree(
    tracer: Tracer, root: Optional[Span] = None
) -> Iterator[tuple]:
    """Yield ``(depth, span)`` pairs in depth-first start order."""
    index: Dict[Optional[int], List[Span]] = {}
    for s in tracer.spans:
        index.setdefault(s.parent_id, []).append(s)
    stack = [
        (0, s)
        for s in reversed(index.get(root.span_id if root else None, []))
    ]
    while stack:
        depth, s = stack.pop()
        yield depth, s
        for child in reversed(index.get(s.span_id, [])):
            stack.append((depth + 1, child))
