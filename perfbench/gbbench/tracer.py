"""In-memory span tracer that wraps library functions from the outside.

The tracer replaces an attribute (a module-level function, a method or a
property on a class, a bound method on one instance) with a wrapper that
records one :class:`Span` per call, and puts the original back on
:meth:`Tracer.restore`.  Nothing inside ``src/`` is edited: a name is
patched *where it is looked up*, so ``repro.core.index.flatten_records``
and ``repro.sharding.planner.flatten_records`` are two patches of the same
function.

Spans form a tree through ``parent``: the innermost open span on the
calling thread.  Work a traced call hands to a thread pool can be adopted
by the calling span (``adopt_callable``) so worker-thread spans become its
children even though they run elsewhere; such children may overlap in
time, which :func:`self_times` accounts for by taking the union of the
children's intervals.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

#: Marker for "the owner had no attribute of its own under this name".
_ABSENT = object()


@dataclass
class Span:
    """One traced call: ``[start, end]`` in ``perf_counter`` seconds."""

    span_id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    request_id: int | None = None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request_id": self.request_id,
            "counts": self.counts,
        }


#: ``counter(args, kwargs, result) -> {count name: value}``; runs after the
#: call, outside the span's timed interval.
Counter = Callable[[tuple, dict, object], Mapping[str, float]]


class Tracer:
    """Collects spans in memory; patches and restores traced attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        #: Request id stamped on spans opened while it is set (serving).
        self.current_request: int | None = None

    # ----------------------------------------------------------------- spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request_id: int | None = None) -> Span:
        """Start a span under the innermost open span of this thread."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id=span_id,
            name=name,
            start=0.0,
            parent=stack[-1] if stack else None,
            request_id=self.current_request if request_id is None else request_id,
        )
        stack.append(span_id)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def record(
        self, name: str, start: float, end: float, request_id: int | None = None
    ) -> Span:
        """Add a span measured by the caller (e.g. an awaited request)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(span_id, name, start, end, None, request_id)
            self.spans.append(span)
        return span

    def adopt_callable(self, fn: Callable) -> Callable:
        """Wrap ``fn`` so spans it opens on any thread parent to the open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            return fn

        def adopted(*args, **kwargs):
            worker_stack = self._stack()
            worker_stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                worker_stack.pop()

        return adopted

    # -------------------------------------------------------------- patching
    def _wrap(
        self, fn: Callable, name: str, counter: Counter | None, adopt: bool
    ) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if adopt:
                    args = tuple(
                        tracer.adopt_callable(a) if callable(a) else a for a in args
                    )
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _install(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, replacement)

    def patch(
        self,
        owner: object,
        attribute: str,
        name: str,
        counter: Counter | None = None,
        adopt: bool = False,
    ) -> None:
        """Trace ``owner.attribute`` (a function or method) as span ``name``.

        ``adopt`` makes callables passed positionally run as children of
        the span, whichever thread runs them (executor ``map``).
        """
        raw = vars(owner).get(attribute, _ABSENT)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name, counter, adopt))
        else:
            wrapped = self._wrap(getattr(owner, attribute), name, counter, adopt)
        self._install(owner, attribute, wrapped)

    def patch_property(
        self, owner: type, attribute: str, name: str, counter: Counter | None = None
    ) -> None:
        """Trace reads of a property defined on (or inherited by) ``owner``."""
        prop = getattr(owner, attribute)
        if not isinstance(prop, property):
            raise TypeError(f"{owner.__name__}.{attribute} is not a property")
        getter = self._wrap(prop.fget, name, counter, adopt=False)
        self._install(owner, attribute, property(getter, prop.fset, prop.fdel, prop.__doc__))

    def restore(self) -> None:
        """Put every patched attribute back, most recent patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self) -> list[dict]:
        """Every recorded span as a plain dict (for writing out at the end)."""
        with self._lock:
            return [span.as_dict() for span in self.spans]


# ---------------------------------------------------------------- analysis
def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: its duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def aggregate(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time ``s``, ``calls`` and summed counts."""
    spans = list(spans)
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"s": 0.0, "calls": 0, "total_s": 0.0})
        row["s"] += own[span.span_id]
        row["total_s"] += span.duration
        row["calls"] += 1
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
    return table
