"""Nested span tracing with wall and CPU time, and the one span tree.

A *span* is one timed region of the pipeline (``stage1``, ``stage2.
transfer``, ``simulator.run`` ...).  Spans nest: the tracer keeps a stack,
so each finished :class:`SpanRecord` knows its depth.  Records are kept
in finish order and written to traces by :func:`span_event`.

:class:`SpanTree` is the only place parents and self times are derived.
Spans finish in post-order, so finish order and depth suffice: a span at
depth ``d`` adopts every pending span deeper than ``d``.  It reads
records and span events alike (ignoring the ``parent`` field older
traces carry), and every span view -- the ``--metrics`` tree, the
profile's span rows, the collapsed/speedscope exports and the trace
summary -- reads it.

Wall time uses :func:`time.perf_counter`; CPU time uses
:func:`time.process_time`, so a span that mostly sleeps (or waits on a
lossy-network retransmission timer in simulated time) shows wall >> CPU.

:class:`NullSpanTracer` is the disabled backend: ``span(...)`` returns a
shared no-op context manager, so wrapping a region costs two method calls
and zero allocation when tracing is off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SpanRecord",
    "SpanTotals",
    "SpanTracer",
    "SpanTree",
    "NullSpanTracer",
    "span_event",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        Dotted region name, e.g. ``"stage2.transfer"``.
    depth:
        Nesting depth (0 for roots).
    wall_s / cpu_s:
        Elapsed :func:`time.perf_counter` / :func:`time.process_time`.
    start_s:
        The :func:`time.perf_counter` reading at span entry.  Only
        differences between ``start_s`` values within one process are
        meaningful; the Chrome-trace exporter uses them to lay spans on
        a real timeline.
    """

    name: str
    depth: int
    wall_s: float
    cpu_s: float
    start_s: float = 0.0


def span_event(record: SpanRecord) -> Dict[str, Any]:
    """The ``span`` event a finished record is written as."""
    return {
        "event": "span",
        "name": record.name,
        "depth": record.depth,
        "wall_s": record.wall_s,
        "cpu_s": record.cpu_s,
        "start_s": record.start_s,
    }


@dataclass(frozen=True)
class SpanTotals:
    """Aggregate of the spans sharing one name or one stack path."""

    name: str
    count: int
    wall_s: float
    cpu_s: float
    self_s: float


class SpanTree:
    """Finished spans rebuilt into a forest from finish order and depth.

    Attributes
    ----------
    records:
        The spans, in finish order.
    children:
        ``children[i]`` -- indices of span ``i``'s direct children, in
        finish order.
    roots:
        Indices of the spans no later span adopted, in finish order.
    self_s:
        ``self_s[i]`` -- span ``i``'s wall time minus its direct
        children's, clamped at 0 (clock granularity can make children
        measure longer than their parent).
    """

    def __init__(self, records: Iterable[SpanRecord]) -> None:
        self.records: List[SpanRecord] = list(records)
        self.children: List[List[int]] = []
        pending: List[int] = []
        for index, record in enumerate(self.records):
            adopted: List[int] = []
            while pending and self.records[pending[-1]].depth > record.depth:
                adopted.append(pending.pop())
            adopted.reverse()
            self.children.append(adopted)
            pending.append(index)
        self.roots: List[int] = pending
        self.self_s: List[float] = [
            max(record.wall_s - sum(self.records[c].wall_s for c in kids), 0.0)
            for record, kids in zip(self.records, self.children)
        ]

    @classmethod
    def from_events(cls, events: Iterable[Dict[str, Any]]) -> "SpanTree":
        """The tree of the ``span`` events in a trace (others skipped)."""
        return cls(
            SpanRecord(
                name=str(event.get("name", "span")),
                depth=int(event.get("depth", 0)),
                wall_s=float(event.get("wall_s", 0.0)),
                cpu_s=float(event.get("cpu_s", 0.0)),
                start_s=float(event.get("start_s", 0.0)),
            )
            for event in events
            if event.get("event") == "span"
        )

    def _totals(self, name: str, group: List[int]) -> SpanTotals:
        return SpanTotals(
            name=name,
            count=len(group),
            wall_s=sum(self.records[i].wall_s for i in group),
            cpu_s=sum(self.records[i].cpu_s for i in group),
            self_s=sum(self.self_s[i] for i in group),
        )

    def by_path(self) -> Dict[Tuple[str, ...], SpanTotals]:
        """Totals per stack path (root name first).

        Sibling spans sharing a name merge, and so do their subtrees, so
        each path appears once however many solves ran.  The mapping is
        in pre-order, siblings in first-finish order.
        """
        paths: Dict[Tuple[str, ...], SpanTotals] = {}

        def visit(path: Tuple[str, ...], nodes: List[int]) -> None:
            groups: Dict[str, List[int]] = {}
            for index in nodes:
                groups.setdefault(self.records[index].name, []).append(index)
            for name, group in groups.items():
                paths[path + (name,)] = self._totals(name, group)
                visit(
                    path + (name,),
                    [child for index in group for child in self.children[index]],
                )

        visit((), self.roots)
        return paths

    def by_name(self) -> List[SpanTotals]:
        """Totals per span name, by descending self time, ties by name."""
        groups: Dict[str, List[int]] = {}
        for index, record in enumerate(self.records):
            groups.setdefault(record.name, []).append(index)
        return sorted(
            (self._totals(name, group) for name, group in groups.items()),
            key=lambda totals: (-totals.self_s, totals.name),
        )


class _ActiveSpan:
    """Context manager for one running span (internal)."""

    __slots__ = ("_tracer", "name", "depth", "_wall0", "_cpu0")

    def __init__(self, tracer: "SpanTracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.depth = 0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack
        if stack:
            self.depth = stack[-1].depth + 1
        stack.append(self)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self._tracer._finish(self, wall, cpu)


class SpanTracer:
    """Collects :class:`SpanRecord` values from nested ``span()`` blocks.

    Parameters
    ----------
    on_finish:
        Optional callback invoked with each finished record (the recorder
        uses it to mirror spans into the event stream).
    """

    enabled = True

    def __init__(
        self, on_finish: Optional[Callable[[SpanRecord], None]] = None
    ) -> None:
        self.records: List[SpanRecord] = []
        self.on_finish = on_finish
        self._stack: List[_ActiveSpan] = []

    def span(self, name: str) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("stage1"): ...``."""
        return _ActiveSpan(self, name)

    def _finish(self, active: _ActiveSpan, wall_s: float, cpu_s: float) -> None:
        stack = self._stack
        assert stack and stack[-1] is active, (
            f"span {active.name!r} closed out of order"
        )
        stack.pop()
        record = SpanRecord(
            name=active.name,
            depth=active.depth,
            wall_s=wall_s,
            cpu_s=cpu_s,
            start_s=active._wall0,
        )
        self.records.append(record)
        if self.on_finish is not None:
            self.on_finish(record)


class _NullSpan:
    """Shared no-op context manager handed out by :class:`NullSpanTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullSpanTracer(SpanTracer):
    """Disabled tracer: ``span()`` is a constant-time no-op."""

    enabled = False

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN
