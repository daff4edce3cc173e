"""Outside-in tracing: spans around the public seams, from the harness.

The tracer replaces public methods on the product's classes with timing
wrappers for the length of one traced pass and restores them afterwards; no
file under ``src/`` is edited.  A span is ``(layer, start, end, parent,
request)``.  One client drives a traced pass, so a span opened on another
thread (a router-pool worker, the maintenance writer) is a child of whatever
the client had open at that moment — attribution by time containment.

A layer's *self time* is its spans' duration minus the union of their
children's intervals: parallel children overlap, and the union is the part
of the parent's interval they actually cover.

Spans are appended to one flat list of numbers and strings per thread, not
allocated as objects: a hundred thousand small containers would push the
garbage collector into extra full collections over the product's heap, and
that cost would be charged to whichever layer happened to be running.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_INHERITED = object()
_WIDTH = 6  # layer, start, end, parent thread, parent position, request


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: Optional["Span"]
    request: int


class _ThreadLog:
    """One thread's span rows and its stack of open row positions."""

    __slots__ = ("number", "rows", "stack")

    def __init__(self, number: int) -> None:
        self.number = number
        self.rows: List[Any] = []
        self.stack: List[int] = []


class Tracer:
    """Records spans in memory; see the module docstring for the model."""

    def __init__(self) -> None:
        self.sums: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._client: Optional[_ThreadLog] = None
        self._request = -1
        #: (owner, name, the attribute owner.__dict__ held, or _INHERITED).
        self._patched: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._logs_lock:
                log = self._local.log = _ThreadLog(len(self._logs))
                self._logs.append(log)
        return log

    def _begin(self, log: _ThreadLog, layer: str) -> int:
        stack = log.stack
        if stack:
            parent_thread, parent_position = log.number, stack[-1]
        else:
            client = self._client
            if client is not None and client is not log and client.stack:
                parent_thread, parent_position = client.number, client.stack[-1]
            else:
                parent_thread = parent_position = -1
        rows = log.rows
        position = len(rows)
        rows.extend(
            (layer, time.perf_counter(), 0.0, parent_thread, parent_position, self._request)
        )
        stack.append(position)
        return position

    @staticmethod
    def _end(log: _ThreadLog, position: int) -> None:
        log.rows[position + 2] = time.perf_counter()
        log.stack.pop()

    @contextmanager
    def request(self, layer: str) -> Iterator[None]:
        """The root span of one client request (run on the client thread)."""
        self._request += 1
        log = self._client = self._log()
        position = self._begin(log, layer)
        try:
            yield
        finally:
            self._end(log, position)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: type,
        name: str,
        layer: str,
        tally: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Time every call of ``owner.name`` as a ``layer`` span.

        ``tally`` maps the call's return value to a number added to
        ``sums[layer + "." + name]`` (how many ops a write batch applied).
        """
        original = getattr(owner, name)
        get_log, begin, end = self._log, self._begin, self._end
        sums, key = self.sums, f"{layer}.{name}"

        def traced(*args: Any, **kwargs: Any) -> Any:
            log = get_log()
            position = begin(log, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                end(log, position)
            if tally is not None:
                sums[key] += tally(result)
            return result

        self._patch(owner, name, traced)

    def wrap_scope(self, owner: type, name: str, layer: str, enter_only: bool = False) -> None:
        """Time a context-manager method: the whole scope, or just its entry.

        ``enter_only`` spans cover ``__enter__`` alone — for a lock, that is
        the time spent waiting for it.
        """
        original = getattr(owner, name)
        tracer = self

        class Scope:
            def __init__(self, inner: Any) -> None:
                self._inner = inner
                self._open: Optional[Tuple[_ThreadLog, int]] = None

            def __enter__(self) -> Any:
                log = tracer._log()
                position = tracer._begin(log, layer)
                if enter_only:
                    try:
                        return self._inner.__enter__()
                    finally:
                        tracer._end(log, position)
                try:
                    entered = self._inner.__enter__()
                except BaseException:
                    tracer._end(log, position)
                    raise
                self._open = (log, position)
                return entered

            def __exit__(self, *exc_info: Any) -> Any:
                try:
                    return self._inner.__exit__(*exc_info)
                finally:
                    if self._open is not None:
                        tracer._end(*self._open)

        def traced(*args: Any, **kwargs: Any) -> Scope:
            return Scope(original(*args, **kwargs))

        self._patch(owner, name, traced)

    def _patch(self, owner: type, name: str, replacement: Callable[..., Any]) -> None:
        self._patched.append((owner, name, owner.__dict__.get(name, _INHERITED)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put every patched attribute back (idempotent)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Every recorded span, parents resolved, ordered by start time."""
        by_place: Dict[Tuple[int, int], Span] = {}
        links: List[Tuple[Span, Tuple[int, int]]] = []
        for log in self._logs:
            rows = log.rows
            for position in range(0, len(rows), _WIDTH):
                layer, start, end, parent_thread, parent_position, request = rows[
                    position : position + _WIDTH
                ]
                span = Span(layer, start, end, None, request)
                by_place[(log.number, position)] = span
                if parent_thread >= 0:
                    links.append((span, (parent_thread, parent_position)))
        for span, place in links:
            span.parent = by_place[place]
        return sorted(by_place.values(), key=lambda span: span.start)


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, total ``seconds`` and ``self_seconds``."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:  # in start order, so each child list is too
        if span.parent is not None:
            children[id(span.parent)].append(span)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
    )
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in children.get(id(span), ()):
            low, high = max(child.start, reach), min(child.end, span.end)
            if high > low:
                covered += high - low
                reach = high
        layer = totals[span.layer]
        layer["calls"] += 1
        layer["seconds"] += span.end - span.start
        layer["self_seconds"] += (span.end - span.start) - covered
    return dict(totals)


def export(spans: List[Span]) -> List[Dict[str, Any]]:
    """The raw spans as JSON-able rows (parent as a row index)."""
    position = {id(span): index for index, span in enumerate(spans)}
    return [
        {
            "name": span.layer,
            "start": span.start,
            "end": span.end,
            "parent": position[id(span.parent)] if span.parent is not None else None,
            "request": span.request,
        }
        for span in spans
    ]
