"""Span recorder for the traced benchmark run.

The traced run wraps public functions of the program at the names their
callers look them up (``repro.flow.partition_stage``,
``MilpModelCache.get_or_compile``, ...).  Each wrapped call records one
span: name, start, end, parent span, the request ``tag`` it belongs to,
and a few attributes taken from its arguments or result.  Spans stay in
memory until :meth:`Recorder.dump` writes them out.  The untraced run
installs no wrapper, and nothing under ``src/`` changes.

Self time is a span's duration minus the part of it its child spans
cover; :func:`self_times` rolls that up per span name.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    tag: Optional[str]
    thread: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store plus the wrappers that feed it.

    A thread-local stack gives every span its parent; the root span of a
    thread sets the ``tag`` its descendants inherit.  ``wrap`` replaces
    an attribute and remembers the original, ``restore`` puts every
    original back.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []
        #: name -> itertools.count; next() on a count is atomic, so
        #: concurrent workers never lose an increment
        self._counters: Dict[str, itertools.count] = {}

    # -- spans ----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if tag is None and parent is not None:
            tag = parent.tag
        span = Span(
            id=next(self._ids),
            parent=parent.id if parent is not None else None,
            name=name,
            tag=tag,
            thread=threading.current_thread().name,
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    # -- wrappers -------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_call: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        tag_of: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_call(span, args, kwargs)`` and ``on_result(span, result)``
        copy attributes onto the span; ``tag_of(args, kwargs)`` names the
        request a root span belongs to.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of is not None else None
            span = self.begin(name, tag)
            try:
                if on_call is not None:
                    on_call(span, args, kwargs)
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.end(span)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls
        (for methods called far too often to span)."""
        original = getattr(owner, attr)
        counter = self._counters.setdefault(name, itertools.count())

        @functools.wraps(original)
        def counted(*args, **kwargs):
            next(counter)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patched.append((owner, attr, original))

    def count(self, name: str) -> int:
        counter = self._counters.get(name)
        # a fresh count() starts at 0, so the next value is the tally
        return next(counter) if counter is not None else 0

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------
    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {
            "spans": [asdict(span) for span in self.spans],
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, default=repr)


def children_of(spans: List[Span]) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            out[span.parent].append(span)
    return out


def covered(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, kids: Dict[int, List[Span]]) -> float:
    return span.duration - covered(
        [(child.start, child.end) for child in kids.get(span.id, ())]
    )


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per span name (sums to the roots' total duration)."""
    kids = children_of(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += self_time(span, kids)
    return dict(out)


def inclusive_times(spans: List[Span]) -> Dict[str, float]:
    """Inclusive seconds per span name, counting a span nested inside a
    span of the same name only once."""
    by_id = {span.id: span for span in spans}
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out[span.name] += span.duration
    return dict(out)


def ancestor(span: Span, by_id: Dict[int, Span], names) -> Optional[Span]:
    """The nearest ancestor of ``span`` whose name is in ``names``."""
    parent = by_id.get(span.parent)
    while parent is not None and parent.name not in names:
        parent = by_id.get(parent.parent)
    return parent


def rollup_table(spans: List[Span]) -> str:
    """A name / calls / inclusive / self table, largest self time first."""
    selfs = self_times(spans)
    incl = inclusive_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.name] += 1
    lines = [f"{'span':<40} {'calls':>7} {'incl_s':>10} {'self_s':>10}"]
    for name in sorted(selfs, key=lambda n: -selfs[n]):
        lines.append(
            f"{name:<40} {calls[name]:>7} {incl.get(name, 0.0):>10.4f} "
            f"{selfs[name]:>10.4f}"
        )
    return "\n".join(lines)
