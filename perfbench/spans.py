"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op id, attributes). Spans live in a
list until the run ends and are then written out as JSON. Times come from
``time.monotonic``, which on Linux is one system-wide clock, so spans a
child process reports line up with the parent's.

A span's self time is its duration minus the part of it that its child
spans cover; summing self time by name gives each layer's busy seconds
without counting a nested call twice.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

clock = time.monotonic


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; ``op`` tags the spans of one benchmark operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        rec = Span(name, clock(), parent=parent, op=self.op, attrs=attrs)
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield rec
        except BaseException as exc:
            rec.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            rec.end = clock()

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` with every call recorded as a span named ``name``.

        ``annotate(args, kwargs, result)`` returns attributes to attach,
        such as the fan-in of the call or counters read from its result.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    rec.attrs.update(annotate(args, kwargs, result))
                return result
        return traced

    def adopt(self, records: list[dict], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        offset = len(self.spans)
        for rec in records:
            span = Span(**rec)
            span.parent = parent if span.parent is None else span.parent + offset
            span.op = self.spans[parent].op
            self.spans.append(span)

    def dump(self, path, meta: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta or {}, "spans": [asdict(s) for s in self.spans]}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, cur_start, cur_end = 0.0, None, None
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


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [max(0.0, (s.end - s.start) - _covered(children[i])) for i, s in enumerate(spans)]
