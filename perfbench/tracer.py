"""In-memory span recorder that wraps module attributes from outside the program.

A target is (module, attribute, span name). While a `Tracer` is installed, each
target attribute is replaced by a wrapper that records one span per call:
name, start, end, parent span, and optionally the call's arguments and return
value. Every attribute is put back when the `installed()` block exits, also when
the traced code raises.

Spans are plain lists ``[name, start, end, parent, args, result]`` so that the
wrapper stays cheap. The tracer assumes calls are made from one thread: the
parent of a span is the innermost span still open when it starts.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

NAME, START, END, PARENT, ARGS, RESULT = range(6)


@dataclass(frozen=True)
class Target:
    module: object
    attr: str
    name: str
    keep_args: bool = False
    keep_result: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, keep_args: bool = False, keep_result: bool = False):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    (args, kwargs) if keep_args else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if keep_result:
                span[RESULT] = out
            return out

        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator[list[Target]]:
        """Wrap every target attribute that exists; yield the ones wrapped."""
        saved = []
        try:
            for t in targets:
                if not hasattr(t.module, t.attr):
                    continue
                original = getattr(t.module, t.attr)
                saved.append((t, original))
                setattr(t.module, t.attr,
                        self.wrap(original, t.name, t.keep_args, t.keep_result))
            yield [t for t, _ in saved]
        finally:
            for t, original in reversed(saved):
                setattr(t.module, t.attr, original)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def ancestor(spans: list[list], i: int, name: str) -> int:
    """Index of the nearest enclosing span called `name`, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] != name:
        p = spans[p][PARENT]
    return p
