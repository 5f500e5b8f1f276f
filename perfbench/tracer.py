"""Span recording around uspc's public entry points, from the outside.

A Tracer replaces an attribute (a module-level function or a class method)
with a wrapper that records one span per call: name, start, end and the
index of the enclosing span.  Wrappers are installed where the caller looks
the name up (for example `uspc.training.adam_step`, which `joint_step`
resolves through its module globals) and removed again by `uninstall`, so
the untraced runs execute the unmodified program.

Spans stay in memory until `write_csv` at the end of the run.  A layer's
self time is its span's duration minus the durations of its direct
children.  Counting hooks (graph walks, file sizes) run inside their own
`trace.count` span so their cost is charged to the tracer, not to the
layer that happens to enclose them.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

NAME, START, END, PARENT = range(4)


@dataclass
class Event:
    """A count taken at a span boundary."""

    name: str
    time: float
    value: object


@dataclass
class Tracer:
    spans: list = field(default_factory=list)    # [name, start, end, parent]
    events: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value) -> None:
        self.events.append(Event(name, time.perf_counter(), value))

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Trace every call of `owner.attr` as a span called `name`.

        `hook(tracer, args, kwargs, result)` runs after the call, inside a
        `trace.count` span, and may record counts.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                count_span = tracer._open("trace.count")
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    tracer._close(count_span)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def roots(self) -> list[int]:
        """Index of each span's outermost ancestor."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s[PARENT] < 0 else out[s[PARENT]])
        return out

    def write_csv(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,self_s\n")
            for i, (s, o) in enumerate(zip(self.spans, own)):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{o!r}\n")
