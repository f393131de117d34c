"""In-memory spans for the traced run of the audit benchmark.

Spans are recorded from the benchmark's side of each call into a layer of
the package, never from inside it.  A span is
[name, start, end, parent, instance, info]: the name is "<layer>.<call>",
parent is the index of the enclosing span (-1 at top level), instance names
the audit instance being processed, and info is a small count taken from
the call's result (violations, uncovered vertices, bytes, search nodes).
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []

    def wrap(self, name, fn, info=None):
        """fn with a span named name around every call; info(result), when
        given, is stored in the span."""
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.instance, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if info is not None:
                span[5] = info(result)
            return result
        return traced

    def totals(self):
        """Per span name: (calls, busy seconds, self seconds, sum of info
        where info is a number).  Self time is the span's duration minus the
        durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        info = defaultdict(int)
        for i, (name, start, end, _, _, extra) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_time[i]
            if isinstance(extra, int):
                info[name] += extra
        return calls, busy, own, info


@contextmanager
def patched(bindings):
    """Rebind (object, attribute, value) triples for the duration of the
    block, restoring the originals afterwards.  Attributes the object does
    not have are left alone, so a call the package no longer makes is simply
    not traced."""
    bindings = [b for b in bindings if hasattr(b[0], b[1])]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in bindings]
    try:
        for obj, attr, value in bindings:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
