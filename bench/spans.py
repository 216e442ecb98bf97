"""Spans recorded around quadlie's public calls.

The benchmark times every operation it checks; with tracing on it also
records one span per public call made inside an operation, with its
parent span and the operation it serves.  Spans stay in memory until the
run ends.  With tracing off, `call` is a plain call.
"""

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # (id, parent, op, name, start, end)
        self._stack = []
        self._op = None

    @contextmanager
    def span(self, name, op=None):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if op is not None:
            self._op = op
        self.spans.append([sid, parent, self._op, name, perf_counter(), None])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][5] = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def median(self, name, seconds):
        """Median of seconds(start, end) over the spans named `name`."""
        d = [seconds(s[4], s[5]) for s in self.spans if s[3] == name and s[5] is not None]
        return statistics.median(d) if d else None

    def dump(self, path):
        spans = [
            {"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
             "start": s[4], "end": s[5]}
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": spans}) + "\n")
