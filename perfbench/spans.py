"""Span tracer for one benchmark worker.

The tracer replaces a function under the name its caller looks it up by
(modules import each other's functions by name, so wrapping the defining
module alone would miss most calls).  Every call records one span: layer
name, parent span, start and end.  Spans stay in memory until the run ends;
:meth:`Tracer.layers` then reduces them to self time and call count per
layer, where self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.notes = {}  # name -> values recorded from call results
        self._open = []
        self._wrapped = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, self._open[-1] if self._open else -1, time.perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr, name, note=None):
        """Trace ``owner.attr`` as layer ``name``; ``note(result)`` returns a
        number to record for each call (e.g. factor fill)."""
        real = getattr(owner, attr)

        def traced(*args, **kwargs):
            out = self.call(name, real, *args, **kwargs)
            if note is not None:
                # a span of its own, so the probe is charged to no layer
                value = self.call("trace.note", note, out)
                self.notes.setdefault(name, []).append(value)
            return out

        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, real))

    def unwrap(self):
        while self._wrapped:
            owner, attr, real = self._wrapped.pop()
            setattr(owner, attr, real)

    def layers(self):
        """{name: (self seconds, calls)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, _, t0, t1), c in zip(self.spans, child):
            s, n = out.get(name, (0.0, 0))
            out[name] = (s + (t1 - t0 - c), n + 1)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "notes": self.notes}, fh)
