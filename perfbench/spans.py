"""In-memory spans recorded by the benchmark around its calls into the package.

A span has a name (``<module>.<call>``), start, end, the id of the span that
was open when it started, and the run id.  Spans stay in memory and are
written out once, when the run ends.  Self time of a span is its duration
minus the time its direct children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is the same do-nothing context."""

    spans = ()

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent]
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """``{span name: (count, total self seconds)}``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + (end - start) - child_time[i])
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [{"id": i, "name": n, "start": s, "end": e,
                                  "parent": p, "run_id": self.run_id}
                                 for i, (n, s, e, p) in enumerate(self.spans)]}, fh)


def span_cost_s(n=20000):
    """Seconds one empty span costs on this machine (median of 5 blocks)."""
    tracer = Tracer("calibration")
    costs = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("x"):
                pass
        costs.append((time.perf_counter() - t0) / n)
    return sorted(costs)[2]
