"""In-memory spans recorded around the benchmark's calls into newsmarket.

A span carries a name (``<module>.<function>`` for a call into the
package, ``op.<kind>`` for one benchmark operation, ``import.<module>``
for an import timed in a fresh interpreter), its start and end on
the ``perf_counter_ns`` clock, the index of the span that was open when it
started (its parent), the id of the operation it belongs to, and any
attributes the caller attached.  Spans stay in a list until ``dump`` writes
them as JSON lines, so the only cost paid inside a timed region is two
clock reads and one dict.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans for one workload instance."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = 0

    def new_op(self) -> int:
        self.op_id += 1
        return self.op_id

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; the yielded dict takes extra attributes."""
        rec = {"name": name, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> list[float]:
        return [span_seconds(s) for s in self.named(name)]

    def per_call_us(self, name: str) -> float:
        """Mean microseconds per call of a probe span (attribute ``calls``)."""
        spans = self.named(name)
        calls = sum(s["calls"] for s in spans)
        return 1e6 * sum(span_seconds(s) for s in spans) / calls

    def scale(self, meter) -> None:
        """Give each span its raw time and its time at reference speed
        (see speed.py); metrics read the latter."""
        for s in self.spans:
            s["raw_s"], s["s"] = meter.measure(s["start_ns"] / 1e9,
                                               s["end_ns"] / 1e9)

    def self_seconds_by_layer(self) -> dict:
        """Self time per module: span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["s"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s["s"] - c
        return out

    def dump(self, fh) -> None:
        for s in self.spans:
            fh.write(json.dumps({"workload": self.workload, **s},
                                default=str) + "\n")


class NullTracer(Tracer):
    """Tracing off: span() is a context manager that records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}


def span_seconds(s: dict) -> float:
    """A scaled span's time at reference speed."""
    return s["s"]
