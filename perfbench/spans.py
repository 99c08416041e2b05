"""In-memory span recorder for the traced benchmark run.

A span is opened around each call the benchmark makes into a cnflab layer
(and around each setup phase and each pass).  Spans are kept in memory and
written out once, when the worker ends, so recording costs two clock reads
and two getrusage calls per span.  The untraced run uses NullTracer, whose
span() is a shared no-op context.
"""

import resource
import statistics
import time
from contextlib import contextmanager, nullcontext


def peak_rss_mb():
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records name, start, end, parent and workload of every span."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "rss_start_mb": peak_rss_mb(),
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["rss_end_mb"] = peak_rss_mb()
            self._open.pop()


def span_cost_s(count=5_000):
    """Wall seconds one empty span costs, timed over COUNT spans on a
    throwaway Tracer: the direct estimate of the tracing overhead per span."""
    tracer = Tracer("cost")
    start = time.perf_counter()
    for _ in range(count):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - start) / count


class NullTracer:
    _null = nullcontext()

    def span(self, name):
        return self._null


def _duration(s):
    return s["end"] - s["start"]


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Spans come from one thread and nest properly, so the covered part is
    the sum of the direct children's durations.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _duration(s)
    return {s["id"]: _duration(s) - child_time.get(s["id"], 0.0) for s in spans}


def summarize(spans):
    """Totals per span name: calls, busy seconds, self seconds."""
    own = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += _duration(s)
        row["self_s"] += own[s["id"]]
    return out


def per_root(spans, root_name):
    """For every span named root_name: its duration, and calls, busy
    seconds and peak-RSS growth of each name among its direct children."""
    roots = {s["id"]: {"duration_s": _duration(s), "layers": {}}
             for s in spans if s["name"] == root_name}
    for s in spans:
        root = roots.get(s["parent"])
        if root is None:
            continue
        row = root["layers"].setdefault(
            s["name"], {"calls": 0, "busy_s": 0.0, "rss_growth_mb": 0.0})
        row["calls"] += 1
        row["busy_s"] += _duration(s)
        row["rss_growth_mb"] += s["rss_end_mb"] - s["rss_start_mb"]
    return [roots[i] for i in sorted(roots)]


def layer_medians(roots):
    """Median busy seconds per layer over the roots, with the per-root call
    count (identical in every root when the roots repeat the same work)."""
    names = sorted({name for r in roots for name in r["layers"]})
    out = {}
    for name in names:
        rows = [r["layers"].get(name, {"calls": 0, "busy_s": 0.0}) for r in roots]
        out[name] = {
            "calls": [row["calls"] for row in rows],
            "busy_s": statistics.median(row["busy_s"] for row in rows),
        }
    return out
