"""Spans recorded around calls into intscore, from outside the package.

A span is [name, start, end, parent, op, info]: the layer is the part of
the name before the first dot, parent is the index of the enclosing span
(None at top level), op is the operation the span belongs to and info holds
what a hook recorded about the call. Spans stay in
memory until the run ends. The run is single-threaded, so child spans nest
inside their parent without overlapping, and a layer's self time is the sum
over its spans of duration minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from time import perf_counter

# program layers whose self times should add up to an operation's wall time;
# spans of the benchmark's own code are named "bench.*" and the tracer's
# hooks "trace.*"
LAYERS = ("data", "model", "solver", "polish", "mps", "evaluation")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, span)."""
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None,
                self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs), span
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def patch(self, module, attr, name, before=None, after=None):
        """Replace module.attr by a traced wrapper until unpatch().

        before(arguments) gets the call's arguments by parameter name and
        its return value is handed to after(span, that value, result); both
        run inside "trace.hook" spans, which keeps the tracer's own cost out
        of every program layer.
        """
        orig = getattr(module, attr)
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            ctx = None
            if before:
                arguments = sig.bind(*args, **kwargs).arguments
                ctx = self.call("trace.hook", before, arguments)[0]
            result, span = self.call(name, orig, *args, **kwargs)
            if after:
                self.call("trace.hook", after, span, ctx, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def unpatch(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def dump(self, path, run_info):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": run_info,
                       "fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Self time per span index (duration minus direct children)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_self_seconds(spans, op):
    """Self seconds per layer for one operation, over every span layer seen."""
    own = self_times(spans)
    out = {}
    for s, t in zip(spans, own):
        if s[4] == op:
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
    return out


def percentile(values, q):
    """Nearest-rank q-th percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
