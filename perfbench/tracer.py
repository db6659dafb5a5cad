"""Outside-in span tracer for the benchmark's traced runs.

The library carries no instrumentation, so each layer boundary is traced by
replacing a function with a timing wrapper in the namespace of the module
that calls it (``solver.bisect_root``, ``cli.solve``, ...) and putting the
original back afterwards.  A span records its name, start, end, parent span
and request id; spans stay in parallel in-memory lists until the run ends.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Collects nested spans from wrapped functions; not thread-safe."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, map_args=None, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``map_args(args, kwargs) -> (args, kwargs)`` may substitute arguments
        before the call; ``count(counts, args, kwargs, result)`` may bump
        counters after a call that returned.
        """
        names, parents, requests = self.names, self.parents, self.requests
        starts, ends, stack = self.starts, self.ends, self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if map_args is not None:
                args, kwargs = map_args(args, kwargs)
            idx = len(ends)
            names.append(name)
            parents.append(stack[-1])
            requests.append(tracer.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, map_args=None, count=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, map_args, count))

    def unwind(self) -> None:
        """Close the spans an asynchronous exception left open.

        The time cap's alarm can land inside a wrapper's own bookkeeping,
        before its ``try`` or inside its ``finally``.  Spans cut off before
        they were fully recorded are dropped; spans still on the stack end
        now, or start and end now if they never started.
        """
        now = time.perf_counter()
        columns = (self.names, self.parents, self.requests, self.starts, self.ends)
        n = min(len(c) for c in columns)
        for c in columns:
            del c[n:]
        while len(self._stack) > 1:
            idx = self._stack.pop()
            if idx >= n:
                continue
            if self.starts[idx] == 0.0:
                self.starts[idx] = now
            if self.ends[idx] == 0.0:
                self.ends[idx] = now

    def restore(self) -> None:
        """Put every replaced name back, newest first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays; ``name_id`` indexes ``span_names``."""
        span_names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(span_names)}
        return {
            "span_names": np.array(span_names),
            "name_id": np.array([index[n] for n in self.names], dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int64),
            "request": np.array(self.requests, dtype=np.int64),
            "start": np.array(self.starts, dtype=float),
            "end": np.array(self.ends, dtype=float),
        }

    def write(self, path: str) -> None:
        np.savez(path, **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and the covered time is the sum of their durations.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def summarize(arrays: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and self time, in seconds."""
    names = arrays["span_names"]
    name_id = arrays["name_id"]
    dur = arrays["end"] - arrays["start"]
    own = self_times(arrays["parent"], arrays["start"], arrays["end"])
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    self_total = np.bincount(name_id, weights=own, minlength=k)
    return {
        str(n): {"calls": int(calls[i]), "total": float(total[i]), "self": float(self_total[i])}
        for i, n in enumerate(names)
    }


def layer_self_times(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time per layer, in seconds."""
    out: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        out[name.split(".", 1)[0]] += row["self"]
    return dict(out)
