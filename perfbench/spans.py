"""An in-memory span tracer and the self-time arithmetic over its spans.

A span is ``(name, start, end, parent, run id)``: ``perf_counter`` seconds,
the index of the enclosing span (-1 at the top) and the instance it belongs
to.  Spans live in flat arrays while the run is measured and are written out
once it ends.  A span's *self time* is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path


class SpanTracer:
    """Records one span per call of every function it wraps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.run_id = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        name_id = self._intern(name)
        stack = self._stack
        clock = time.perf_counter
        name_ids, parents, runs = self.name_id, self.parent, self.run
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i in range(len(self.start)):
                out.write(json.dumps([
                    self.names[self.name_id[i]], self.start[i], self.end[i],
                    self.parent[i], self.run[i],
                ]) + "\n")


def self_times(tracer: SpanTracer) -> dict[str, tuple[int, float]]:
    """Per span name: (logical calls, summed self seconds).

    A call nested directly in a span of the same name (a partitioned pool
    delegating to its partition) is one logical call, not two; its self
    time still counts.  Children are visited in start order, so the time
    they cover is merged in one pass even if two of them overlap.
    """
    count = len(tracer.start)
    starts, ends, parents, name_ids = (
        tracer.start, tracer.end, tracer.parent, tracer.name_id
    )
    covered = [0.0] * count
    reach = [float("-inf")] * count  # latest child end seen per parent
    for i in range(count):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], ends[i])
    totals: dict[str, list] = {}
    for i in range(count):
        entry = totals.setdefault(tracer.names[name_ids[i]], [0, 0.0])
        p = parents[i]
        if p < 0 or name_ids[p] != name_ids[i]:
            entry[0] += 1
        entry[1] += (ends[i] - starts[i]) - covered[i]
    return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}
