"""In-memory spans recorded around the benchmark's calls into catport.

A span is one call into a public function of one layer (the module named by
the first dotted part of the span name). Spans are kept in memory and written
out once, when the run ends.

The benchmark cannot see inside a library call, so it explains a call by
replaying the sub-calls that call makes, on the same inputs, right after it.
Replayed sub-calls are recorded as children of the call that makes them.
A span's self time is therefore its duration minus the summed durations of
its children, which are timed separately rather than nested in its interval.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._parents: list[int | None] = [None]

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = [name, time.perf_counter(), None, self._parents[-1], self.op_id]
        self.spans.append(record)
        self._parents.append(sid)
        try:
            yield sid
        finally:
            self._parents.pop()
            record[END] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)`` as one span and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def under(self, sid: int | None = None):
        """Record the spans opened inside as children of ``sid`` (default: the last span)."""
        self._parents.append(len(self.spans) - 1 if sid is None else sid)
        try:
            yield
        finally:
            self._parents.pop()

    def duration(self, sid: int) -> float:
        return self.spans[sid][END] - self.spans[sid][START]

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def per_name(self, first: int = 0, last: int | None = None) -> dict:
        """``{name: (calls, total_s, self_s)}`` over spans ``first..last``."""
        own = self.self_times()
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for sid in range(first, len(self.spans) if last is None else last):
            entry = stats[self.spans[sid][NAME]]
            entry[0] += 1
            entry[1] += self.duration(sid)
            entry[2] += own[sid]
        return {name: tuple(v) for name, v in stats.items()}

    def layer_self_ms(self, ops: int, first: int = 0, last: int | None = None) -> dict:
        """Self time per layer, in ms per operation."""
        layers = defaultdict(float)
        for name, (_, _, own) in self.per_name(first, last).items():
            layers[name.split(".")[0]] += own
        return {layer: 1e3 * total / max(ops, 1) for layer, total in sorted(layers.items())}

    def write(self, path: Path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "op": s[OP]}
            for s in self.spans
        ]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
