"""In-memory spans recorded around calls into the program's layers.

A span is (id, name, start, end, parent, workload); spans are kept in a
list and written as JSON lines when the run ends.  A span's self time is
its duration minus the time covered by its direct children (children of
one parent never overlap: the benchmark calls layers sequentially).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, time.perf_counter(), 0.0, parent))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, start, _, _ = self.spans[sid]
            self.spans[sid] = (sid, name, start, time.perf_counter(), parent)

    def durations(self, name: str) -> list[float]:
        return [e - s for _, n, s, e, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.durations(name))

    def _self(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, _, s, e, parent in self.spans:
            if parent is not None:
                child[parent] += e - s
        return [(e - s) - child[sid] for sid, _, s, e, _ in self.spans]

    def self_durations(self, name: str) -> list[float]:
        """Self time of each span called ``name``."""
        return [x for x, span in zip(self._self(), self.spans) if span[1] == name]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for x, span in zip(self._self(), self.spans):
            out[span[1]] += x
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for sid, name, s, e, parent in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": s,
                                    "end": e, "parent": parent,
                                    "workload": self.workload}) + "\n")
