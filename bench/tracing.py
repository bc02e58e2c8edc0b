"""In-memory spans and counters recorded around calls into the package.

The benchmark never edits the package: a traced run replaces a public function
(or a policy object's ``decide``) with a wrapper that records one span per
call. Each span is (name, start, end, parent), in process CPU seconds (the clock
the benchmark measures with), with the parent being the span
open when the call began, so a layer's self time is its duration minus the
time its children cover. Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Span and counter store for one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((self._name_id(name), 0.0, 0.0, parent))
        self._open.append(index)
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.process_time()
            self._open.pop()
            self.spans[index] = (self.spans[index][0], start, end, parent)
            self.busy[name] += end - start
            self.counts[name] += 1

    def wrap(self, fn, name: str, on_result=None):
        """Wrapper around ``fn`` that traces every call and may inspect results."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def mark(self) -> tuple[dict[str, float], dict[str, float]]:
        """Copy of the counters, for :meth:`since`."""
        return dict(self.counts), dict(self.busy)

    def since(self, mark) -> tuple[dict[str, float], dict[str, float]]:
        """Counts and busy seconds accumulated after ``mark``."""
        counts, busy = mark
        return (
            {k: v - counts.get(k, 0.0) for k, v in self.counts.items()},
            {k: v - busy.get(k, 0.0) for k, v in self.busy.items()},
        )

    def write(self, path: Path) -> None:
        """Write every span as parallel arrays (name id, start, end, parent)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        with path.open("wb") as fh:
            np.savez_compressed(
                fh,
                names=np.array(self.names),
                name_id=spans[:, 0].astype(np.int32),
                start=spans[:, 1],
                end=spans[:, 2],
                parent=spans[:, 3].astype(np.int64),
            )

