"""In-memory spans recorded around calls into dualgrad's modules.

A span is a name, the index of the span that caused it (-1 for a root),
and a start and end in ``perf_counter_ns`` nanoseconds. Spans live in
compact arrays while the benchmark runs and are written out once, at the
end, so recording one costs a clock read and four appends.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np


class NullTracer:
    """Records nothing; used for the untraced runs."""

    enabled = False

    def begin(self, name: str) -> int:
        return -1

    def end(self, index: int) -> None:
        pass

    def call(self, name: str, fn, *args):
        return fn(*args)


class Tracer:
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0)
        self._stack.append(index)
        self._start.append(perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self._end[index] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        index = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so recording may go on after a read.
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "start": np.array(self._start, dtype=np.int64),
            "end": np.array(self._end, dtype=np.int64),
        }

    def durations_ns(self, name: str) -> np.ndarray:
        a = self.arrays()
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        mask = a["name"] == nid
        return a["end"][mask] - a["start"][mask]

    def self_ns(self, name: str) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        mask = a["name"] == nid
        return dur[mask] - child[mask]

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
