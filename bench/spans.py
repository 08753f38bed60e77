"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, solve id).  Spans are appended to flat
arrays while the traced pass runs and summarised (or written to disk) only
once it is over, so recording costs two clock reads and a few appends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Spans:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.solve = array("l")
        self._stack = [-1]
        self.solve_id = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """Return ``fn`` with every call recorded as a span called ``name``."""
        name_id = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _arrays(self):
        # copies, so that the arrays can still grow afterwards
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        ints = f"i{self.name.itemsize}"
        name = np.frombuffer(self.name, dtype=ints).copy()
        parent = np.frombuffer(self.parent, dtype=ints).copy()
        solve = np.frombuffer(self.solve, dtype=ints).copy()
        return start, end, name, parent, solve

    def totals(self, solves=None) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``s`` (time of the outermost span of that
        name, so a recursive layer is not counted twice) and ``self_s``
        (duration minus the time its child spans cover).  ``solves``
        restricts the count to spans of those solve ids."""
        start, end, name, parent, solve = self._arrays()
        dur = end - start
        k = len(self.names)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_t = dur - covered
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        outer = parent_name != name
        keep = np.ones(len(dur), dtype=bool) if solves is None else np.isin(solve, list(solves))
        calls = np.bincount(name[keep], minlength=k)
        secs = np.bincount(name[keep], weights=(dur * outer)[keep], minlength=k)
        self_s = np.bincount(name[keep], weights=self_t[keep], minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(secs[i]), "self_s": float(self_s[i])}
                for i, n in enumerate(self.names)}

    def dump(self, path) -> None:
        start, end, name, parent, solve = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), start=start,
                            end=end, name=name, parent=parent, solve=solve)
