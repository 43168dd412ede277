"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: a name, start and end
times, the index of the span that was open when it began (its parent)
and the id of the benchmark operation it belongs to.  Spans live in
flat typed arrays while the run is measured and are written to disk
only when it ends.  Counters recorded at the same boundaries (rows
evaluated, path steps, LP sizes) sit beside the spans.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict

import numpy as np


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int):
        self.end[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} was open")

    def count(self, key: str, amount: float = 1.0):
        self.counts[key] += amount

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def write(self, path):
        """Write every span, the name table and the counters to ``path`` (.npz)."""
        counts = sorted(self.counts.items())
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            count_keys=np.array([k for k, _ in counts], dtype=str),
            count_values=np.array([v for _, v in counts], dtype=float),
            **self.arrays(),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    covered = np.zeros(len(start))
    cur_parent, lo, hi = -1, 0.0, 0.0
    for i in kids.tolist():
        p = int(parent[i])
        s, e = max(start[i], start[p]), min(end[i], end[p])
        if e <= s:
            continue
        if p == cur_parent and s <= hi:
            hi = max(hi, e)
            continue
        if cur_parent >= 0:
            covered[cur_parent] += hi - lo
        cur_parent, lo, hi = p, s, e
    if cur_parent >= 0:
        covered[cur_parent] += hi - lo
    return out - covered
