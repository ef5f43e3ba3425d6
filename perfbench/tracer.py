"""In-memory span tracer that wraps uavchain's public functions from outside.

The tracer patches module attributes and class methods the engine calls,
records one span per call (name, start, end, parent) in flat arrays, and
restores every original on ``uninstall``. Nothing under ``src/`` knows it
exists. Self time of a span is its duration minus the durations of its
direct children; calls are synchronous on one thread, so children never
overlap and their durations sum to the time they cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self.tallies: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, at: float | None = None) -> int:
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter() if at is None else at)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int, at: float | None = None) -> None:
        self.end[index] = time.perf_counter() if at is None else at
        self._stack.pop()

    # --- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, tally=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``tally`` maps a suffix to ``fn(args, result) -> number``; each call
        adds the number to ``tallies[f"{name}.{suffix}"]``. A missing
        attribute is noted in ``missing`` rather than raised, so a renamed
        function drops out of the trace instead of failing the run.
        """
        original = vars(owner).get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        nid = self._intern(name)
        clock, stack, tallies = time.perf_counter, self._stack, self.tallies
        name_ids, parents, starts, ends = (self.name_id, self.parent,
                                           self.start, self.end)
        tally_items = [(f"{name}.{suffix}", fn)
                       for suffix, fn in (tally or {}).items()]

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            for key, fn in tally_items:
                tallies[key] += fn(args, result)
            return result

        functools.update_wrapper(traced, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: total calls and self seconds, overall and per phase.

        A phase is the name of a span's root ancestor.
        """
        n = len(self.start)
        child_time = [0.0] * n
        root = [0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p == NO_PARENT:
                root[i] = i
            else:
                root[i] = root[p]
                child_time[p] += ends[i] - starts[i]
        stats: dict[str, dict] = {}
        names, name_id = self.names, self.name_id
        for i in range(n):
            name = names[name_id[i]]
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = {"calls": 0, "self_s": 0.0,
                                       "phase_calls": defaultdict(int)}
            self_s = ends[i] - starts[i] - child_time[i]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["phase_calls"][names[name_id[root[i]]]] += 1
        return stats

    def spans_of(self, name: str) -> list[tuple[float, float]]:
        """(start, end) of every span named ``name``, in call order."""
        nid = self._name_ids.get(name)
        return [(self.start[i], self.end[i]) for i in range(len(self.start))
                if self.name_id[i] == nid]

    def count_children(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        cid, pid = self._name_ids.get(child), self._name_ids.get(parent)
        if cid is None or pid is None:
            return 0
        name_id, parents = self.name_id, self.parent
        return sum(1 for i in range(len(self.start))
                   if name_id[i] == cid and parents[i] != NO_PARENT
                   and name_id[parents[i]] == pid)

    def write(self, path) -> None:
        """Write the spans: a JSON header line, then the four raw arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)


def read_spans(path) -> tuple[list[str], list[tuple[str, int, float, float]]]:
    """Load a file written by ``Tracer.write``: (names, [(name, parent, start, end)])."""
    with open(Path(path), "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        columns = []
        for spec in header["arrays"]:
            column = array(spec.split(":")[1])
            column.fromfile(handle, count)
            columns.append(column)
    names = header["names"]
    name_id, parent, start, end = columns
    return names, [(names[name_id[i]], parent[i], start[i], end[i])
                   for i in range(count)]
