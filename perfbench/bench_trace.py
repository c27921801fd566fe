"""Outside-in tracer: spans and counts at the package's public boundaries.

The tracer edits nothing inside the package.  It replaces module
attributes and class attributes with wrappers while `active()` is open
and puts the originals back when it closes.  A timed wrapper records one
span per call (name, start, end, parent) in flat arrays, so even a
million spans cost about 24 MB; a count-only wrapper just adds one to a
counter, for boundaries crossed too often to time without distorting
the run.  Counters derived from return values (list lengths, file
sizes) are recorded at the same boundaries, in total and per parent
span name.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans are indexed in start order (a parent before its children).  The
    children of one span are swept in that order, so overlapping children
    are counted once and a child running past its parent is clipped.
    """
    n = len(parent)
    covered = [0.0] * n
    reach = list(start)  # per span: where coverage by its children ends
    for c in range(n):
        p = parent[c]
        if p < 0:
            continue
        lo = max(start[c], reach[p])
        hi = min(end[c], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(names, name, parent, start, end, by_root: bool = False) -> dict:
    """Per span name: calls, total seconds and self seconds.  With
    `by_root`, one such table per root span name, each holding the spans
    below roots of that name (the roots included)."""
    selfs = self_times(parent, start, end)
    root = list(range(len(parent)))
    tables: dict[str, dict] = defaultdict(dict)
    for i, nid in enumerate(name):
        if parent[i] >= 0:
            root[i] = root[parent[i]]
        group = names[name[root[i]]] if by_root else ""
        row = tables[group].setdefault(names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end[i] - start[i]
        row["self_s"] += selfs[i]
    return dict(tables) if by_root else tables[""]


class Tracer:
    """Spans and counters recorded from outside the traced package."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(int)
        self.counts_by_parent: dict[tuple[str, str], float] = defaultdict(int)
        self._stack = [-1]
        self._plan: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn: Callable,
              counters: dict[str, Callable] | None = None) -> Callable:
        """A wrapper that records a span per call of `fn`; each counter
        function maps the return value to an amount added under its key."""
        nid = self._name_id(name)
        names, stack = self.names, self._stack
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        counts, by_parent = self.counts, self.counts_by_parent
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start_a)
            parent = stack[-1]
            name_a.append(nid)
            parent_a.append(parent)
            end_a.append(0.0)
            stack.append(sid)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[sid] = clock()
                stack.pop()
            if counters:
                pname = names[name_a[parent]] if parent >= 0 else ""
                for key, measure in counters.items():
                    amount = measure(result)
                    counts[key] += amount
                    by_parent[key, pname] += amount
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """A wrapper that only counts calls, under `name + '.calls'`."""
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_function(self, fn: Callable, wrapper: Callable, package: str) -> None:
        """Plan to replace `fn` under every name it has in the package's
        loaded modules, so callers that imported it directly see the wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._plan.append((mod, attr, wrapper))

    def wrap_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._plan.append((cls, attr, wrapper))

    @contextlib.contextmanager
    def active(self, phase: str):
        """Install every planned wrapper and open a span named `phase`
        around the benchmark code inside; restore the originals on exit."""
        sid = len(self.start)
        self.name.append(self._name_id(phase))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        saved = []
        try:
            for owner, attr, wrapper in self._plan:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.pop()
            self.end[sid] = time.perf_counter()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        return summarize(self.names, self.name, self.parent, self.start, self.end)

    def dump(self, path) -> None:
        """Write the spans and the counters as one JSON file."""
        data = {
            "names": self.names,
            "spans": {
                "name": list(self.name),
                "parent": list(self.parent),
                "start": list(self.start),
                "end": list(self.end),
            },
            "counts": dict(self.counts),
            "counts_by_parent": [[k, p, v] for (k, p), v in self.counts_by_parent.items()],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
