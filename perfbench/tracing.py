"""Outside-in tracing: spans recorded around calls into each layer.

The traced run installs wrappers from the benchmark's own code around the
public entry points of each layer (a class attribute, a module attribute the
caller resolves at call time, or a handler registered on the network).  A span
is (name, start, end, parent span, publish id); spans live in flat arrays and
are written to disk when the run ends.  A layer's self time is its spans'
durations minus the part covered by their child spans.

Counts that need no timing (filter evaluations, matched subscriptions) are
plain counters bumped by the same wrappers, so ratios are measured where the
work happens.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.publish = array("l")
        self._stack: list[int] = []
        self.active = False
        self.publish_id = -1
        self.counts: dict[str, int] = {}
        self._filter_depth = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # --- span recording -------------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        nid = self.intern(name)
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.publish.append(tracer.publish_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside one span named ``name``."""
        return self.wrap(name, fn)(*args)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def counting_filter(self, fn: Callable) -> Callable:
        """Count top-level filter evaluations (nested AND parts count once)."""
        tracer = self

        def matches(filter_self, context):
            if not tracer.active or tracer._filter_depth:
                return fn(filter_self, context)
            tracer._filter_depth = 1
            tracer.counts["filters.evals"] = tracer.counts.get("filters.evals", 0) + 1
            try:
                return fn(filter_self, context)
            finally:
                tracer._filter_depth = 0

        matches.__wrapped__ = fn
        return matches

    # --- installation ---------------------------------------------------------------

    def patch(self, owner, attr: str, name: str,
              on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (undone by :meth:`unpatch`)."""
        self.patch_raw(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def patch_raw(self, owner, attr: str, replacement: Callable) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # --- analysis -------------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int, float]]:
        """Per span name: (self seconds, number of spans, inclusive seconds)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals: dict[str, list] = {}
        names = self.names
        for i in range(n):
            entry = totals.setdefault(names[self.name_id[i]], [0.0, 0, 0.0])
            duration = end[i] - start[i]
            entry[0] += duration - child[i]
            entry[1] += 1
            entry[2] += duration
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [
                ["name_id", "H"], ["start", "d"], ["end", "d"],
                ["parent", "l"], ["publish", "l"],
            ],
        }
        with path.open("wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent, self.publish):
                arr.tofile(out)
