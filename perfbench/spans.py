"""Spans around the benchmark's calls into the package.

A traced run records one span per call (name, start, end, parent span,
request id) and keeps them in memory until the run ends.  The untraced run
uses ``NoTrace``, whose ``call`` only calls.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class NoTrace:
    def begin(self, request_id: int) -> None:
        pass

    def end(self) -> None:
        pass

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, key, value=1) -> None:
        pass


class Trace:
    """Records spans and counters at the layer boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent id, request id)
        self.counters: dict[str, float] = defaultdict(float)
        self._request = None  # (span id, request id, start)

    def begin(self, request_id: int) -> None:
        self._request = (len(self.spans), request_id, perf_counter_ns())
        self.spans.append(None)  # filled in by ``end``

    def end(self) -> None:
        sid, rid, start = self._request
        self.spans[sid] = (sid, "request", start, perf_counter_ns(), None, rid)
        self._request = None

    def call(self, name, fn, *args):
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            parent, rid, _ = self._request
            self.spans.append((len(self.spans), name, start, end, parent, rid))

    def count(self, key, value=1) -> None:
        self.counters[key] += value

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds and self seconds (busy minus
        the time covered by child spans)."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, start, end, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[sid]) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "request": rid}) + "\n")
