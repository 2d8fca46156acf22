"""In-memory span recorder that wraps winavc functions from outside the library.

Each wrapped function is replaced at the module (or class) attribute its
callers look up at call time, so the library itself stays untouched.  A span
is (name, start, end, parent span index, op id); spans live in a list until
the run ends and are written out as JSON.  A layer's self time is its span
durations minus the time covered by its direct child spans (spans nest
strictly in a single-threaded run, so children never overlap).

Hooks run after a span closes and may read the call's arguments and result to
update per-layer counters; they stay out of the wrapped function's time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.records: defaultdict[str, list] = defaultdict(list)
        self.op_id = -1
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name: str, owner, attr: str, hook=None) -> bool:
        """Replace owner.attr with a traced wrapper; False if owner has no attr.

        A function looked up under several names is wrapped once per name,
        each wrapper recording under the same span name.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        return True

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
        return out

    def write(self, path) -> None:
        """Write spans with times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - t0, 9), round(end - t0, 9), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}, fh)
