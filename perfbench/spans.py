"""In-memory spans and counts recorded around calls into each layer.

The traced run wraps public methods of the objects a workload builds
(instance attributes only; nothing in ``src/`` changes) and records one
span per call: name, start, end, parent span and the id of the client
operation that caused it. Spans stay in memory and are written out once,
when the run ends. A layer's self time is its span's duration minus the
time covered by its child spans (calls are nested and single-threaded, so
the children of a span never overlap).

Tracing toggles per block of client operations (see ``run.py``), so the
traced and untraced halves of one run see the same data and their latency
gap is the tracing overhead.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.op_id = 0
        # [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        # Calls per span name, counted whether or not tracing is on.
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self) -> None:
        self.op_id += 1

    def count(self, name: str, amount: float = 1) -> None:
        if self.on:
            self.counts[name] += amount

    def shim(self, fn, name: str):
        """``fn`` wrapped so each call made while tracing is one span."""
        calls = self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            if not self.on:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), 0.0, parent, self.op_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def wrap(self, obj, method: str, name: str) -> None:
        """Trace ``obj.method`` by shadowing it with an attribute of
        ``obj`` (an instance, or a class to trace every instance)."""
        setattr(obj, method, self.shim(getattr(obj, method), name))

    def reroute_observers(self, db, observers: list[tuple]) -> None:
        """Re-register ``db`` observers, given as (callback, span name) in
        their registration order, through timing shims. Only the public
        ``subscribe``/``unsubscribe`` are used and the order is kept."""
        for callback, _ in observers:
            db.unsubscribe(callback)
        for callback, name in observers:
            db.subscribe(self.shim(callback, name))

    def reroute_checkpointers(self, db, hooks: list[tuple]) -> None:
        """The same for save hooks registered with ``register_checkpointer``."""
        for save, _ in hooks:
            db.unregister_checkpointer(save)
        for save, name in hooks:
            db.register_checkpointer(self.shim(save, name))

    # -- analysis ----------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total ms, self ms) over every recorded span."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total = (end - start) * 1000.0
            row = out[name]
            row[0] += 1
            row[1] += total
            row[2] += total - child_ms[index]
        return {name: tuple(row) for name, row in out.items()}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")

