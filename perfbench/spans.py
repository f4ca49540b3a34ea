"""In-memory spans and interpreter GC accounting for the benchmark.

Spans are recorded only around calls the benchmark makes into the
program's public functions; nothing inside ``src/`` is instrumented.  A
disabled :class:`Tracer` hands out one shared no-op context, so the
untraced path pays a method call per boundary and nothing else.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

_NULL = nullcontext()


class Span:
    __slots__ = ("tracer", "name", "run", "parent", "index", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, run: Any, parent: Optional[int]) -> None:
        self.tracer = tracer
        self.name = name
        self.run = run
        self.parent = parent
        self.index = -1
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(self)
        tracer.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()


class Tracer:
    """Spans with name, start, end, parent and run id, kept until the end.

    ``run`` groups the spans of one unit of work (a repetition of an
    in-process workload, one session cycle of the service workload).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.run: Any = None

    def span(self, name: str) -> Any:
        if not self.enabled:
            return _NULL
        parent = self.stack[-1] if self.stack else None
        return Span(self, name, self.run, parent)

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def per_run(self, name: str) -> Dict[Any, float]:
        """Self time of spans called ``name``, summed per run id."""
        totals: Dict[Any, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span.name == name:
                totals[span.run] += own
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        return [span.end - span.start for span in self.spans if span.name == name]

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "run": span.run,
                }
                handle.write(json.dumps(record) + "\n")


class GcMeter:
    """Total pause time and collection count of the cyclic GC.

    Installed through ``gc.callbacks``; GC itself stays enabled, since
    users run with it on.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)

    def reading(self) -> tuple:
        return self.seconds, self.collections
