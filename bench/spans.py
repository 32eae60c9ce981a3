"""In-memory spans for the traced run.

The benchmark records a span around each call it makes into bsig; nothing
inside the library is instrumented. Spans of one job share its job id, nest
through their parent id, and are written out once, when the run ends. A
span's self time is its duration minus the time its children cover (calls
are sequential, so children never overlap).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class Span:
    sid: int
    name: str
    job: str
    parent: Optional[int]
    source: str  # "workload" or "probe"
    start: float = 0.0
    end: float = 0.0
    ok: bool = True
    bp_in: int = 0
    bp_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    trials: int = 0
    strictness: int = 0
    child_s: float = field(default=0.0, repr=False)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def breakpoints(x) -> int:
    """Breakpoints carried by a StepFn, an IntervalSet (two ends per
    interval) or a tuple of them; 0 for anything else."""
    if isinstance(x, tuple):
        return sum(breakpoints(y) for y in x)
    if hasattr(x, "times") and hasattr(x, "point_values"):
        return len(x.times)
    if hasattr(x, "intervals"):
        return 2 * len(x.intervals)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.job = ""
        self.source = "workload"
        self.replay_mismatch = 0  # replayed batches whose counts differ from the batch's

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self.job, parent, self.source)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, ok: bool = True) -> None:
        """End span, and any span still open inside it (a call that raised)."""
        span.end = time.perf_counter()
        span.ok = ok
        while self._stack.pop() is not span:
            pass
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span; breakpoints are counted after it closes."""
        span = self.open(name)
        try:
            result = fn(*args)
        except BaseException:
            self.close(span, ok=False)
            raise
        self.close(span)
        span.bp_in = sum(breakpoints(a) for a in args)
        span.bp_out = breakpoints(result)
        return result

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                doc = asdict(s)
                doc["self_s"] = s.self_s
                del doc["child_s"]
                fh.write(json.dumps(doc) + "\n")

