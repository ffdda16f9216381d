"""In-memory spans recorded around calls into the program's layers.

The benchmark measures each layer from outside: it wraps one public
call per span and never instruments the program itself.  A span's
name is ``<layer>.<call>``; spans of one op share an op id, and a span
opened inside another records it as its parent.  Nothing is written
until :meth:`SpanRecorder.dump` is called at the end of a run.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional

#: The program's modules that have a public call of their own to time,
#: in pipeline order; a span's layer is the prefix of its name.
#: ``kernels`` runs only inside ``gpusim`` calls, ``obs`` is the
#: program's own tracing (off here) and ``parallel`` does no work at
#: the default single worker, so none of them gets a span.
LAYERS = ("apps", "gpusim", "analyzer", "core", "runtime", "store", "serve")


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op_id: str
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span sink; each thread keeps its own open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """Tag every span opened in this thread with ``op_id``."""
        previous = getattr(self._local, "op_id", "")
        self._local.op_id = op_id
        try:
            yield
        finally:
            self._local.op_id = previous

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            op_id=getattr(self._local, "op_id", ""),
            name=name,
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def per_op_total(self, name: str) -> Dict[str, float]:
        """Summed duration of the spans called ``name``, by op id."""
        totals: Dict[str, float] = {}
        for span in self.named(name):
            totals[span.op_id] = totals.get(span.op_id, 0.0) + span.duration
        return totals

    def self_seconds(self) -> Dict[str, float]:
        """Each layer's self time: span time not covered by child spans."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.duration
                )
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span.layer in totals:
                totals[span.layer] += span.duration - child_time.get(
                    span.span_id, 0.0
                )
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
