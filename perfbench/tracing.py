"""Spans for the traced run: a per-thread span stack and self-time arithmetic.

Every wrapper (see :mod:`perfbench.layers`) opens a :class:`Span` on the
calling thread's stack and closes it when the call returns or raises.  A
span's parent is the span below it on the same stack; a thread that
works on behalf of another (a shard worker, a deadline solve) is
*linked* to the span that handed it the work, so all spans of one op
share the op id.

A layer's self time is its spans' duration minus the part of that
duration their child spans cover (the union of the children's
intervals, so two children running at once on two threads are not
subtracted twice).  Op time that no child span covers is reported as
*unattributed*.  Spans are kept in memory and written as JSONL once the
run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

#: Layer name of the root span each op opens.
OP = "op"


@dataclass
class Span:
    """One wrapped call: what ran, when, under which parent and op."""

    id: int
    layer: str
    call: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    thread: int = 0
    phase: str = ""
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Label stamped on every span opened from now on ("setup", "ops").
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span of this thread, or the span it is linked to."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "link", None)

    def open(self, layer: str, call: str, *, op: int | None = None) -> Span:
        parent = self.current()
        span = Span(
            id=next(self._ids),
            layer=layer,
            call=call,
            start=time.perf_counter(),
            parent=None if parent is None else parent.id,
            op=op if op is not None or parent is None else parent.op,
            thread=threading.get_ident(),
            phase=self.phase,
        )
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.call} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, layer: str, call: str) -> Iterator[Span]:
        opened = self.open(layer, call)
        try:
            yield opened
        finally:
            self.close(opened)

    @contextmanager
    def linked(self, parent: Span | None) -> Iterator[None]:
        """Open this thread's outermost spans as children of ``parent``."""
        previous = getattr(self._local, "link", None)
        self._local.link = parent
        try:
            yield
        finally:
            self._local.link = previous

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_table(spans: Iterable[Span]) -> tuple[list[tuple[str, float, int]], float]:
    """Self time per layer inside ops, plus the unattributed op time.

    Returns ``(rows, op_seconds)``: one ``(layer, self_seconds, spans)``
    row per layer whose spans ran inside an op, then an
    ``("unattributed", seconds, ops)`` row; ``op_seconds`` is the summed
    duration of all ops.  Rows of layers that ran on parallel worker
    threads can sum to more than the op time.
    """
    spans = list(spans)
    selfs = self_times(spans)
    per_layer: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    op_seconds = 0.0
    unattributed = 0.0
    ops = 0
    for span in spans:
        if span.layer == OP:
            ops += 1
            op_seconds += span.duration
            unattributed += selfs[span.id]
        elif span.op is not None:
            per_layer[span.layer] += selfs[span.id]
            counts[span.layer] += 1
    rows = [
        (layer, per_layer[layer], counts[layer]) for layer in sorted(per_layer)
    ]
    rows.append(("unattributed", unattributed, ops))
    return rows, op_seconds


def format_table(rows: list[tuple[str, float, int]], op_seconds: float) -> str:
    lines = [f"{'layer':<14} {'self ms':>12} {'share':>8} {'spans':>9}"]
    for layer, seconds, count in rows:
        share = seconds / op_seconds if op_seconds else 0.0
        lines.append(
            f"{layer:<14} {seconds * 1e3:>12.1f} {share:>8.1%} {count:>9d}"
        )
    lines.append(f"{'op time':<14} {op_seconds * 1e3:>12.1f}")
    return "\n".join(lines)
