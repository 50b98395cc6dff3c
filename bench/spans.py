"""In-memory spans recorded by the benchmark around its calls into ddmr.

Nothing here hooks into ddmr itself: a span is opened and closed by the
benchmark code that makes the call. Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans; ``op`` is the id shared by the spans of one operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(name, time.perf_counter(), 0.0, parent, op, attrs)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_ms(self, ops: set[str]) -> dict[str, float]:
        """Total self time per layer over the spans of ``ops``.

        A span's self time is its duration minus the time its direct children
        cover; children never overlap because calls are sequential.
        """
        child_ms = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_ms[sp.parent] += sp.ms
        out: dict[str, float] = {}
        for sp, covered in zip(self.spans, child_ms):
            if sp.op in ops:
                out[sp.layer] = out.get(sp.layer, 0.0) + sp.ms - covered
        return out

    def write(self, path: Path, extra: dict) -> None:
        payload = dict(extra, spans=[asdict(s) for s in self.spans])
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


class NullTracer:
    """Stand-in for untraced operations: same interface, records nothing."""

    def span(self, name: str, op: str, **attrs):
        return nullcontext(None)
