"""The benchmark's own span recorder.

Spans are recorded around the benchmark's calls into each layer (the
engine's tracer stays off): name, start, end, the span that caused it,
and one trace id per pass.  They are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator


class SpanRecorder:
    """In-memory span list with a parent stack (one recorder per thread)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._trace = 0

    def new_trace(self) -> int:
        """Start the next pass; returns its trace id."""
        self._trace += 1
        return self._trace

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        """Time the enclosed block as a child of the innermost open span."""
        record = self._open(name, time.perf_counter(), attrs)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(
        self,
        name: str,
        start: float,
        seconds: float,
        parent: dict | None = None,
        **attrs: object,
    ) -> dict:
        """Record a span measured elsewhere (e.g. an operator's own timer)."""
        record = self._open(name, start, attrs, parent)
        record["end"] = start + seconds
        return record

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Re-parent another recorder's spans under ``parent``.

        Used where the stages of an operation can only be measured
        beside it, not inside it.  The other recorder's root spans are
        laid end to end from ``parent``'s start, each carrying its
        subtree along; if together they are longer than ``parent`` (they
        ran at another moment, on a machine whose speed wanders) they
        are shrunk to fit, so they split the parent's time in their own
        proportions and never exceed it.  Ids are renumbered into this
        recorder.
        """
        total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        room = parent["end"] - parent["start"]
        scale = min(1.0, room / total) if total > 0 else 1.0
        cursor = parent["start"]
        # old id -> (new id, old root start, new root start)
        moved: dict[int, tuple[int, float, float]] = {}
        for span in spans:
            if span["parent"] is None:
                new_parent, old_origin, origin = parent["id"], span["start"], cursor
                cursor += (span["end"] - span["start"]) * scale
            else:
                new_parent, old_origin, origin = moved[span["parent"]]
            copy = {
                **span, "id": len(self.spans) + 1, "trace": self._trace,
                "parent": new_parent,
                "start": origin + (span["start"] - old_origin) * scale,
                "end": origin + (span["end"] - old_origin) * scale,
            }
            moved[span["id"]] = (copy["id"], old_origin, origin)
            self.spans.append(copy)

    def _open(
        self, name: str, start: float, attrs: dict, parent: dict | None = None
    ) -> dict:
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {
            "id": len(self.spans) + 1,
            "trace": self._trace,
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "start": start,
            "end": start,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        return record

    def dump(self, path: str, count: int | None = None, **header: object) -> None:
        """Write the first ``count`` spans (default: all), times relative
        to the first, as one JSON file."""
        origin = min((span["start"] for span in self.spans), default=0.0)
        spans = [
            {
                **span,
                "start": round(span["start"] - origin, 7),
                "end": round(span["end"] - origin, 7),
            }
            for span in self.spans[:count]
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": spans}, handle, separators=(",", ":"))
            handle.write("\n")
