"""In-memory span recorder for the benchmark's own files.

Spans are recorded around the benchmark's calls into each layer (client
calls, and the in-process replay of the layer entry points).  They stay
in memory and are written once, at the end of the run.  A span's layer
is the first two dotted parts of its name (``machine.vector.plan_for``
belongs to ``machine.vector``); ``bench.*`` spans are the benchmark's
own phases, and their self time is the residual no layer span covers.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from stats import self_time

#: Span name prefix of the benchmark's own phases.
PHASE_LAYER = "bench"


def layer_of(name: str) -> str:
    return ".".join(name.split(".")[:2])


class SpanRecorder:
    """Thread-safe recorder; when disabled, :meth:`span` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None,
             parent: Optional[int] = None) -> Iterator[Optional[int]]:
        """Record ``name`` around the block.  The parent is the innermost
        open span of this thread unless ``parent`` names another (a
        client thread's spans hang under the window phase)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({"id": span_id, "name": name,
                                   "start": start, "end": end,
                                   "parent": parent, "request": request})

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                stream.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: self_time(span["start"], span["end"],
                                  children.get(span["id"], []))
            for span in spans}


def layer_table(spans: list[dict]) -> dict:
    """Per-layer self time plus the residual of the benchmark's phases.

    Returns ``{"layers": {layer: self_s}, "residual_s", "phase_s",
    "residual_share"}``; the residual is the phase spans' self time, the
    part of the measured phases that no layer span covers.
    """
    own = self_times(spans)
    layers: dict[str, float] = {}
    residual = phase = 0.0
    for span in spans:
        layer = layer_of(span["name"])
        if span["name"].split(".")[0] == PHASE_LAYER:
            residual += own[span["id"]]
            phase += span["end"] - span["start"]
        else:
            layers[layer] = layers.get(layer, 0.0) + own[span["id"]]
    return {"layers": layers, "residual_s": residual, "phase_s": phase,
            "residual_share": residual / phase if phase > 0 else 0.0}
