"""In-memory span recorder and the timing wrappers that feed it.

A span is one call into a layer: ``name``, ``start``/``end`` (``perf_counter``
seconds, which on Linux is the system-wide monotonic clock, so spans from
forked workers share the parent's time base), the ``parent`` span that was
open when it started, the ``pid`` that recorded it and optional ``attrs``
(counts measured at the same boundary, e.g. ``{"hit": true}``).

Spans stay in the recorder's memory until :meth:`SpanRecorder.write` dumps
them as JSON lines.  A forked multiprocessing worker starts with an empty
buffer (keeping the parent's open-span stack, so its first span links to the
span that forked it); the spans of each task it runs travel back to the
parent attached to the task's outcome, and the parent's traced generator
adopts them as it yields the outcome.  No worker writes a file, so nothing
depends on how or when the pool stops its workers.

Self time of a span is its duration minus the part of it covered by the
spans it caused *in the same process*; work a worker did on a parent span's
behalf overlaps it in time but is not subtracted from it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: ``probe(args, kwargs)`` runs before the wrapped call and returns
#: ``finish(result) -> attrs`` which runs after it.
Probe = Callable[[tuple, dict], Callable[[Any], Dict[str, Any]]]


class SpanRecorder:
    """Records the spans of one process."""

    #: Attribute under which a worker's spans ride back on a task outcome.
    CARRIER = "perfbench_spans"

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.in_worker = False
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._counter = 0

    # ----------------------------------------------------------------- spans
    def current_name(self) -> Optional[str]:
        return self._stack[-1]["name"] if self._stack else None

    def open(self, name: str) -> Dict[str, Any]:
        span = {
            "name": name,
            "id": f"{self.pid}.{self._counter}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pid": self.pid,
            "start": perf_counter(),
        }
        self._counter += 1
        self._stack.append(span)
        return span

    def close(self, span: Dict[str, Any], attrs: Optional[Dict[str, Any]] = None) -> None:
        span["end"] = perf_counter()
        if attrs:
            span["attrs"] = attrs
        self._stack.remove(span)
        self.spans.append(span)

    # ------------------------------------------------------- worker transport
    def install_fork_hooks(self) -> None:
        """Give each forked worker its own, empty span buffer."""
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def _after_fork_in_child(self) -> None:
        self.pid = os.getpid()
        self.in_worker = True
        self.spans = []
        self._counter = 0

    def attach(self, outcome: Any) -> None:
        """In a worker: move the spans recorded so far onto ``outcome``."""
        object.__setattr__(outcome, self.CARRIER, self.spans)
        self.spans = []

    def adopt(self, outcome: Any) -> None:
        """In the parent: take over the spans a worker attached to ``outcome``."""
        spans = getattr(outcome, self.CARRIER, None)
        if spans is not None:
            object.__delattr__(outcome, self.CARRIER)
            self.spans.extend(spans)

    def write(self, path: Path) -> None:
        """Dump every recorded span as JSON lines."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def wrap(
    recorder: SpanRecorder,
    fn: Callable,
    name: str,
    probe: Optional[Probe] = None,
    outermost: bool = False,
) -> Callable:
    """A timing wrapper around ``fn`` recording one span per call.

    Generator functions get one span per resumption, so a backend's
    ``execute`` generator is charged only for the time it actually runs, not
    for the time its consumer spends between items; each item it yields
    hands over the worker spans it carries (:meth:`SpanRecorder.adopt`).  With ``outermost``, a
    call made while a span of the same name is open is not recorded again
    (an override calling ``super()``).
    """
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(recorder, fn, name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if outermost and recorder.current_name() == name:
            return fn(*args, **kwargs)
        finish = probe(args, kwargs) if probe is not None else None
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(span, {"error": True})
            raise
        recorder.close(span, finish(result) if finish is not None else None)
        return result

    return traced


def _wrap_generator(recorder: SpanRecorder, fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        sent = None
        while True:
            span = recorder.open(name)
            try:
                item = inner.send(sent)
            except StopIteration as stop:
                recorder.close(span)
                return stop.value
            except BaseException:
                recorder.close(span, {"error": True})
                raise
            recorder.close(span)
            recorder.adopt(item)
            try:
                sent = yield item
            except GeneratorExit:
                inner.close()
                raise

    return traced


# ------------------------------------------------------------------ reading
def read_spans(path: Path) -> List[Dict[str, Any]]:
    with Path(path).open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the union of its same-process children."""
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent.split(".")[0] == str(span["pid"]):
            children.setdefault(parent, []).append(span)
    result: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result
