"""Execution tracing: one span model for every timeline in the repo.

A :class:`Tracer` collects (who, what, when) spans and exports them in
the Chrome trace-event format (open ``chrome://tracing`` or
https://ui.perfetto.dev and load the JSON), so kernel pipelines can be
inspected visually, the way the paper's team debugged software
pipelining and instruction scheduling (Section 6.1).

The discrete-event simulator records every fixed-function-unit command,
DMA transfer and stall into one in *cycles*; the serving, executor and
critical-path code record request waterfalls into one in
*microseconds*::

    request 1234                      (track ``request.1234``)
      ├─ batch_wait                   waiting for the batch to form
      ├─ queue_wait                   batch formed, device still busy
      └─ execute        ──flow──▶  batch 17       (track ``serving.device``)
                                     └─ graph_execute ── per-op spans
                                         └──flow──▶ pe0.dpe MML ...  (cycles)

Every span has an id and a parent id (the innermost span opened with
:meth:`Tracer.span` or :meth:`Tracer.attach`), so exports keep the tree;
:meth:`Tracer.link` draws a flow arrow between two spans, which may live
in different tracers.  :func:`chrome_trace` lays one or more tracers on
one timeline, each with its own microsecond scale and offset.

Contract (shared with the metrics registry and stall hooks, and checked
by the conformance determinism pillar): a disabled tracer is a strict
no-op — :meth:`Tracer.record` returns after one ``enabled`` test,
records nothing and never perturbs the instrumented computation.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One traced interval, in its tracer's unit (cycles or µs)."""

    track: str          #: e.g. "pe0.dpe" — becomes the trace row (tid)
    name: str           #: e.g. "MML" — the span label
    start: float
    end: float
    args: dict          #: extra key/value pairs for the viewer
    #: explicit process row for the viewer; when empty, the track's
    #: first dot-component is used (so "pe0.dpe" lands on process
    #: "pe0").  Multi-card and serving spans set this so they do not
    #: collide on one process row.
    pid: str = ""
    #: Chrome-trace flow ids arriving at / departing this span
    flow_in: tuple = ()
    flow_out: tuple = ()
    span_id: int = 0
    parent_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span collector with Chrome-trace export.

    Disabled tracers are no-ops so the hooks can stay in the hot path;
    enable with ``Tracer(enabled=True)`` or via
    ``Accelerator(trace=True)``.  Times are explicit, so simulations
    record *virtual* time: :meth:`record` a finished span under the
    current parent, or open one with :meth:`span` so spans recorded
    inside the ``with`` body become its children.
    """

    def __init__(self, enabled: bool = False, default_pid: str = "") -> None:
        self.enabled = enabled
        #: process row assigned to spans that do not name their own pid
        #: (a multi-card runtime sets this to the card name so two
        #: cards' "pe0" tracks stay on separate rows)
        self.default_pid = default_pid
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_flow = 1

    # -- recording ---------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span (the parent of the next record)."""
        return self._stack[-1] if self._stack else None

    def record(self, track: str, name: str, start: float, end: float,
               pid: Optional[str] = None, flow_in: tuple = (),
               flow_out: tuple = (), **args) -> Optional[Span]:
        """Record one finished span; returns it (``None`` if disabled)."""
        if not self.enabled:
            return None
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        parent = self._stack[-1] if self._stack else None
        span = Span(track, name, start, end, args,
                    pid if pid is not None else self.default_pid,
                    tuple(flow_in), tuple(flow_out), len(self.spans) + 1,
                    parent.span_id if parent is not None else None)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, track: str, name: str, start: float, end: float,
             pid: Optional[str] = None, **args) -> Iterator[Optional[Span]]:
        """Record a span and open it, so spans recorded inside attach."""
        with self.attach(self.record(track, name, start, end, pid=pid,
                                     **args)) as span:
            yield span

    @contextmanager
    def attach(self, span: Optional[Span]) -> Iterator[Optional[Span]]:
        """Re-enter an already-recorded span as the parent.

        Lets a pipeline record children under a span created earlier
        (e.g. per-op spans under a serving batch's device span).
        """
        if span is None:
            yield None
            return
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    def new_flow(self) -> int:
        """Allocate a flow id (unique among this tracer's links)."""
        fid = self._next_flow
        self._next_flow += 1
        return fid

    def link(self, src: Optional[Span],
             dst: Optional[Span] = None) -> Optional[int]:
        """Draw a flow arrow ``src -> dst``; returns the flow id.

        ``dst`` may belong to another tracer exported alongside this
        one; allocate every link of one export from one tracer so the
        ids stay unique.  Without ``dst`` only the arrow's source is
        marked.
        """
        if not self.enabled or src is None:
            return None
        fid = self.new_flow()
        src.flow_out += (fid,)
        if dst is not None:
            dst.flow_in += (fid,)
        return fid

    # -- queries -----------------------------------------------------------
    def tracks(self) -> List[str]:
        return sorted({s.track for s in self.spans})

    def spans_on(self, track: str) -> List[Span]:
        return sorted((s for s in self.spans if s.track == track),
                      key=lambda s: s.start)

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def busy_cycles(self, track: str) -> float:
        return sum(s.duration for s in self.spans_on(track))

    def utilization(self, track: str, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles(track) / elapsed)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-track span counts and busy cycles."""
        out: Dict[str, Dict[str, float]] = {}
        for track in self.tracks():
            spans = self.spans_on(track)
            out[track] = {"spans": len(spans),
                          "busy_cycles": sum(s.duration for s in spans)}
        return out

    # -- export ------------------------------------------------------------
    def to_chrome_trace(self, frequency_ghz: float = 0.8) -> dict:
        """This cycle-domain tracer alone (see :func:`chrome_trace`)."""
        return chrome_trace((self, 1.0 / (frequency_ghz * 1e3), 0.0))

    def save(self, path: str, frequency_ghz: float = 0.8) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(frequency_ghz), fh)


def chrome_trace(*layers) -> dict:
    """Chrome trace-event JSON of one or more tracers on one timeline.

    Each layer is a tracer recorded in microseconds, or a
    ``(tracer, us_per_unit, offset_us)`` triple: a span starting at
    ``start`` lands at ``offset_us + start * us_per_unit`` (a cycle
    tracer at ``f`` GHz has ``us_per_unit = 1 / (1000 f)``).

    Process rows are numbered in one namespace, one per (layer, process
    name), and every row gets a ``process_name``; the process name is
    the span's ``pid``, else the track's first dot-component.  The
    thread row is the full track.  A span in a tree carries its
    ``span_id`` (and ``parent_id``) in its args.  Flow ids become
    ``s``/``f`` flow-event pairs under category ``flow``.
    """
    events: List[dict] = []
    pids: Dict[Tuple[int, str], int] = {}
    for index, layer in enumerate(layers):
        tracer, scale, offset = (layer if isinstance(layer, tuple)
                                 else (layer, 1.0, 0.0))
        parents = {s.parent_id for s in tracer.spans}
        for span in tracer.spans:
            key = (index, span.pid or span.track.split(".")[0])
            pid = pids.setdefault(key, len(pids))
            args = dict(span.args)
            if span.parent_id is not None or span.span_id in parents:
                args["span_id"] = span.span_id
                if span.parent_id is not None:
                    args["parent_id"] = span.parent_id
            ts = offset + span.start * scale
            dur = max(span.duration, 1e-3) * scale
            events.append({"name": span.name,
                           "cat": span.track.split(".")[-1], "ph": "X",
                           "ts": ts, "dur": dur, "pid": pid,
                           "tid": span.track, "args": args})
            # an arrow leaves just inside its source's end and lands
            # on its destination's start
            for fid in span.flow_out:
                events.append({"name": "flow", "cat": "flow", "ph": "s",
                               "id": fid, "ts": max(ts, ts + dur - 1e-3),
                               "pid": pid, "tid": span.track})
            for fid in span.flow_in:
                events.append({"name": "flow", "cat": "flow", "ph": "f",
                               "bp": "e", "id": fid, "ts": ts, "pid": pid,
                               "tid": span.track})
    for (_, name), pid in pids.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
    return {"traceEvents": events, "displayTimeUnit": "ns"}
