"""Causal critical-path profiling over the DES event graph.

The union-accounted profiler (:mod:`repro.obs.profiler`) answers *where
time went*; this module answers *what gated the finish time*.  MTIA's
operators are concurrent pipelines — DMA vs. compute vs. NoC vs. DRAM —
so a roofline-style analysis needs the critical path through the
dependency DAG, not an overlap breakdown.

Three layers:

* :class:`EdgeRecorder` — opt-in dependency-edge recording inside the
  engine.  Every scheduled callback (one *node* per engine ticket)
  records its triggering *parent*: the node that was executing when it
  was scheduled — a plain callback, an event wakeup, a resource grant,
  a process spawn, or a timed delay.  Recording never schedules
  anything and never draws an extra ticket, so the simulated event
  stream is bit-identical with recording on or off (the conformance
  ``determinism`` pillar proves the *off* case is byte-identical and
  the *on* case result-identical).
* :func:`extract_critical_path` — walks the edge DAG backward from any
  completion node.  Consecutive node times tile the interval
  ``[root, completion]`` exactly (segments share boundary floats), so
  the critical-segment sum *is* ``completion - root`` — the path-sum
  invariant is IEEE-exact, not approximate.
* :func:`serving_critical_path` / :func:`fleet_critical_path` — the
  same path shape reconstructed for the analytical serving/fleet
  simulators from their exact per-request arrays.  ``path.total`` is
  computed with the *same* float operations the simulator used to
  store ``latencies_us``, so ``path.total == latencies_us[r]`` holds
  bit-for-bit under every routing policy and fault plan.  These two
  own the request-phase layout: a segment's ``kind`` is the report's
  phase name, in the order the phases tile a request (``route_overhead``,
  ``hedge_wait``, ``retry_overhead``, ``batch_wait``, ``queue_wait``,
  ``execute``), and :func:`record_request_spans` draws every request
  waterfall from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EdgeRecorder", "Segment", "CriticalPath", "CriticalPathError",
           "classify_label", "extract_critical_path",
           "serving_critical_path", "fleet_critical_path",
           "slowest_critical_paths", "record_request_spans"]


class CriticalPathError(ValueError):
    """A critical path violated its structural invariants."""


# ---------------------------------------------------------------------------
# resource classification
# ---------------------------------------------------------------------------

#: compute-unit name fragments (PE pipelines and sequencers)
_COMPUTE_TOKENS = (".dpe", ".se", ".mlu", ".re", ".fi", "sched")


def classify_label(label: str, kind: str = "") -> str:
    """Map a node label (event/process/resource name) to a resource.

    Labels follow the hardware models' naming conventions —
    ``dram.ctrl0.xfer``, ``sram.slice3.xfer``, ``noc.row1``,
    ``pe00.lm.port``, ``rednet.inbox5.get``, ``*.acquire`` semaphore
    grants — so a prefix/suffix match is exact, not heuristic.
    """
    if label.startswith("dram."):
        return "dram"
    if label.startswith("sram."):
        return "sram"
    if label.startswith("noc."):
        return "noc"
    if label.startswith("rednet"):
        return "rednet"
    if label.startswith("regnet"):
        return "regnet"
    if ".lm." in label or label.endswith(".lm"):
        return "local_memory"
    if label.endswith(".acquire"):
        return "semaphore"
    if label.endswith(".put") or label.endswith(".get"):
        return "queue"
    if label.startswith("timeout("):
        return "wait"
    if label.startswith(("firmware", "control", "cp.")):
        return "control"
    if any(token in label for token in _COMPUTE_TOKENS):
        return "compute"
    return "other"


def _label_of(callback: Callable) -> str:
    """Best label for a scheduled callback, by introspection.

    Bound methods of named objects (events, processes, resources) label
    as the owner's name; ``functools.partial`` unwraps to its target;
    anything else falls back to the qualified function name.
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", "")
        if name:
            return name
        return f"{type(owner).__name__}.{callback.__name__}"
    inner = getattr(callback, "func", None)   # functools.partial
    if inner is not None:
        return _label_of(inner)
    return getattr(callback, "__qualname__",
                   getattr(callback, "__name__", "callback"))


# ---------------------------------------------------------------------------
# the edge recorder (engine-attached, opt-in)
# ---------------------------------------------------------------------------

class EdgeRecorder:
    """Dependency edges of one simulated run, keyed by engine ticket.

    Attached via ``engine.edges = EdgeRecorder()`` (or
    ``Accelerator(record_edges=True)``).  The engine calls the ``on_*``
    hooks at every ticket draw and every callback execution; with
    ``engine.edges is None`` (the default) each hook site costs one
    attribute check and the event stream is bit-identical to a kernel
    without the hooks at all.

    Node state is parallel dicts (tickets are not dense when the
    recorder attaches mid-run):

    * ``parent[t]`` — the node executing when ``t`` was scheduled
      (``None`` for host-code roots),
    * ``kind[t]`` — ``spawn`` / ``callback`` / ``wakeup`` / ``delay``,
    * ``label[t]`` — the event/process/resource name behind the edge,
    * ``wait_parent[t]`` — for wakeups: the node that *registered* the
      wait (the what-if projector needs both constraints),
    * ``time[t]`` / ``order`` — execution time and global execution
      order (parents always execute before children: the DAG check).
    """

    __slots__ = ("parent", "kind", "label", "wait_parent", "time",
                 "order", "resource", "service", "current",
                 "_registrations", "_pending_charge")

    def __init__(self) -> None:
        self.parent: Dict[int, Optional[int]] = {}
        self.kind: Dict[int, str] = {}
        self.label: Dict[int, str] = {}
        self.wait_parent: Dict[int, int] = {}
        self.time: Dict[int, float] = {}
        self.order: List[int] = []
        #: delay edges backed by a Resource reservation: ticket ->
        #: resource name / pure service cycles (queue wait is the rest
        #: of the edge) — lets the what-if projector replay the
        #: resource's queue recurrence instead of scaling queue time
        self.resource: Dict[int, str] = {}
        self.service: Dict[int, float] = {}
        #: ticket of the currently-executing node (None in host code)
        self.current: Optional[int] = None
        #: per live event: waiter nodes in registration order
        self._registrations: Dict[int, List[int]] = {}
        self._pending_charge: Optional[tuple] = None

    # -- engine hooks ----------------------------------------------------
    def on_schedule(self, ticket: int, callback: Callable,
                    delay: float) -> None:
        """A callback was scheduled ``delay`` cycles ahead (0 = now)."""
        self.parent[ticket] = self.current
        self.kind[ticket] = "delay" if delay > 0 else "callback"
        self.label[ticket] = _label_of(callback)
        pending = self._pending_charge
        if pending is not None:
            self._pending_charge = None
            self.resource[ticket] = pending[0]
            self.service[ticket] = pending[1]

    def on_charge(self, resource: str, service: float) -> None:
        """A :class:`~repro.sim.resources.Resource` reservation was
        made; the caller's next ``schedule`` call is its completion."""
        self._pending_charge = (resource, service)

    def on_spawn(self, ticket: int, name: str) -> None:
        """A new process's start callback was enqueued."""
        self.parent[ticket] = self.current
        self.kind[ticket] = "spawn"
        self.label[ticket] = name

    def on_wait(self, event: Any) -> None:
        """A callback was registered on a pending event.

        Host-code registrations (``current is None``) still occupy a
        slot so wakeups pair with their registrants positionally.
        """
        self._registrations.setdefault(id(event), []).append(self.current)

    def on_wakeup(self, ticket: int, event: Any) -> None:
        """A triggered event enqueued one waiter callback."""
        self.parent[ticket] = self.current
        self.kind[ticket] = "wakeup"
        self.label[ticket] = getattr(event, "name", "") or "event"
        waiting = self._registrations.get(id(event))
        if waiting:
            registrant = waiting.pop(0)
            if not waiting:
                del self._registrations[id(event)]
            if registrant is not None:
                self.wait_parent[ticket] = registrant

    def on_execute(self, ticket: int, now: float) -> None:
        """The run loop is about to execute node ``ticket``."""
        self.time[ticket] = now
        self.order.append(ticket)
        self.current = ticket

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.order)

    def stats(self) -> Dict:
        kinds: Dict[str, int] = {}
        for ticket in self.order:
            k = self.kind.get(ticket, "?")
            kinds[k] = kinds.get(k, 0) + 1
        return {"nodes": len(self.order),
                "scheduled": len(self.parent),
                "kinds": {k: kinds[k] for k in sorted(kinds)},
                "charges": len(self.resource),
                "pending_waits": sum(len(v) for v
                                     in self._registrations.values())}


# ---------------------------------------------------------------------------
# path representation
# ---------------------------------------------------------------------------

@dataclass
class Segment:
    """One critical interval: ``[start, end]`` attributed to a resource.

    ``duration == end - start`` always; segments of a path share their
    boundary floats, so consecutive durations telescope exactly.
    """

    start: float
    end: float
    duration: float
    resource: str
    kind: str
    label: str

    def to_dict(self) -> Dict:
        return {"start": self.start, "end": self.end,
                "duration": self.duration, "resource": self.resource,
                "kind": self.kind, "label": self.label}


@dataclass
class CriticalPath:
    """The gating chain from a root to one completion.

    Invariants (:meth:`verify` raises on violation):

    * segments tile: ``segments[i].start == segments[i-1].end`` exactly;
    * every ``duration == end - start`` exactly;
    * ``total == end - start`` (bit-exact for DES and serving paths;
      fleet paths compose ``total`` with the simulator's own
      ``(route + hedge) + local`` op tree, equal in exact arithmetic).
    """

    unit: str                       #: "cycles" (DES) or "us" (serving)
    total: float
    start: float
    end: float
    segments: List[Segment]
    nodes: List[int] = field(default_factory=list)
    attrs: Dict = field(default_factory=dict)

    def verify(self) -> "CriticalPath":
        cursor = self.start
        for i, seg in enumerate(self.segments):
            if seg.start != cursor:
                raise CriticalPathError(
                    f"segment {i} starts at {seg.start!r}, expected "
                    f"{cursor!r} (segments must tile)")
            if seg.end < seg.start:
                raise CriticalPathError(
                    f"segment {i} runs backward: {seg.start!r} -> "
                    f"{seg.end!r}")
            if seg.duration != seg.end - seg.start:
                raise CriticalPathError(
                    f"segment {i} duration {seg.duration!r} != "
                    f"end - start")
            cursor = seg.end
        if cursor != self.end:
            raise CriticalPathError(
                f"segments end at {cursor!r}, path ends at {self.end!r}")
        span = self.end - self.start
        tolerance = 1e-9 * max(1.0, abs(self.total))
        if abs(self.total - span) > tolerance:
            raise CriticalPathError(
                f"total {self.total!r} diverges from span {span!r}")
        return self

    # -- views -----------------------------------------------------------
    def condensed(self) -> List[Segment]:
        """Adjacent same-(resource, label) segments merged, zero-width
        segments dropped.  Tiling is preserved across the kept segments
        (a dropped segment has ``start == end``)."""
        merged: List[Segment] = []
        for seg in self.segments:
            if (merged and merged[-1].resource == seg.resource
                    and merged[-1].label == seg.label):
                prev = merged[-1]
                merged[-1] = Segment(prev.start, seg.end,
                                     seg.end - prev.start,
                                     seg.resource, seg.kind, seg.label)
            else:
                merged.append(seg)
        return [seg for seg in merged if seg.duration > 0.0]

    def by_resource(self) -> Dict[str, float]:
        """Critical time per resource, largest first (fsum — exact for
        the integer-cycle DES, deterministic always)."""
        buckets: Dict[str, List[float]] = {}
        for seg in self.segments:
            buckets.setdefault(seg.resource, []).append(seg.duration)
        totals = {name: math.fsum(values)
                  for name, values in buckets.items()}
        return dict(sorted(totals.items(),
                           key=lambda item: (-item[1], item[0])))

    def to_dict(self, max_segments: int = 200) -> Dict:
        condensed = self.condensed()
        return {
            "unit": self.unit,
            "total": self.total,
            "start": self.start,
            "end": self.end,
            "num_segments": len(self.segments),
            "num_condensed": len(condensed),
            "by_resource": self.by_resource(),
            "segments": [seg.to_dict()
                         for seg in condensed[:max_segments]],
            "attrs": dict(self.attrs),
        }

    def to_text(self, top: int = 10) -> str:
        lines = [f"critical path: {self.total:g} {self.unit} "
                 f"over {len(self.segments)} segments "
                 f"({len(self.condensed())} condensed)"]
        for resource, value in list(self.by_resource().items())[:top]:
            share = 100.0 * value / self.total if self.total else 0.0
            lines.append(f"  {resource:<14}{value:>14.1f} {self.unit}"
                         f"  {share:5.1f} %")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# DES extraction
# ---------------------------------------------------------------------------

def extract_critical_path(edges: EdgeRecorder,
                          completion: Optional[int] = None,
                          unit: str = "cycles") -> CriticalPath:
    """Walk the edge DAG backward from ``completion`` (default: the
    last node executed) and return the gating chain.

    Each backward step follows ``parent`` — the node that *triggered*
    this one, which by construction executed at or before it — so the
    chain's times are monotone and its segments tile
    ``[t(root), t(completion)]`` exactly.
    """
    if not edges.order:
        raise CriticalPathError("edge recorder saw no executed nodes")
    node: Optional[int] = (edges.order[-1] if completion is None
                           else completion)
    if node not in edges.time:
        raise CriticalPathError(f"completion node {node} never executed")
    chain: List[int] = []
    seen = set()
    while node is not None:
        if node in seen:
            raise CriticalPathError(f"cycle through node {node}")
        seen.add(node)
        chain.append(node)
        node = edges.parent.get(node)
        if node is not None and node not in edges.time:
            node = None         # parent scheduled but cut off by `until`
    chain.reverse()
    times = edges.time
    segments: List[Segment] = []
    for prev, cur in zip(chain, chain[1:]):
        label = edges.label.get(cur, "?")
        kind = edges.kind.get(cur, "?")
        # A delay edge backed by a Resource reservation attributes to
        # that resource even when the label is the waiting process
        # (e.g. a PE pipeline yielding on its local-memory port).
        charged = edges.resource.get(cur)
        bucket = classify_label(charged if charged is not None else label,
                                kind)
        lo, hi = times[prev], times[cur]
        segments.append(Segment(lo, hi, hi - lo, bucket, kind,
                                charged if charged is not None else label))
    total = times[chain[-1]] - times[chain[0]]
    path = CriticalPath(unit=unit, total=total, start=times[chain[0]],
                        end=times[chain[-1]], segments=segments,
                        nodes=list(chain),
                        attrs={"completion": chain[-1],
                               "root": chain[0],
                               "nodes": len(chain)})
    return path.verify()


# ---------------------------------------------------------------------------
# serving / fleet reconstruction
# ---------------------------------------------------------------------------

def _queue_segments(report, k: int, lo: float, hi: float) -> List[Segment]:
    """Subdivide a queue-wait window by head-of-line predecessor batches.

    The device serializes batches, so the wait between batch formation
    and dispatch is mostly predecessors executing; clipping their
    dispatch windows into ``[lo, hi]`` attributes that time causally.
    Boundaries are shared floats from the batch records, so the pieces
    tile exactly; anything uncovered stays ``device.queue``.
    """
    if hi <= lo:
        return []
    pieces: List[Tuple[float, float, int]] = []
    j = k - 1
    while j >= 0:
        batch = report.batches[j]
        dispatch = float(batch.dispatch_us)
        finish = float(batch.finish_us)
        if finish <= lo:
            break
        piece_lo, piece_hi = max(lo, dispatch), min(hi, finish)
        if piece_hi > piece_lo:
            pieces.append((piece_lo, piece_hi, j))
        j -= 1
    pieces.reverse()
    segments: List[Segment] = []
    cursor = lo
    for piece_lo, piece_hi, j in pieces:
        piece_lo = max(piece_lo, cursor)   # overlapping multi-card windows
        if piece_hi <= piece_lo:
            continue
        if piece_lo > cursor:
            segments.append(Segment(cursor, piece_lo, piece_lo - cursor,
                                    "device.queue", "queue_wait",
                                    "queue_wait"))
        segments.append(Segment(piece_lo, piece_hi, piece_hi - piece_lo,
                                "device", "queue_wait", f"batch{j}"))
        cursor = piece_hi
    if hi > cursor:
        segments.append(Segment(cursor, hi, hi - cursor, "device.queue",
                                "queue_wait", "queue_wait"))
    return segments


def serving_critical_path(report, r: int) -> CriticalPath:
    """Critical path of request ``r`` in a (plain or resilient)
    :class:`~repro.serving.simulator.ServingReport`.

    ``path.total`` reproduces the simulator's own latency arithmetic
    bit-for-bit: ``finish - arrival`` for served requests,
    ``abort - arrival`` for shed/timeout/failed ones.
    """
    from repro.serving.simulator import STATUS_NAMES, STATUS_SERVED

    n = int(report.latencies_us.size)
    if not 0 <= r < n:
        raise IndexError(f"request {r} out of range (n={n})")
    arr = float(report.arrivals_us[r])
    status_code = int(report.status[r])
    status = STATUS_NAMES[status_code]
    retry = float(report.retry_overhead_us[r])
    segments: List[Segment] = []

    if status_code == STATUS_SERVED:
        k = int(report.batch_index[r])
        if not 0 <= k < len(report.batches):
            raise CriticalPathError(
                f"served request {r} has no batch record (index {k})")
        batch = report.batches[k]
        dispatch = float(batch.dispatch_us)
        finish = float(batch.finish_us)
        ready = float(batch.ready_us)
        t1 = min(max(arr + retry, arr), dispatch)
        t2 = min(max(t1, min(ready, dispatch)), dispatch)
        segments.append(Segment(arr, t1, t1 - arr, "retry",
                                "retry_overhead", "retry_overhead"))
        segments.append(Segment(t1, t2, t2 - t1, "batching",
                                "batch_wait", "batch_wait"))
        segments.extend(_queue_segments(report, k, t2, dispatch))
        segments.append(Segment(dispatch, finish, finish - dispatch,
                                "device", "execute", f"batch{k}"))
        total = finish - arr           # the simulator's own op
        end = finish
        batch_id = k
    else:
        end = float(report.abort_us[r])
        batch_wait = float(report.batch_wait_us[r])
        queue_wait = float(report.queue_wait_us[r])
        t1 = min(max(arr + retry, arr), end)
        t2 = min(t1 + batch_wait, end)
        t3 = min(t2 + queue_wait, end)
        segments.append(Segment(arr, t1, t1 - arr, "retry",
                                "retry_overhead", "retry_overhead"))
        segments.append(Segment(t1, t2, t2 - t1, "batching",
                                "batch_wait", "batch_wait"))
        segments.append(Segment(t2, t3, t3 - t2, "device.queue",
                                "queue_wait", "queue_wait"))
        segments.append(Segment(t3, end, end - t3, "abort", "abort",
                                status))
        total = end - arr              # == fail_t - arrivals[r] bitwise
        batch_id = int(report.batch_index[r])

    path = CriticalPath(unit="us", total=total, start=arr, end=end,
                        segments=segments,
                        attrs={"request": int(r), "status": status,
                               "batch": batch_id})
    return path.verify()


def fleet_critical_path(report, i: int) -> CriticalPath:
    """Critical path of fleet request ``i``, hedged copies included.

    The winning copy's local path (``per_replica[replica[i]]`` at
    ``replica_pos[i]``) is prefixed with the router hop and, when the
    hedge won, the hedge-launch delay.  Local arrivals were built as
    ``(arrival + route) [+ hedge]`` with the same left-associated ops,
    so the prefix boundaries meet the local path's start bit-exactly,
    and ``total`` composes ``(route + hedge) + local`` exactly as
    :func:`~repro.serving.fleet.simulate_fleet` stored it.
    """
    n = int(report.latencies_us.size)
    if not 0 <= i < n:
        raise IndexError(f"request {i} out of range (n={n})")
    arr = float(report.arrivals_us[i])
    route = float(report.route_overhead_us[i])
    hedge = float(report.hedge_wait_us[i])
    replica = int(report.replica[i])
    pos = int(report.replica_pos[i])
    local = report.per_replica[replica]
    local_path = serving_critical_path(local, pos)

    t1 = arr + route
    t2 = t1 + hedge
    if t2 != local_path.start:
        raise CriticalPathError(
            f"fleet request {i}: router prefix ends at {t2!r} but the "
            f"local path starts at {local_path.start!r}")
    segments = [Segment(arr, t1, t1 - arr, "router", "route_overhead",
                        "route_overhead"),
                Segment(t1, t2, t2 - t1, "hedge", "hedge_wait",
                        "hedge_wait")]
    segments.extend(local_path.segments)
    total = (route + hedge) + local_path.total   # simulate_fleet's op tree
    path = CriticalPath(unit="us", total=total, start=arr,
                        end=local_path.end, segments=segments,
                        attrs={"request": int(i), "replica": replica,
                               "replica_pos": pos,
                               "hedge_won": bool(hedge > 0.0),
                               "status": local_path.attrs["status"],
                               "batch": local_path.attrs["batch"]})
    return path.verify()


def slowest_critical_paths(report, k: int = 8) -> List[CriticalPath]:
    """Critical paths of the ``k`` slowest *served* requests.

    Dispatches on the report's shape: anything with ``per_replica``
    (a :class:`~repro.serving.fleet.FleetReport`) walks
    :func:`fleet_critical_path`, a plain
    :class:`~repro.serving.simulator.ServingReport` walks
    :func:`serving_critical_path`.  Ties break toward the lower request
    index (stable argsort), so the selection is deterministic.
    """
    import numpy as np

    if k <= 0:
        return []
    latencies = report.latencies_us
    if latencies.size == 0:
        return []
    candidates = np.flatnonzero(report.served_mask)
    if candidates.size == 0:
        return []
    order = candidates[np.argsort(latencies[candidates],
                                  kind="stable")][::-1][:k]
    extractor = (fleet_critical_path if hasattr(report, "per_replica")
                 else serving_critical_path)
    return [extractor(report, int(i)) for i in order.tolist()]


def record_request_spans(spans, path: CriticalPath, track: str, name: str,
                         pid: str, **args):
    """Draw a request's path as a ``name`` span with one child per phase.

    Consecutive segments of one ``kind`` merge into one child (the
    head-of-line queue pieces become a single ``queue_wait``), and
    zero-width phases are skipped except ``execute``, so the children
    tile ``[path.start, path.end]`` in path order on the path's own
    boundary floats.  Returns the request span (``None`` when
    ``spans`` is disabled).
    """
    phases: List[List] = []
    for seg in path.segments:
        if phases and phases[-1][0] == seg.kind:
            phases[-1][2] = seg.end
        else:
            phases.append([seg.kind, seg.start, seg.end])
    with spans.span(track, name, path.start, path.end, pid=pid,
                    **args) as request:
        for kind, start, end in phases:
            if end > start or kind == "execute":
                spans.record(track, kind, start, end, pid=pid)
    return request
