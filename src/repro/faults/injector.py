"""The fault injector: frozen plan in, deterministic penalties out.

One :class:`FaultInjector` serves both fault domains:

* the **hardware** queries (``dram_penalty``, ``sram_penalty``,
  ``noc_degrade``, ``noc_retransmit``, ``rednet_penalty``,
  ``pe_dispatch_penalty``, ``pe_lockup_release``) are consulted by the
  hardware models on the discrete-event simulator's hot paths via
  ``engine.faults`` (attached with :meth:`attach`);
* the **serving** queries (``card_available_at``, ``card_failure_in``,
  ``card_slowdown``) are consulted by the request-level serving
  simulator (:func:`repro.serving.simulator.simulate_serving`).

Injection is *purely reactive*: the injector never schedules events of
its own and never draws randomness.  A query answers "is an access at
virtual time *t* inside a fault window, and what is the penalty?" from
the plan's pre-drawn windows.  With an empty plan every query returns
its neutral value and the hardware models skip their penalty yields,
so an attached-but-empty injector is *bit-identical* to no injector at
all — the conformance ``faults`` pillar pins this.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, PERMANENT

#: (start, end, magnitude) — one active window of one kind on one target.
_Window = Tuple[float, float, float]


class FaultInjector:
    """Answers penalty queries against one frozen :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan,
                 grid_rows: Optional[int] = None) -> None:
        self.plan = plan
        #: grid rows, needed to split NoC link targets into rows/cols;
        #: :meth:`attach` fills it from the accelerator's config.
        self.grid_rows = grid_rows
        #: kind -> number of times a penalty was actually applied
        #: (deterministic: follows the simulated event order exactly)
        self.activations: Dict[str, int] = {}
        #: (kind, target) -> windows sorted by start
        self._windows: Dict[Tuple[str, int], List[_Window]] = {}
        self._kinds = frozenset(e.kind for e in plan.events)
        for event in plan.events:
            self._windows.setdefault((event.kind, event.target), []).append(
                (event.start, event.end, event.magnitude))

    # -- lifecycle --------------------------------------------------------
    def attach(self, accelerator) -> "FaultInjector":
        """Arm the hardware hooks of ``accelerator`` with this plan."""
        if self.grid_rows is None:
            self.grid_rows = accelerator.config.grid_rows
        accelerator.engine.faults = self
        return self

    def detach(self, accelerator) -> None:
        if accelerator.engine.faults is self:
            accelerator.engine.faults = None

    # -- core window lookup ----------------------------------------------
    def _sum_active(self, kind: str, target: int, now: float) -> float:
        """Summed magnitude of the active windows on ``target`` (+wildcard)."""
        if kind not in self._kinds:
            return 0.0
        total = 0.0
        for tgt in (target, -1) if target != -1 else (-1,):
            for start, end, magnitude in self._windows.get((kind, tgt), ()):
                if start <= now < end:
                    total += magnitude
        return total

    def _count(self, kind: str) -> None:
        self.activations[kind] = self.activations.get(kind, 0) + 1

    # -- hardware queries (times in cycles) ------------------------------
    def dram_penalty(self, controller: int, now: float) -> float:
        """Extra access cycles from ECC retries on ``controller``."""
        extra = self._sum_active("dram.ecc_correctable", controller, now)
        if extra:
            self._count("dram.ecc_correctable")
        fatal = self._sum_active("dram.ecc_uncorrectable", controller, now)
        if fatal:
            self._count("dram.ecc_uncorrectable")
        return extra + fatal

    def sram_penalty(self, slice_index: int, now: float) -> float:
        """Extra access cycles from a stalled SRAM slice."""
        extra = self._sum_active("sram.slice_stall", slice_index, now)
        if extra:
            self._count("sram.slice_stall")
        return extra

    def noc_degrade(self, row: int, col: int, now: float) -> float:
        """Charged-byte multiplier (>= 1) from degraded row/col links.

        A window's magnitude is the usable-bandwidth *fraction* f in
        (0, 1]; traffic is charged 1/f of its bytes while degraded.
        Row and column degradation compose multiplicatively.
        """
        if "noc.link_degrade" not in self._kinds:
            return 1.0
        multiplier = 1.0
        for target in (row, self._col_target(col)):
            fraction = self._sum_active("noc.link_degrade", target, now)
            if fraction > 0.0:
                multiplier *= 1.0 / min(1.0, fraction)
        if multiplier != 1.0:
            self._count("noc.link_degrade")
        return multiplier

    def noc_retransmit(self, row: int, col: int, now: float) -> float:
        """Extra cycles from transient packet retransmission."""
        if "noc.retransmit" not in self._kinds:
            return 0.0
        extra = (self._sum_active("noc.retransmit", row, now)
                 + self._sum_active("noc.retransmit",
                                    self._col_target(col), now))
        if extra:
            self._count("noc.retransmit")
        return extra

    def _col_target(self, col: int) -> int:
        rows = self.grid_rows if self.grid_rows is not None else 8
        return rows + col

    def rednet_penalty(self, now: float) -> float:
        """Extra cycles on a reduction-network transfer."""
        extra = self._sum_active("rednet.retransmit", 0, now)
        if extra:
            self._count("rednet.retransmit")
        return extra

    def pe_dispatch_penalty(self, pe_index: int, now: float) -> float:
        """Extra scheduler dispatch cycles on a slowed-down PE."""
        extra = self._sum_active("pe.slowdown", pe_index, now)
        if extra:
            self._count("pe.slowdown")
        return extra

    def pe_lockup_release(self, pe_index: int, now: float) -> float:
        """End of the lockup window covering ``now`` (0 = not locked)."""
        if "pe.lockup" not in self._kinds:
            return 0.0
        release = 0.0
        for tgt in (pe_index, -1):
            for start, end, _ in self._windows.get(("pe.lockup", tgt), ()):
                if start <= now < end and end > release:
                    release = end
        if release:
            self._count("pe.lockup")
        return release

    # -- serving queries (times in microseconds) -------------------------
    def card_available_at(self, card: int, t: float) -> float:
        """Earliest time >= ``t`` at which ``card`` is up.

        Walks failure windows forward (windows may chain); returns
        ``math.inf`` for a permanent failure (window end past
        :data:`~repro.faults.plan.PERMANENT` / 2).
        """
        if "card.failure" not in self._kinds:
            return t
        moved = True
        while moved:
            moved = False
            for tgt in (card, -1):
                for start, end, _ in self._windows.get(
                        ("card.failure", tgt), ()):
                    if start <= t < end:
                        if end >= PERMANENT / 2:
                            return math.inf
                        t = end
                        moved = True
        return t

    def card_failure_in(self, card: int, t0: float,
                        t1: float) -> Optional[float]:
        """First failure-window start inside ``(t0, t1)``, else None."""
        if "card.failure" not in self._kinds:
            return None
        first: Optional[float] = None
        for tgt in (card, -1):
            for start, _end, _ in self._windows.get(("card.failure", tgt),
                                                    ()):
                if t0 < start < t1 and (first is None or start < first):
                    first = start
        return first

    def card_slowdown(self, card: int, t: float) -> float:
        """Execute-latency multiplier (>= 1) for a batch starting at t."""
        if "card.slowdown" not in self._kinds:
            return 1.0
        multiplier = 1.0
        for tgt in (card, -1):
            for start, end, magnitude in self._windows.get(
                    ("card.slowdown", tgt), ()):
                if start <= t < end:
                    multiplier *= max(1.0, magnitude)
        if multiplier != 1.0:
            self._count("card.slowdown")
        return multiplier
