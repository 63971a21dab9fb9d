"""Serving-tier failure handling: the knobs of :class:`ResilienceConfig`.

The one serving engine, :func:`repro.serving.simulator.simulate_serving`,
reads a :class:`ResilienceConfig` to switch on the failure handling a
production serving tier layers over the accelerator:

* **deadlines** — each attempt must dispatch *and* finish within
  ``deadline_us`` of being enqueued; late attempts are abandoned (at
  dispatch, before wasting device time, or at completion, after it);
* **retries** — abandoned attempts re-enqueue after a capped
  exponential backoff, up to ``max_retries`` times;
* **load shedding** — arrivals beyond ``shed_queue_depth`` still
  waiting at a dispatch instant are dropped at admission;
* **graceful degradation** — cards fail and recover on the schedule of
  an attached :class:`~repro.faults.FaultInjector` (``card.failure`` /
  ``card.slowdown`` events); in-flight batches on a failing card die
  and retry elsewhere.

Every knob is off by default, and the default config is the plain
single-card batching window.  Hedging lives one level up, in the fleet
router's ``hedge`` policy (:mod:`repro.serving.fleet`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class ResilienceConfig:
    """Serving-tier failure-handling knobs (0 = feature disabled)."""

    #: per-attempt deadline from enqueue to finish; 0 disables timeouts
    deadline_us: float = 0.0
    #: re-enqueue budget after a timeout/failure; 0 aborts immediately
    max_retries: int = 0
    #: first backoff; attempt ``a`` waits ``backoff * 2**a``, capped
    retry_backoff_us: float = 100.0
    backoff_cap_us: float = 1600.0
    #: waiting requests beyond this depth are shed at dispatch; 0 = keep all
    shed_queue_depth: int = 0
    #: identical cards behind one queue (failover capacity)
    num_cards: int = 1

    def __post_init__(self) -> None:
        for name in ("deadline_us", "retry_backoff_us", "backoff_cap_us"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}")
        for name, least in (("max_retries", 0), ("shed_queue_depth", 0),
                            ("num_cards", 1)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    and not isinstance(value, bool) and value >= least):
                raise ValueError(
                    f"{name} must be an integer >= {least}, got {value!r}")

    def backoff_us(self, attempt: int) -> float:
        """Backoff before re-enqueueing attempt ``attempt + 1``."""
        return min(self.retry_backoff_us * (2.0 ** attempt),
                   self.backoff_cap_us)
