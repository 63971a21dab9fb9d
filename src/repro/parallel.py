"""Spawn-safe parallel map for simulation sweeps.

Conformance sweeps, benchmark suites, and calibration grids are
embarrassingly parallel: every case is a pure function of its inputs
(the determinism pillar proves it), so they can fan out over worker
processes without changing a single result bit.  This module provides
the one primitive those CLIs share::

    from repro.parallel import parallel_map
    results = parallel_map(run_case, cases, jobs=4)

Guarantees:

* **Deterministic ordering** — ``results[i]`` is ``fn(items[i])``
  regardless of worker completion order, so a parallel sweep emits the
  same report as a serial one.
* **Spawn-safe** — workers use the ``spawn`` start method (the only
  method that is safe and portable everywhere, and the macOS/Windows
  default), so ``fn`` and each item must be picklable: module-level
  functions and plain dataclasses, not closures.
* **Graceful serial fallback** — if ``fn`` or an item does not pickle,
  or the pool cannot be created or dies (restricted sandboxes, missing
  semaphores, forbidden ``exec``), the map silently degrades to a serial
  loop; results are identical either way, only the wall time changes.
  Transportability is checked before anything is submitted, so an
  exception raised *by* ``fn`` always propagates and never triggers a
  re-run.

``jobs <= 1`` (the CLI default) never creates a pool, so single-job
runs are byte-for-byte the old serial code path.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """A sensible ``--jobs`` default for "use the machine": CPU count."""
    return os.cpu_count() or 1


def _serial_map(fn: Callable[[T], R], items: Sequence[T],
                progress: Optional[Callable[[int, R], None]]) -> List[R]:
    results: List[R] = []
    for index, item in enumerate(items):
        result = fn(item)
        results.append(result)
        if progress is not None:
            progress(index, result)
    return results


def _spawn_transportable(fn: Callable, items: Sequence) -> bool:
    """Whether ``fn`` and every item pickle, so a spawned worker gets them."""
    try:
        pickle.dumps(fn)
        for item in items:
            pickle.dumps(item)
    except (pickle.PicklingError, TypeError, AttributeError):
        return False
    return True


def parallel_map(fn: Callable[[T], R], items: Iterable[T], jobs: int = 1,
                 progress: Optional[Callable[[int, R], None]] = None
                 ) -> List[R]:
    """Map ``fn`` over ``items`` with up to ``jobs`` worker processes.

    Returns results in input order.  ``progress(index, result)``, when
    given, fires once per item — in input order for serial runs, in
    completion order for parallel runs (the returned list is ordered
    either way).  Exceptions raised by ``fn`` propagate to the caller
    (the first one, by input order, in parallel runs) and nothing is
    re-run for them.  Payloads that do not pickle and pool
    *infrastructure* failures run serially instead.  On an interrupt,
    queued items are cancelled and the pool is shut down.
    """
    items = list(items)
    if (jobs <= 1 or len(items) <= 1
            or not _spawn_transportable(fn, items)):
        return _serial_map(fn, items, progress)

    results: List[R] = [None] * len(items)  # type: ignore[list-item]
    errors: List[Optional[BaseException]] = [None] * len(items)
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                                   mp_context=multiprocessing.get_context(
                                       "spawn"))
    except (OSError, ValueError):
        return _serial_map(fn, items, progress)
    futures: List[Future] = []
    try:
        for item in items:
            futures.append(pool.submit(fn, item))
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                raise
            except Exception as exc:        # fn itself raised
                errors[index] = exc
            else:
                if progress is not None:
                    progress(index, results[index])
    except (BrokenProcessPool, OSError):
        # Workers could not start or died (sandbox, missing semaphores,
        # forbidden exec): same results serially, longer wall time.
        pool.shutdown(wait=False, cancel_futures=True)
        return _serial_map(fn, items, progress)
    except BaseException:
        # Interrupted: drop what has not started and leave at once.  The
        # futures are cancelled here because the pool's own
        # cancel_futures is lost if the pool is collected first.
        for future in futures:
            future.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
