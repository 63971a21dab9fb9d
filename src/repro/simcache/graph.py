"""Per-operator memoisation inside a graph execution.

The whole-run :class:`~repro.simcache.SimCache` keys an entire kernel
invocation; editing one FC layer in a 30-op DLRM graph invalidates the
whole entry.  This module caches at *operator* granularity instead:

* **Chained fingerprints.**  Each graph leaf (input feed, bound weight)
  is digested once per run; every compute node's fingerprint is a hash
  of ``(op, attrs, output shape/dtype, epilogue, input fingerprints)``.
  The input fingerprints *are* the upstream-state digest — a node's key
  changes iff its own definition or anything upstream changed, so
  editing one weight invalidates exactly the downstream cone and the
  other operators replay from cache (partial-warm).
* **Functional results only.**  The executor's numpy semantics are
  machine-independent pure functions, so entries store just the output
  array.  Modelled timing is *not* cached: ``estimate_graph`` is O(ops)
  closed-form arithmetic whose result depends on fusion/placement
  context, and recomputing it keeps reports exact for any graph shape.
* **Two tiers.**  In-memory dict always; optional directory tier
  (``.npy`` per entry, atomic rename, content-addressed filenames) so
  sweeps can share warm state across processes.

Correctness contract: a cache hit must be bit-identical to recomputing
the node.  The conformance ``cache`` pillar replays fuzzed graphs
fresh / cold / warm / partial-warm and compares every output bitwise
(the ``graph_cache`` rows of :data:`repro.conformance.determinism.CHECKS`).
"""

from __future__ import annotations

import os
import tempfile
from functools import lru_cache
from typing import Any, Dict, List, Optional

import numpy as np

from repro.simcache.cache import array_digest, canonical, fingerprint

__all__ = ["GraphOpCache", "graph_cache_from_env", "resolve_graph_cache",
           "GRAPH_CACHE_ENV_VAR"]

GRAPH_CACHE_ENV_VAR = "REPRO_GRAPH_CACHE"

#: bump on any change to fingerprint composition or entry layout
_SCHEMA = "g1"


def node_fingerprint(node, input_fps: List[str]) -> str:
    """Content key for one compute node given its inputs' keys."""
    attrs = {k: canonical(v) for k, v in node.attrs.items()
             if k != "data"}
    return fingerprint({
        "kind": "graph-op",
        "schema": _SCHEMA,
        "op": node.op,
        "attrs": attrs,
        "shape": list(node.meta.shape),
        "dtype": str(node.meta.dtype),
        "inputs": input_fps,
    })


class GraphOpCache:
    """Memory (+ optional directory) store of per-op output arrays."""

    def __init__(self, path: Optional[str] = None,
                 memory: bool = True) -> None:
        self.path = path
        self.memory = memory
        self._memory: Dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        if path:
            os.makedirs(path, exist_ok=True)

    # -- tiers -----------------------------------------------------------

    def _file_for(self, key: str) -> str:
        return os.path.join(self.path, f"{_SCHEMA}_{key}.npy")

    def lookup(self, key: str) -> Optional[np.ndarray]:
        value = self._memory.get(key)
        if value is None and self.path:
            file = self._file_for(key)
            if os.path.exists(file):
                value = np.load(file, allow_pickle=False)
                if self.memory:
                    self._memory[key] = value
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, key: str, value: np.ndarray) -> None:
        if self.memory:
            self._memory[key] = value
        if self.path:
            file = self._file_for(key)
            if not os.path.exists(file):
                fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        np.save(fh, value, allow_pickle=False)
                    os.replace(tmp, file)
                except BaseException:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                    raise

    def __len__(self) -> int:
        return len(self._memory)

    def stats(self) -> Dict[str, Any]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._memory),
                "hit_rate": (self.hits / (self.hits + self.misses)
                             if (self.hits + self.misses) else 0.0)}


# -- opt-in resolution (mirrors repro.simcache.cache_from_env) -----------

_ENV_CACHE: Optional[GraphOpCache] = None
_ENV_VALUE: Optional[str] = None


def graph_cache_from_env() -> Optional[GraphOpCache]:
    """A process-wide cache configured by ``REPRO_GRAPH_CACHE``.

    ``1`` / ``mem`` / ``memory`` → in-memory only; any other non-empty
    value is a directory path for the persistent tier.  Unset/empty →
    ``None`` (caching off — the default costs nothing).
    """
    global _ENV_CACHE, _ENV_VALUE
    value = os.environ.get(GRAPH_CACHE_ENV_VAR, "")
    if value != _ENV_VALUE:
        _ENV_VALUE = value
        if not value:
            _ENV_CACHE = None
        elif value.lower() in ("1", "mem", "memory"):
            _ENV_CACHE = GraphOpCache()
        else:
            _ENV_CACHE = GraphOpCache(path=value)
    return _ENV_CACHE


def reset_env_graph_cache() -> None:
    global _ENV_CACHE, _ENV_VALUE
    _ENV_CACHE = None
    _ENV_VALUE = None


def resolve_graph_cache(cache) -> Optional[GraphOpCache]:
    """Explicit cache wins; otherwise the env-configured one (or None).

    Pass ``False`` to force caching off even when ``REPRO_GRAPH_CACHE``
    is set (the conformance checks use this for their reference runs).
    """
    if cache is False:
        return None
    if cache is not None:
        return cache
    return graph_cache_from_env()


def leaf_fingerprint(value: np.ndarray) -> str:
    """Content key for a graph leaf (input feed or bound weight)."""
    return "leaf:" + array_digest(np.asarray(value))


@lru_cache(maxsize=4096)
def zero_leaf_fingerprint(shape: tuple, dtype: str) -> str:
    """Content key for a *synthesised* all-zero weight, from metadata.

    Unbound weights read as zero-stride ``np.zeros`` views — for
    perf-only runs of multi-hundred-GB DLRM models these are the
    embedding tables, and content-hashing gigabytes of zeros would cost
    more than the computation being cached.  Shape + dtype determine
    the content exactly, so this key is just as content-addressed.
    Arguments must be hashable (tuple shape, str dtype) for the memo.
    """
    return fingerprint({"kind": "zero-leaf", "schema": _SCHEMA,
                        "shape": list(shape), "dtype": dtype})
