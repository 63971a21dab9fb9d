"""Content-addressed sim-result cache.

Cycle-level simulation is deterministic: the same (machine config,
operator, shapes/dtypes, kernel-variant knobs, operands) always
produces the same cycles, outputs, and stall attributions.  That makes
sim results *content-addressable* — a sweep that revisits a
configuration (parameter sweeps, conformance replays, CI) can skip the
DES entirely and replay the recorded result, bit for bit.

Design:

* **Fingerprint** — :func:`fingerprint` hashes a canonical-JSON
  rendering of everything that can influence the result: the full
  :class:`~repro.config.ChipConfig`, the op kind, shapes/dtypes,
  kernel-variant knobs, the SRAM mode, allocator state, and either the
  generating seed or a digest of explicitly-passed operand arrays.
  Anything *not* in the key must be provably result-neutral (the
  observability hooks, by the PR-2 no-op contract).
* **Two tiers** — entries always live in an in-process dict; pass a
  directory path to also persist each entry as one schema-versioned
  JSON file (arrays stored zlib+base64), so warm results survive across
  processes and parallel sweep workers.
* **Opt-in only** — kernels take an explicit ``cache=`` argument, or
  the ``REPRO_SIM_CACHE`` environment variable turns the cache on
  process-wide (``1``/``mem`` for memory-only, any other value is the
  on-disk directory).  Tracing-enabled or already-used accelerators
  bypass the cache: a replayed result has no trace to attach, and a
  machine with prior simulation state is not content-addressed by the
  key.

Hit/miss counts land in the cache's :class:`MetricRegistry`
(``sim_cache_hits`` / ``sim_cache_misses``, labelled by op) and in
:meth:`SimCache.stats`.  The conformance ``cache`` pillar proves hits
are bit-identical to fresh simulation.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import json
import os
import zlib
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import MetricRegistry

#: Environment variable enabling the cache process-wide.
CACHE_ENV_VAR = "REPRO_SIM_CACHE"

#: Bump when the entry layout or key derivation changes; stale disk
#: entries are ignored, never misread.  Version 2 added the payload
#: ``digest``.
SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Canonical fingerprints
# ---------------------------------------------------------------------------

def canonical(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-serialisable primitives.

    Dataclasses flatten to sorted dicts, enums to their names, tuples
    to lists, numpy scalars to Python numbers — so equal configurations
    always render to the same JSON text.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return canonical(asdict(value))
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return array_digest(value)
    return value


def array_digest(array: np.ndarray) -> str:
    """Digest of an operand array: dtype + shape + raw bytes."""
    array = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(str(array.dtype).encode())
    h.update(str(array.shape).encode())
    h.update(array.tobytes())
    return "sha256:" + h.hexdigest()


def fingerprint(payload: Dict[str, Any]) -> str:
    """The content address of one simulation: sha256 of canonical JSON."""
    text = json.dumps(canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------

@dataclass
class CacheEntry:
    """One recorded simulation result."""

    key: str
    op: str                                    #: "fc", "tbe", ...
    cycles: float
    #: named output arrays (e.g. ``c_t`` for FC, ``output`` for TBE)
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    #: flattened stall attribution: (track, cause, total cycles);
    #: recorded only when the producing run had observability enabled
    stalls: List[Tuple[str, str, float]] = field(default_factory=list)
    #: True when ``stalls`` reflects an observed producing run
    stalls_recorded: bool = False
    #: informational (shape, label, ...) — not part of the key
    extras: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        data = {
            "schema_version": SCHEMA_VERSION,
            "key": self.key,
            "op": self.op,
            "cycles": self.cycles,
            "outputs": {name: _encode_array(arr)
                        for name, arr in self.outputs.items()},
            "stalls": [list(s) for s in self.stalls],
            "stalls_recorded": self.stalls_recorded,
            "extras": canonical(self.extras),
        }
        data["digest"] = payload_digest(data)
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "CacheEntry":
        return cls(
            key=data["key"], op=data["op"], cycles=data["cycles"],
            outputs={name: _decode_array(spec)
                     for name, spec in data["outputs"].items()},
            stalls=[(t, c, v) for t, c, v in data.get("stalls", [])],
            stalls_recorded=bool(data.get("stalls_recorded", False)),
            extras=dict(data.get("extras", {})))


def payload_digest(data: Dict[str, Any]) -> str:
    """sha256 of an entry's canonical JSON, its own ``digest`` excluded."""
    body = {k: v for k, v in data.items() if k != "digest"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    array = np.ascontiguousarray(array)
    return {"dtype": str(array.dtype), "shape": list(array.shape),
            "data": base64.b64encode(
                zlib.compress(array.tobytes())).decode("ascii")}


def _decode_array(spec: Dict[str, Any]) -> np.ndarray:
    raw = zlib.decompress(base64.b64decode(spec["data"]))
    return np.frombuffer(raw, dtype=np.dtype(spec["dtype"])).reshape(
        spec["shape"]).copy()


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

class SimCache:
    """Two-tier (memory + optional disk) store of :class:`CacheEntry`.

    Thread-compatibility: each process owns its own memory tier; the
    disk tier uses atomic renames so concurrent sweep workers sharing
    one directory never observe torn files.
    """

    def __init__(self, path: Optional[str] = None,
                 registry: Optional[MetricRegistry] = None) -> None:
        self.path = path
        if path is not None:
            os.makedirs(path, exist_ok=True)
        self.registry = registry if registry is not None else MetricRegistry()
        self._hits = self.registry.counter(
            "sim_cache_hits", "sim-result cache hits")
        self._misses = self.registry.counter(
            "sim_cache_misses", "sim-result cache misses")
        self._memory: Dict[str, CacheEntry] = {}

    # -- lookup / store ------------------------------------------------
    def lookup(self, key: str, op: str = "",
               need_stalls: bool = False) -> Optional[CacheEntry]:
        """Return the entry for ``key`` (memory first, then disk).

        ``need_stalls=True`` (an *observing* consumer) treats an entry
        recorded without stall attributions as a miss: the entry cannot
        fully reproduce an observed run, so the consumer re-simulates
        and the richer entry overwrites the poorer one.
        """
        entry = self._memory.get(key)
        if entry is None and self.path is not None:
            entry = self._read_disk(key)
            if entry is not None:
                self._memory[key] = entry
        if entry is not None and need_stalls and not entry.stalls_recorded:
            entry = None
        if entry is None:
            self._misses.labels(op=op or "unknown").inc()
            return None
        self._hits.labels(op=entry.op or op or "unknown").inc()
        return entry

    def store(self, entry: CacheEntry) -> None:
        self._memory[entry.key] = entry
        if self.path is not None:
            self._write_disk(entry)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (
            self.path is not None and os.path.exists(self._file_for(key)))

    def __len__(self) -> int:
        return len(self._memory)

    def stats(self) -> Dict[str, float]:
        """Hit/miss/entry counts (also queryable via the registry)."""
        return {"hits": self._hits.total(), "misses": self._misses.total(),
                "entries": float(len(self._memory))}

    # -- disk tier -----------------------------------------------------
    def _file_for(self, key: str) -> str:
        assert self.path is not None
        return os.path.join(self.path, f"{key}.json")

    def _read_disk(self, key: str) -> Optional[CacheEntry]:
        """The disk entry for ``key``, or ``None`` for anything unusable.

        A missing or unreadable file, a foreign schema or key, a payload
        whose digest does not match, and any decode failure are all
        misses: the caller re-simulates and overwrites the entry.
        """
        try:
            with open(self._file_for(key)) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("schema_version") != SCHEMA_VERSION:
            return None
        if data.get("key") != key:
            return None
        if data.get("digest") != payload_digest(data):
            return None
        try:
            return CacheEntry.from_json_dict(data)
        except (KeyError, TypeError, ValueError, zlib.error):
            return None

    def _write_disk(self, entry: CacheEntry) -> None:
        final = self._file_for(entry.key)
        tmp = f"{final}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(entry.to_json_dict(), fh)
        os.replace(tmp, final)    # atomic: workers never see torn files


# ---------------------------------------------------------------------------
# Process-wide opt-in via the environment
# ---------------------------------------------------------------------------

_env_cache: Optional[SimCache] = None
_env_value: Optional[str] = None


def cache_from_env() -> Optional[SimCache]:
    """The shared :class:`SimCache` configured by ``REPRO_SIM_CACHE``.

    ``1``, ``mem``, or ``memory`` select the memory-only tier; any
    other non-empty value is used as the on-disk directory.  Returns
    ``None`` (cache off) when the variable is unset or empty.  The
    instance is shared process-wide so repeated kernel runs hit the
    warm memory tier.
    """
    global _env_cache, _env_value
    value = os.environ.get(CACHE_ENV_VAR, "")
    if not value:
        _env_cache, _env_value = None, None
        return None
    if _env_cache is None or value != _env_value:
        path = None if value in ("1", "mem", "memory") else value
        _env_cache = SimCache(path=path)
        _env_value = value
    return _env_cache


def reset_env_cache() -> None:
    """Drop the shared env-configured cache (tests use this)."""
    global _env_cache, _env_value
    _env_cache, _env_value = None, None


def resolve_cache(cache: Optional[SimCache]) -> Optional[SimCache]:
    """The cache a kernel should use: explicit argument, else the env."""
    return cache if cache is not None else cache_from_env()


# ---------------------------------------------------------------------------
# Kernel integration helpers
# ---------------------------------------------------------------------------

def usable_for(cache: Optional[SimCache], acc) -> bool:
    """Whether ``cache`` may serve/record results for ``acc``.

    Tracing bypasses the cache (a replayed result has no trace), and so
    does an accelerator that has already simulated something — its
    internal state (SRAM cache contents, queue histories) is not part
    of the fingerprint, so only a pristine machine is content-addressed
    by the key.  An armed fault injector with a non-empty plan also
    bypasses: the plan is not part of the fingerprint, and a faulted
    run must neither be served a clean cached result nor poison the
    cache for clean runs (an *empty* plan is bit-identical to no
    injector — the conformance ``faults`` pillar — so it may cache).
    """
    faults = getattr(acc.engine, "faults", None)
    return (cache is not None
            and not acc.engine.tracer.enabled
            and acc.engine.now == 0
            and acc.engine.events_processed == 0
            and (faults is None or faults.plan.empty))


def machine_payload(acc) -> Dict[str, Any]:
    """The machine-side portion of a kernel fingerprint."""
    return {
        "chip": acc.config,
        "sram_mode": acc.memory.sram_mode,
        "dram_brk": acc._dram_brk,
        "sram_brk": acc._sram_brk,
    }


def record_stalls(acc) -> Tuple[List[Tuple[str, str, float]], bool]:
    """Flatten the accelerator's stall attributions for storage.

    Order matters: entries are kept in the registry's insertion order
    (first-stall order) so a replay rebuilds the counter family in the
    same order and every downstream float roll-up sums identically.
    """
    obs = acc.engine.obs
    if not obs.enabled:
        return [], False
    family = obs.registry.counter("stall_cycles")
    flat = []
    for label_key, counter in family.samples():
        labels = dict(label_key)
        flat.append((labels.get("track", ""), labels.get("cause", ""),
                     counter.value))
    return flat, True


def replay_stalls(acc, entry: CacheEntry) -> None:
    """Re-attribute a cached entry's stall cycles on a cache hit.

    Only meaningful when the producing run was observed and the
    consuming accelerator observes too; totals (not event counts) are
    replayed, matching what :meth:`Observer.stalls_by_track` reports.
    """
    obs = acc.engine.obs
    if not obs.enabled or not entry.stalls_recorded:
        return
    for track, cause, cycles in entry.stalls:
        obs.stall(track, cause, 0.0, cycles)
