"""Content-addressed sim-result cache (see :mod:`repro.simcache.cache`)."""

from repro.simcache.cache import (CACHE_ENV_VAR, CacheEntry, SimCache,
                                  array_digest, cache_from_env, canonical,
                                  fingerprint, resolve_cache, reset_env_cache)

__all__ = [
    "CACHE_ENV_VAR",
    "CacheEntry",
    "SimCache",
    "array_digest",
    "cache_from_env",
    "canonical",
    "fingerprint",
    "resolve_cache",
    "reset_env_cache",
]
