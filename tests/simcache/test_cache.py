"""The content-addressed sim-result cache."""

import json
import os

import numpy as np
import pytest

from repro.simcache import (CACHE_ENV_VAR, CacheEntry, SimCache,
                            array_digest, cache_from_env, fingerprint,
                            reset_env_cache, resolve_cache)
from repro.simcache.cache import (SCHEMA_VERSION, canonical, payload_digest,
                                  usable_for)


@pytest.fixture(autouse=True)
def _no_env_cache(monkeypatch):
    """Keep these tests independent of the user's REPRO_SIM_CACHE."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    reset_env_cache()
    yield
    reset_env_cache()


def _entry(key="k0", op="fc", cycles=123.5, with_stalls=False):
    stalls = [("pe(0,0).dpe", "operand_wait", 40.0),
              ("dram", "bandwidth", 7.25)] if with_stalls else []
    return CacheEntry(key=key, op=op, cycles=cycles,
                      outputs={"c_t": np.arange(12,
                                                dtype=np.int32).reshape(3, 4)},
                      stalls=stalls, stalls_recorded=with_stalls,
                      extras={"m": 64})


class TestFingerprint:
    def test_stable_across_container_spellings(self):
        a = {"shape": (64, 32), "knobs": {"b": 2, "a": 1}}
        b = {"knobs": {"a": 1, "b": 2}, "shape": [64, 32]}
        assert fingerprint(a) == fingerprint(b)

    def test_numpy_scalars_canonicalise_to_python(self):
        assert (fingerprint({"m": np.int64(64), "f": np.float64(0.5)})
                == fingerprint({"m": 64, "f": 0.5}))

    def test_enums_and_dataclasses_flatten(self):
        from repro.config import MTIA_V1
        from repro.memory.sram import SRAMMode
        payload = canonical({"chip": MTIA_V1, "mode": SRAMMode.CACHE})
        assert payload["mode"] == "CACHE"
        assert isinstance(payload["chip"], dict)
        # Round-trips through JSON (the fingerprint's transport).
        json.dumps(payload)

    def test_different_payloads_differ(self):
        base = {"op": "fc", "m": 64}
        assert fingerprint(base) != fingerprint({"op": "fc", "m": 128})
        assert fingerprint(base) != fingerprint({"op": "tbe", "m": 64})

    def test_operand_digest_sees_dtype_shape_and_bytes(self):
        a = np.arange(8, dtype=np.int8)
        assert array_digest(a) != array_digest(a.astype(np.int16))
        assert array_digest(a) != array_digest(a.reshape(2, 4))
        b = a.copy()
        b[3] += 1
        assert array_digest(a) != array_digest(b)
        assert array_digest(a) == array_digest(a.copy())


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = SimCache()
        assert cache.lookup("k0", "fc") is None
        cache.store(_entry())
        entry = cache.lookup("k0", "fc")
        assert entry is not None and entry.cycles == 123.5
        np.testing.assert_array_equal(
            entry.outputs["c_t"], np.arange(12, dtype=np.int32).reshape(3, 4))
        assert cache.stats() == {"hits": 1.0, "misses": 1.0, "entries": 1.0}

    def test_hit_miss_counters_labelled_by_op(self):
        cache = SimCache()
        cache.lookup("k0", "fc")
        cache.store(_entry())
        cache.lookup("k0", "fc")
        hits = cache.registry.counter("sim_cache_hits")
        misses = cache.registry.counter("sim_cache_misses")
        assert hits.get(op="fc").value == 1
        assert misses.get(op="fc").value == 1

    def test_need_stalls_treats_poor_entries_as_misses(self):
        cache = SimCache()
        cache.store(_entry(with_stalls=False))
        assert cache.lookup("k0", "fc", need_stalls=True) is None
        assert cache.lookup("k0", "fc", need_stalls=False) is not None
        # A richer entry overwrites and satisfies observing consumers.
        cache.store(_entry(with_stalls=True))
        entry = cache.lookup("k0", "fc", need_stalls=True)
        assert entry is not None and entry.stalls_recorded
        assert entry.stalls[0] == ("pe(0,0).dpe", "operand_wait", 40.0)


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        path = str(tmp_path / "cache")
        SimCache(path=path).store(_entry(with_stalls=True))
        fresh = SimCache(path=path)     # cold memory tier
        entry = fresh.lookup("k0", "fc", need_stalls=True)
        assert entry is not None
        assert entry.cycles == 123.5
        assert entry.outputs["c_t"].dtype == np.int32
        np.testing.assert_array_equal(
            entry.outputs["c_t"], np.arange(12, dtype=np.int32).reshape(3, 4))
        assert entry.stalls == [("pe(0,0).dpe", "operand_wait", 40.0),
                                ("dram", "bandwidth", 7.25)]
        assert "k0" in fresh

    def test_foreign_schema_version_is_ignored(self, tmp_path):
        path = str(tmp_path / "cache")
        cache = SimCache(path=path)
        cache.store(_entry())
        file = os.path.join(path, "k0.json")
        data = json.load(open(file))
        data["schema_version"] = SCHEMA_VERSION + 1
        with open(file, "w") as fh:
            json.dump(data, fh)
        assert SimCache(path=path).lookup("k0", "fc") is None

    @staticmethod
    def _rewrite(path, edit, redigest=True):
        """Edit the stored k0 entry; ``redigest`` re-signs it as a
        faulty writer would, so only decoding can catch the damage."""
        file = os.path.join(path, "k0.json")
        data = json.load(open(file))
        edit(data)
        if redigest:
            data["digest"] = payload_digest(data)
        with open(file, "w") as fh:
            json.dump(data, fh)

    @pytest.mark.parametrize("damage", ["missing_op", "corrupt_payload",
                                        "tampered_cycles"])
    def test_damaged_entry_is_a_counted_miss_then_recomputed(
            self, tmp_path, damage):
        path = str(tmp_path / "cache")
        SimCache(path=path).store(_entry())
        if damage == "missing_op":
            self._rewrite(path, lambda d: d.pop("op"))
        elif damage == "corrupt_payload":
            self._rewrite(path, lambda d: d["outputs"]["c_t"].update(
                data="bm90IHpsaWI="))         # base64, but not zlib
        else:
            self._rewrite(path, lambda d: d.update(cycles=1.0),
                          redigest=False)
        cache = SimCache(path=path)
        assert cache.lookup("k0", "fc") is None
        assert cache.stats()["misses"] == 1.0
        cache.store(_entry())                 # the recompute overwrites
        fresh = SimCache(path=path)
        assert fresh.lookup("k0", "fc").cycles == 123.5
        assert fresh.stats()["hits"] == 1.0

    def test_corrupt_file_is_a_miss_not_an_error(self, tmp_path):
        path = str(tmp_path / "cache")
        cache = SimCache(path=path)
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, "bad.json"), "w") as fh:
            fh.write("{not json")
        assert cache.lookup("bad", "fc") is None


class TestEnvOptIn:
    def test_off_by_default(self):
        assert cache_from_env() is None
        assert resolve_cache(None) is None

    def test_memory_spellings(self, monkeypatch):
        for value in ("1", "mem", "memory"):
            monkeypatch.setenv(CACHE_ENV_VAR, value)
            reset_env_cache()
            cache = cache_from_env()
            assert cache is not None and cache.path is None

    def test_directory_value_selects_disk(self, monkeypatch, tmp_path):
        path = str(tmp_path / "envcache")
        monkeypatch.setenv(CACHE_ENV_VAR, path)
        reset_env_cache()
        cache = cache_from_env()
        assert cache is not None and cache.path == path
        assert cache_from_env() is cache    # shared instance
        explicit = SimCache()
        assert resolve_cache(explicit) is explicit

    def test_usable_for_requires_pristine_machine(self):
        from repro import Accelerator
        cache = SimCache()
        acc = Accelerator()
        assert usable_for(cache, acc)
        assert not usable_for(None, acc)
        acc.engine.timeout(1)
        acc.engine.run()
        assert not usable_for(cache, acc)   # machine has prior state


class TestKernelIntegration:
    def test_fc_hit_is_bit_identical(self):
        from repro import Accelerator
        from repro.kernels.fc import run_fc

        cache = SimCache()
        acc1 = Accelerator()
        fresh = run_fc(acc1, m=64, k=64, n=64, seed=7,
                       subgrid=acc1.subgrid((0, 0), 1, 1), cache=cache)
        assert cache.stats()["misses"] == 1
        acc2 = Accelerator()
        warm = run_fc(acc2, m=64, k=64, n=64, seed=7,
                      subgrid=acc2.subgrid((0, 0), 1, 1), cache=cache)
        assert cache.stats()["hits"] == 1
        assert warm.cycles == fresh.cycles
        np.testing.assert_array_equal(warm.c_t, fresh.c_t)
        # Replay runs no DES events at all.
        assert acc2.engine.events_processed == 0

    def test_fc_different_seed_misses(self):
        from repro import Accelerator
        from repro.kernels.fc import run_fc

        cache = SimCache()
        acc1 = Accelerator()
        run_fc(acc1, m=64, k=64, n=64, seed=7,
               subgrid=acc1.subgrid((0, 0), 1, 1), cache=cache)
        acc2 = Accelerator()
        run_fc(acc2, m=64, k=64, n=64, seed=8,
               subgrid=acc2.subgrid((0, 0), 1, 1), cache=cache)
        assert cache.stats() == {"hits": 0.0, "misses": 2.0, "entries": 2.0}
