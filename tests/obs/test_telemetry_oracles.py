"""Scalar oracles for the array paths of serving telemetry.

``ServingTelemetry.from_report`` selects exemplars with
``ExemplarStore.offer_many`` (numpy ranking, uint64 splitmix64) and
fills windowed series with ``WindowedSeries.record_many`` (bincount
sums, per-window extremes).  The per-request and per-element loops they
replaced live on here as oracles, and hypothesis checks every array
path against its loop byte for byte: latency ties, empty and
all-aborted reports, ``slowest_k``/``reservoir_size`` of 0 and beyond
the served count, replica ids of 2³² and above, and zero, negative and
signed-zero series values.
"""

from __future__ import annotations

import json
from typing import List

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.exemplars import (ExemplarRecord, ExemplarStore,
                                 priority_hash, priority_hash_many)
from repro.obs.timeseries import WindowedSeries
from repro.serving.simulator import (STATUS_NAMES, BatchTable,
                                     ServingReport)
from repro.serving.telemetry import (PHASES, SERIES_NAMES,
                                     ServingTelemetry)

_MASK64 = (1 << 64) - 1


# -- the scalar oracles --------------------------------------------------
def splitmix64(x: int) -> int:
    """One splitmix64 round on Python integers, masked to 64 bits."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def priority_hash_oracle(seed: int, replica: int, request_id: int) -> float:
    h = splitmix64(splitmix64(seed & _MASK64) ^ splitmix64(
        ((replica & 0xFFFFFFFF) << 32) | (request_id & 0xFFFFFFFF)))
    return h / float(1 << 64)


def record_each(series: WindowedSeries, ts, values=None) -> None:
    """The per-element loop ``record_many`` replaced."""
    values = [1.0] * len(ts) if values is None else values
    for t, v in zip(ts, values):
        series.record(float(t), float(v))


def report_record(report: ServingReport, replica: int,
                  r: int) -> ExemplarRecord:
    b = int(report.batch_index[r])
    return ExemplarRecord(
        replica=int(replica), request_id=r,
        arrival_us=float(report.arrivals_us[r]),
        latency_us=float(report.latencies_us[r]),
        queue_wait_us=float(report.queue_wait_us[r]),
        batch_wait_us=float(report.batch_wait_us[r]),
        execute_us=float(report.execute_us[r]),
        batch_index=b, batch_size=report.batches[b].size,
        status=STATUS_NAMES[int(report.status[r])],
        retry_overhead_us=float(report.retry_overhead_us[r]))


def from_report_oracle(report: ServingReport, replica: int = 0,
                       **kwargs) -> ServingTelemetry:
    """``from_report`` with one ``offer`` per served request and one
    ``record`` per series element."""
    out = ServingTelemetry(**kwargs)
    out.replicas = [int(replica)]
    mask = report.served_mask
    lat = report.latencies_us[mask]
    out.latency.add_many(lat)
    for name in PHASES:
        out.phases[name].add_many(getattr(report, f"{name}_us")[mask])
    out.batch_size.add_many([float(b.size) for b in report.batches])
    for name, count in report.counts_by_status().items():
        out.status_counts[name] += count
    arrivals = report.arrivals_us
    record_each(out.series["requests"], arrivals.tolist())
    record_each(out.series["latency_us"], (arrivals[mask] + lat).tolist(),
                lat.tolist())
    record_each(out.series["queue_depth"],
                [b.dispatch_us for b in report.batches],
                [float(b.queue_depth) for b in report.batches])
    for r in np.flatnonzero(mask).tolist():
        out.exemplars.offer(report_record(report, replica, r))
    return out


def dump(telemetry: ServingTelemetry) -> str:
    return json.dumps({
        "telemetry": telemetry.to_dict(include_state=True),
        "series": [telemetry.series[name].to_dict(include_sketch_state=True)
                   for name in SERIES_NAMES]}, sort_keys=True)


# -- strategies -----------------------------------------------------------
#: latencies drawn from a short list, so ties are the common case
TIED = (0.5, 90.0, 250.0, 250.0, 1e4)
latencies = st.one_of(st.sampled_from(TIED),
                      st.floats(0.0, 5e4, allow_nan=False))
replicas = st.one_of(st.integers(0, 8), st.integers(2**32 - 2, 2**40))
capacities = st.sampled_from([0, 1, 3, 8, 16, 64])


@st.composite
def serving_reports(draw) -> ServingReport:
    n = draw(st.integers(0, 40))
    mode = draw(st.sampled_from(["mixed", "served", "aborted"]))
    codes = {"mixed": [0, 0, 0, 1, 2, 3], "served": [0],
             "aborted": [1, 2, 3]}[mode]
    status = np.array([draw(st.sampled_from(codes)) for _ in range(n)],
                      dtype=np.int8)
    arrivals = np.sort(np.array(
        [draw(st.floats(0.0, 3e5, allow_nan=False)) for _ in range(n)],
        dtype=float))
    lat = np.array([draw(latencies) for _ in range(n)], dtype=float)
    phase = st.sampled_from([0.0, 1.5, 20.0, 333.25])
    num_batches = draw(st.integers(1, max(1, n)))
    batches = []
    for _ in range(num_batches):
        dispatch = draw(st.floats(0.0, 3e5, allow_nan=False))
        batches.append((draw(st.integers(1, 8)), dispatch, dispatch,
                        dispatch, dispatch + 50.0,
                        draw(st.integers(0, 30))))
    batch_index = np.array(
        [draw(st.integers(0, num_batches - 1)) if s == 0 else -1
         for s in status], dtype=np.int64)

    def phase_array():
        return np.array([draw(phase) for _ in range(n)], dtype=float)

    return ServingReport(
        qps_offered=0.0, qps_served=0.0, latencies_us=lat,
        busy_fraction=0.0,
        queue_wait_us=phase_array(), batch_wait_us=phase_array(),
        execute_us=phase_array(), arrivals_us=arrivals,
        batch_index=batch_index, batches=BatchTable.from_records(batches),
        status=status,
        retry_overhead_us=phase_array(),
        attempts=np.ones(n, dtype=np.int64),
        abort_us=np.where(status == 0, np.nan, arrivals + lat))


def records(replica: int, ids: List[int], lats: List[float]):
    return [ExemplarRecord(replica=replica, request_id=rid,
                           arrival_us=float(rid), latency_us=lat,
                           queue_wait_us=0.0, batch_wait_us=0.0,
                           execute_us=lat, batch_index=0, batch_size=1)
            for rid, lat in zip(ids, lats)]


def store_json(store: ExemplarStore) -> str:
    return json.dumps(store.to_dict(), sort_keys=True)


# -- priority hash ----------------------------------------------------------
class TestPriorityHash:
    @given(seed=st.integers(-2**70, 2**70), replica=replicas,
           ids=st.lists(st.integers(0, 2**40), max_size=40))
    def test_uint64_array_hash_matches_python_integers(self, seed, replica,
                                                       ids):
        got = priority_hash_many(seed, replica, np.array(ids, dtype=np.int64))
        assert got.tolist() == [priority_hash_oracle(seed, replica, rid)
                                for rid in ids]

    @given(seed=st.integers(0, 2**64 - 1), replica=replicas,
           rid=st.integers(0, 2**64))
    def test_scalar_hash_matches_python_integers(self, seed, replica, rid):
        assert (priority_hash(seed, replica, rid)
                == priority_hash_oracle(seed, replica, rid))


# -- exemplar store -----------------------------------------------------------
class TestOfferMany:
    @given(replica=replicas, seed=st.integers(0, 2**32),
           slowest_k=capacities, reservoir_size=capacities,
           lats=st.lists(latencies, max_size=60),
           earlier=st.lists(latencies, max_size=10),
           data=st.data())
    def test_matches_one_offer_per_request(self, replica, seed, slowest_k,
                                           reservoir_size, lats, earlier,
                                           data):
        ids = data.draw(st.lists(st.integers(0, 2**33), min_size=len(lats),
                                 max_size=len(lats), unique=True))
        # a store that already holds another replica's exemplars
        prior = records(replica + 1, list(range(len(earlier))), earlier)
        loop = ExemplarStore(slowest_k, reservoir_size, seed)
        bulk = ExemplarStore(slowest_k, reservoir_size, seed)
        for record in prior:
            loop.offer(record)
            bulk.offer(record)
        new = records(replica, ids, lats)
        for record in new:
            loop.offer(record)
        by_id = {r.request_id: r for r in new}
        built = []

        def record_for(rid):
            built.append(rid)
            return by_id[rid]

        bulk.offer_many(replica, np.array(ids, dtype=np.int64),
                        np.array(lats, dtype=float), record_for)
        assert store_json(bulk) == store_json(loop)
        assert len(built) == len(set(built))
        assert len(built) <= slowest_k + reservoir_size

    def test_misaligned_arrays_raise(self):
        with pytest.raises(ValueError):
            ExemplarStore().offer_many(0, np.arange(3), np.ones(2),
                                       lambda rid: None)


# -- windowed series ----------------------------------------------------------
series_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
    st.floats(-1e6, 1e6, allow_nan=False))
times = st.floats(-1e5, 1e5, allow_nan=False)


class TestRecordMany:
    @given(window_us=st.sampled_from([0.3, 1.0, 7.0, 50.0, 1e3]),
           track_quantiles=st.booleans(), counts_only=st.booleans(),
           before=st.lists(st.tuples(times, series_values), max_size=20),
           obs=st.lists(st.tuples(times, series_values), max_size=80))
    def test_matches_one_record_per_element(self, window_us,
                                            track_quantiles, counts_only,
                                            before, obs):
        loop = WindowedSeries(window_us, track_quantiles=track_quantiles)
        bulk = WindowedSeries(window_us, track_quantiles=track_quantiles)
        for series in (loop, bulk):
            record_each(series, [t for t, _v in before],
                        [v for _t, v in before])
        ts = [t for t, _v in obs]
        vals = None if counts_only else [v for _t, v in obs]
        record_each(loop, ts, vals)
        bulk.record_many(ts, vals)
        assert (json.dumps(bulk.to_dict(include_sketch_state=True))
                == json.dumps(loop.to_dict(include_sketch_state=True)))
        for index in loop.window_indices():
            mine, want = bulk.window(index), loop.window(index)
            assert (repr((mine.min, mine.max, mine.total))
                    == repr((want.min, want.max, want.total)))

    def test_nan_values_and_infinite_times_raise(self):
        with pytest.raises(ValueError):
            WindowedSeries().record_many([1.0], [float("nan")])
        with pytest.raises(ValueError):
            WindowedSeries().record_many([float("inf")], [1.0])


# -- the whole telemetry derivation ------------------------------------------
class TestFromReport:
    @given(report=serving_reports(), replica=replicas,
           slowest_k=capacities, reservoir_size=capacities,
           seed=st.integers(0, 2**32),
           window_us=st.sampled_from([1e3, 5e4]))
    def test_matches_scalar_derivation(self, report, replica, slowest_k,
                                       reservoir_size, seed, window_us):
        kwargs = dict(window_us=window_us, slowest_k=slowest_k,
                      reservoir_size=reservoir_size, seed=seed)
        bulk = ServingTelemetry.from_report(report, replica=replica,
                                            **kwargs)
        loop = from_report_oracle(report, replica=replica, **kwargs)
        assert dump(bulk) == dump(loop)
