"""Scalar oracles for the array paths of serving telemetry.

``ServingTelemetry.from_report`` selects exemplars with
``ExemplarStore.offer_many`` (numpy ranking, uint64 splitmix64) and
fills windowed series with ``WindowedSeries.record_many`` (bincount
sums, per-window extremes).  The per-request and per-element loops they
replaced live on here as oracles, and hypothesis checks every array
path against its loop byte for byte: latency ties, empty and
all-aborted reports, ``slowest_k``/``reservoir_size`` of 0 and beyond
the served count, replica ids of 2³² and above, and zero, negative and
signed-zero series values.  Fixed cases pin what the partition and
bincount passes must keep: every latency or priority tie at the k-th
key, signed-zero extremes, values on bucket edges, times on window
edges, key ranges wide enough to split the count table, and NaN or
infinity rejected before any window changes.
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
from repro.obs.sketch import QuantileSketch
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


class TestOfferManyThresholdTies:
    """``offer_many`` partitions at the k-th key and keeps every request
    tied there; dropping one tie changes which requests win."""

    @staticmethod
    def both(replica, ids, lats, slowest_k, reservoir_size, seed=0):
        loop = ExemplarStore(slowest_k, reservoir_size, seed)
        bulk = ExemplarStore(slowest_k, reservoir_size, seed)
        new = records(replica, ids, lats)
        for record in new:
            loop.offer(record)
        by_id = {r.request_id: r for r in new}
        bulk.offer_many(replica, np.array(ids, dtype=np.int64),
                        np.array(lats, dtype=float), by_id.__getitem__)
        return bulk, loop

    @pytest.mark.parametrize("slowest_k", [1, 5, 8, 40])
    def test_latency_ties_at_the_kth_value(self, slowest_k):
        # 60 requests share the slowest latency and 60 the next, in
        # shuffled id order, so the k-th key sits inside a tied run
        rng = np.random.default_rng(slowest_k)
        lats = [900.0] * 60 + [250.0] * 60 + [0.0, -0.0] * 20
        ids = rng.permutation(np.arange(10_000, 10_160) * 7).tolist()
        bulk, loop = self.both(3, ids, lats, slowest_k, 0)
        assert store_json(bulk) == store_json(loop)
        kept = sorted(i for i, lat in zip(ids, lats) if lat == 900.0)
        assert [r.request_id for r in bulk.slowest] == kept[:slowest_k]

    def test_signed_zero_ties(self):
        ids = list(range(30, 0, -1))
        lats = [0.0 if i % 2 else -0.0 for i in ids]
        bulk, loop = self.both(0, ids, lats, 4, 0)
        assert store_json(bulk) == store_json(loop)
        assert [r.request_id for r in bulk.slowest] == [1, 2, 3, 4]

    @pytest.mark.parametrize("reservoir_size", [1, 4, 16])
    def test_priority_ties_at_the_kth_value(self, monkeypatch,
                                            reservoir_size):
        import repro.obs.exemplars as exemplars
        real = exemplars.priority_hash_many

        def coarse(seed, replica, request_ids):
            # four priority levels: most requests tie with the k-th
            return np.floor(real(seed, replica, request_ids) * 4.0) / 4.0

        # offer() reaches the same function through priority_hash
        monkeypatch.setattr(exemplars, "priority_hash_many", coarse)
        rng = np.random.default_rng(reservoir_size)
        ids = rng.permutation(np.arange(200) * 13 + 5).tolist()
        lats = rng.choice([100.0, 200.0], size=200).tolist()
        bulk, loop = self.both(2, ids, lats, 0, reservoir_size, seed=9)
        assert store_json(bulk) == store_json(loop)
        assert len(bulk.reservoir) == reservoir_size
        assert len({r.request_id for r in bulk.reservoir}) == reservoir_size


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


def series_json(series: WindowedSeries) -> str:
    return json.dumps(series.to_dict(include_sketch_state=True))


def extremes(series: WindowedSeries) -> List[str]:
    """Each window's min/max/total and its sketch's min/max, signs kept."""
    out = []
    for index in series.window_indices():
        w = series.window(index)
        row = (w.min, w.max, w.total)
        if w.sketch is not None:
            row += (w.sketch._min, w.sketch._max)
        out.append(repr(row))
    return out


class TestRecordManyGrouped:
    """``record_many`` keys the values once and counts every (window,
    key) pair in one ``np.bincount``; it must match one ``record()`` per
    value, window by window."""

    @staticmethod
    def both(window_us, calls, track_quantiles=True):
        loop = WindowedSeries(window_us, track_quantiles=track_quantiles)
        bulk = WindowedSeries(window_us, track_quantiles=track_quantiles)
        for ts, vals in calls:
            record_each(loop, ts, vals)
            bulk.record_many(ts, vals)
        assert series_json(bulk) == series_json(loop)
        assert extremes(bulk) == extremes(loop)
        return bulk

    def test_unsorted_times_zeros_and_negatives(self):
        rng = np.random.default_rng(0)
        ts = rng.uniform(-3_000.0, 40_000.0, 2_000)
        vals = rng.choice([0.0, -0.0, 3.5, -3.5, 1.0, -250.0, 1e4], 2_000)
        vals = vals * rng.uniform(0.5, 1.5, 2_000) * (rng.random(2_000) < .7)
        bulk = self.both(1_000.0, [(ts.tolist(), vals.tolist())])
        assert len(bulk) > 40

    def test_repeated_calls_into_existing_windows(self):
        rng = np.random.default_rng(1)
        calls = []
        for scale in (1.0, -1.0, 1.0):
            ts = rng.uniform(0.0, 9_000.0, 500)
            vals = scale * rng.lognormal(3.0, 2.0, 500)
            vals[::7] = 0.0
            calls.append((ts.tolist(), vals.tolist()))
        calls.append(([4_500.0] * 3, [-0.0, 0.0, -0.0]))
        self.both(750.0, calls)

    def test_signed_zero_extremes_keep_the_first(self):
        calls = [([5.0, 6.0, 7.0], [0.0, -0.0, 0.0]),
                 ([15.0, 16.0], [-0.0, 0.0]),
                 ([25.0, 26.0, 27.0], [-0.0, 2.0, 0.0])]
        self.both(10.0, calls)

    @pytest.mark.parametrize("alpha", [0.005, 0.01, 0.05])
    def test_values_on_bucket_edges(self, alpha):
        gamma = QuantileSketch(alpha).gamma
        edges = [gamma ** k for k in range(-300, 1_200, 7)]
        values = []
        for edge in edges:
            values += [edge, np.nextafter(edge, 0.0),
                       np.nextafter(edge, np.inf)]
        values += [-v for v in values[::2]]
        ts = np.random.default_rng(2).uniform(0.0, 10_000.0, len(values))
        series = WindowedSeries(500.0, track_quantiles=True,
                                relative_accuracy=alpha)
        loop = WindowedSeries(500.0, track_quantiles=True,
                              relative_accuracy=alpha)
        record_each(loop, ts.tolist(), values)
        series.record_many(ts, values)
        assert series_json(series) == series_json(loop)

    def test_keys_span_many_count_tables(self):
        # values over 600 decades: each chunk of the (window, sign, key)
        # table holds only a few windows
        rng = np.random.default_rng(3)
        ts = rng.uniform(0.0, 60.0, 3_000)
        vals = 10.0 ** rng.uniform(-300.0, 300.0, 3_000)
        vals[::3] *= -1.0
        bulk = self.both(1.0, [(ts.tolist(), vals.tolist())])
        assert len(bulk) == 60

    def test_shared_keys_match_own_keys(self):
        rng = np.random.default_rng(4)
        ts = rng.uniform(0.0, 5_000.0, 400)
        vals = rng.lognormal(4.0, 1.0, 400) * rng.choice([-1.0, 0.0, 1.0],
                                                         400)
        own = WindowedSeries(100.0, track_quantiles=True)
        shared = WindowedSeries(100.0, track_quantiles=True)
        own.record_many(ts, vals)
        shared.record_many(ts, vals, QuantileSketch().bucket_keys(vals))
        assert series_json(shared) == series_json(own)
        with pytest.raises(ValueError):
            shared.record_many(ts, vals, np.zeros(3, dtype=np.int64))

    def test_times_on_window_edges(self):
        # the quotient t / window rounds onto (or off) an integer near a
        # window edge; record_many must window those times as // does
        width = 0.1
        edges = np.arange(-50, 50) * width
        ts = np.concatenate([edges, np.nextafter(edges, -np.inf),
                             np.nextafter(edges, np.inf), [0.0, -0.0]])
        bulk = self.both(width, [(ts.tolist(), None)],
                         track_quantiles=False)
        assert bulk.count == ts.size

    def test_nan_rejected_before_any_window_changes(self):
        series = WindowedSeries(100.0, track_quantiles=True)
        series.record_many([10.0, 250.0], [1.0, 2.0])
        before = series_json(series)
        with pytest.raises(ValueError):
            series.record_many([20.0, 30.0, 900.0], [1.0, float("nan"), 3.0])
        with pytest.raises(ValueError):
            series.record_many([20.0, 900.0], [5.0, float("inf")])
        assert series_json(series) == before
        # without quantiles an infinite value is recorded, as record() does
        plain = self.both(100.0, [([1.0, 2.0], [float("inf"), 1.0])],
                          track_quantiles=False)
        assert plain.window(0).max == float("inf")


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
