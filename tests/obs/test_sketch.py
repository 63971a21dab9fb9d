"""QuantileSketch: relative-error bound, merges, serialization."""

import json
import math

import numpy as np
import pytest

from repro.obs.sketch import (DEFAULT_MAX_BINS, DEFAULT_RELATIVE_ACCURACY,
                              QuantileSketch)


def canonical(sketch: QuantileSketch) -> str:
    return json.dumps(sketch.to_dict(), sort_keys=True)


def exact_percentile(values, q):
    """Lower order statistic at rank q — the value the sketch bounds."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    return ordered[math.floor(rank)]


class TestBasics:
    def test_empty(self):
        s = QuantileSketch()
        assert s.count == 0
        assert s.percentile(50) == 0.0
        assert s.min == 0.0 and s.max == 0.0
        assert s.sum == 0.0

    def test_single_value(self):
        s = QuantileSketch()
        s.add(42.0)
        assert s.count == 1
        assert s.percentile(0) == 42.0
        assert s.percentile(100) == 42.0
        assert abs(s.percentile(50) - 42.0) <= 0.01 * 42.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=1.0)
        with pytest.raises(ValueError):
            QuantileSketch(max_bins=1)
        with pytest.raises(ValueError):
            QuantileSketch().add(float("nan"))
        with pytest.raises(ValueError):
            QuantileSketch().add_many([1.0, float("nan")])
        # add() overflows on infinity; the bulk paths refuse it up front
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                QuantileSketch().add_many([1.0, bad])
            with pytest.raises(ValueError):
                QuantileSketch().bucket_keys([bad])

    def test_add_many_matches_add(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(3.0, 1.0, size=500)
        one = QuantileSketch()
        for v in values:
            one.add(float(v))
        bulk = QuantileSketch()
        bulk.add_many(values)
        assert canonical(one) == canonical(bulk)

    def test_add_many_keeps_the_first_signed_zero(self):
        # min/max follow add()'s strict < / > rule: among equal extremes
        # (here 0.0 and -0.0) the first one seen stays
        for values in ([0.0, -0.0] * 20, [-0.0, 0.0] * 20):
            one = QuantileSketch()
            for v in values:
                one.add(v)
            bulk = QuantileSketch()
            bulk.add_many(values)
            assert repr((bulk.min, bulk.max)) == repr((one.min, one.max))
            assert canonical(bulk) == canonical(one)

    @pytest.mark.parametrize("alpha", [0.005, DEFAULT_RELATIVE_ACCURACY,
                                       0.05])
    def test_add_and_add_many_agree_on_bucket_boundaries(self, alpha):
        """add (math.log) and add_many (np.log, with a math.log recheck
        next to integer quotients) pick the same key at every gamma**k,
        k in [-200, 1500], and at both float neighbours."""
        gamma = QuantileSketch(alpha).gamma
        values = []
        for k in range(-200, 1501):
            edge = math.pow(gamma, k)
            values += [np.nextafter(edge, 0.0), edge,
                       np.nextafter(edge, math.inf)]
        bulk = QuantileSketch(alpha)
        bulk.add_many(values)
        one = QuantileSketch(alpha)
        for v in values:
            one.add(float(v))
        assert bulk.counts == one.counts
        # and value by value, so no two disagreements can cancel out
        assert one._keys(np.array(values)).tolist() == [
            one._key(float(v)) for v in values]

    def test_zeros_and_negatives(self):
        s = QuantileSketch()
        s.add_many([-100.0, -1.0, 0.0, 0.0, 1.0, 100.0])
        assert s.count == 6
        assert s.zero_count == 2
        assert s.percentile(0) == -100.0
        assert s.percentile(100) == 100.0
        # zeros sit between the negatives and positives in rank order
        assert s.percentile(50) == 0.0

    def test_relative_error_bound_lognormal(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(3.0, 1.2, size=20_000)
        s = QuantileSketch(0.01)
        s.add_many(values)
        for q in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
            true = exact_percentile(values, q)
            est = s.percentile(q)
            assert abs(est - true) <= 0.0101 * abs(true), (
                f"p{q}: est {est} vs true {true}")

    def test_count_min_max_mean(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        s = QuantileSketch()
        s.add_many(values)
        assert s.count == len(values)
        assert s.min == 1.0 and s.max == 9.0
        assert abs(s.mean - np.mean(values)) <= 0.01 * np.mean(values)
        assert s.value == s.mean


class TestMergeInvariance:
    def test_merge_both_orders_equals_single_stream(self):
        rng = np.random.default_rng(2)
        values = rng.exponential(100.0, size=5_000)
        whole = QuantileSketch()
        whole.add_many(values)
        a, b = QuantileSketch(), QuantileSketch()
        a.add_many(values[:1234])
        b.add_many(values[1234:])
        ab = a.copy().merge(b)
        ba = b.copy().merge(a)
        assert canonical(whole) == canonical(ab) == canonical(ba)

    def test_merge_many_shards_any_grouping(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(2.0, 1.0, size=3_000)
        shards = np.array_split(values, 7)

        def build(order):
            out = QuantileSketch()
            for i in order:
                part = QuantileSketch()
                part.add_many(shards[i])
                out.merge(part)
            return out

        fwd = build(range(7))
        rev = build(reversed(range(7)))
        assert canonical(fwd) == canonical(rev)

    def test_merge_requires_same_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_merge_preserves_exact_count(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.add_many([1.0, 2.0, 0.0])
        b.add_many([-3.0, 4.0])
        assert a.merge(b).count == 5


class TestBoundedMemory:
    def test_collapse_caps_buckets(self):
        rng = np.random.default_rng(4)
        # nine decades of dynamic range blows past a 64-bucket budget
        values = np.power(10.0, rng.uniform(-3, 6, size=20_000))
        s = QuantileSketch(0.01, max_bins=64)
        s.add_many(values)
        assert s.num_buckets > 64          # live map is uncollapsed
        dump = s.to_dict()
        assert len(dump["counts"]) <= 64   # serialized state is capped
        assert sum(dump["counts"].values()) + dump["zero_count"] == s.count
        # quantiles in the *kept* range (the tail telemetry cares
        # about) keep the guarantee; folded low quantiles only ever
        # overestimate (mass moves up into the fold bucket), never
        # corrupt the tail
        for q in (99, 99.9):
            true = exact_percentile(values, q)
            assert abs(s.percentile(q) - true) <= 0.0101 * true
        assert s.percentile(10) >= exact_percentile(values, 10)

    def test_collapse_is_merge_order_invariant(self):
        rng = np.random.default_rng(5)
        values = np.power(10.0, rng.uniform(-3, 6, size=4_000))
        whole = QuantileSketch(0.01, max_bins=32)
        whole.add_many(values)
        a = QuantileSketch(0.01, max_bins=32)
        b = QuantileSketch(0.01, max_bins=32)
        a.add_many(values[:2_000])
        b.add_many(values[2_000:])
        assert canonical(a.copy().merge(b)) == canonical(whole)
        assert canonical(b.copy().merge(a)) == canonical(whole)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        s = QuantileSketch(0.02)
        s.add_many(rng.normal(0.0, 50.0, size=2_000))   # mixed signs
        clone = QuantileSketch.from_dict(s.to_dict())
        assert canonical(clone) == canonical(s)
        for q in (1, 50, 99):
            assert clone.percentile(q) == s.percentile(q)

    def test_summary_keys(self):
        s = QuantileSketch()
        s.add_many([1.0, 2.0, 3.0])
        summary = s.summary()
        assert set(summary) == {"count", "relative_accuracy",
                                "num_buckets", "min", "max", "mean",
                                "p50", "p95", "p99"}


class TestAcceptance:
    def test_million_sample_stream(self):
        """ISSUE acceptance: 1M samples, p50/p95/p99 within 1 %, O(1k)
        buckets."""
        rng = np.random.default_rng(42)
        # diurnal-ish latency mix: lognormal body + heavy tail burst
        body = rng.lognormal(5.0, 0.6, size=900_000)
        tail = rng.lognormal(7.0, 0.4, size=100_000)
        values = np.concatenate([body, tail])
        s = QuantileSketch(DEFAULT_RELATIVE_ACCURACY)
        s.add_many(values)
        assert s.count == 1_000_000
        for q in (50, 95, 99):
            true = float(np.percentile(values, q))
            est = s.percentile(q)
            assert abs(est - true) / true <= 0.01, (
                f"p{q}: {est} vs {true}")
        assert s.num_buckets <= 1_000         # O(1k) live buckets
        assert s.max_bins == DEFAULT_MAX_BINS
