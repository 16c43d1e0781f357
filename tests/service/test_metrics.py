"""Tests for the service instrumentation layer."""

from __future__ import annotations

import threading

from repro.service import LatencyHistogram, ServiceMetrics


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.percentile(0.5) == 0.0
        assert histogram.mean == 0.0

    def test_basic_stats(self):
        histogram = LatencyHistogram()
        for sample in (0.001, 0.002, 0.003, 0.004):
            histogram.record(sample)
        assert histogram.count == 4
        assert abs(histogram.mean - 0.0025) < 1e-9
        assert histogram.max == 0.004

    def test_percentiles_bracket_samples(self):
        """Bucketed percentiles land within a bucket width of truth."""
        histogram = LatencyHistogram()
        for index in range(100):
            histogram.record(0.001 * (index + 1))  # 1ms .. 100ms
        p50 = histogram.percentile(0.50)
        p95 = histogram.percentile(0.95)
        assert 0.03 <= p50 <= 0.09  # true p50 = 50ms, bucket factor ~1.58
        assert 0.06 <= p95 <= 0.15  # true p95 = 95ms
        assert p50 <= p95 <= histogram.max

    def test_percentile_never_exceeds_max(self):
        histogram = LatencyHistogram()
        histogram.record(0.0005)
        assert histogram.percentile(0.99) <= histogram.max

    def test_snapshot_keys(self):
        histogram = LatencyHistogram()
        histogram.record(0.01)
        snapshot = histogram.snapshot()
        assert set(snapshot) == {
            "count",
            "mean_s",
            "min_s",
            "max_s",
            "p50_s",
            "p95_s",
            "p99_s",
            "buckets",
        }

    def test_snapshot_buckets_are_cumulative_with_explicit_bounds(self):
        """The exposition writer consumes ``le`` pairs as-is — no
        re-derivation of the private bucket geometry."""
        histogram = LatencyHistogram()
        for sample in (0.001, 0.002, 0.5):
            histogram.record(sample)
        buckets = histogram.snapshot()["buckets"]
        bounds = [bucket["le"] for bucket in buckets]
        counts = [bucket["count"] for bucket in buckets]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts)  # cumulative: monotone
        assert counts[-1] == 3  # truncated after the last occupied bucket
        assert all(bound > 0 for bound in bounds)
        # every recorded sample is <= the final bound (le semantics)
        assert 0.5 <= bounds[-1]

    def test_snapshot_buckets_empty_histogram(self):
        assert LatencyHistogram().snapshot()["buckets"] == []

    def test_empty_percentile_all_fractions(self):
        histogram = LatencyHistogram()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == 0.0

    def test_percentile_q0_is_min_q1_is_max(self):
        histogram = LatencyHistogram()
        for sample in (0.004, 0.001, 0.1):
            histogram.record(sample)
        assert histogram.percentile(0.0) == 0.001
        assert histogram.percentile(1.0) == 0.1
        assert histogram.min == 0.001

    def test_single_sample_every_percentile(self):
        """One sample answers itself at every q — no bucket rounding."""
        histogram = LatencyHistogram()
        histogram.record(0.0123)
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert histogram.percentile(q) == 0.0123

    def test_percentiles_clamped_into_sample_range(self):
        histogram = LatencyHistogram()
        histogram.record(0.005)
        histogram.record(0.006)
        for q in (0.0, 0.5, 1.0):
            assert 0.005 <= histogram.percentile(q) <= 0.006

    def test_percentile_rejects_out_of_range(self):
        histogram = LatencyHistogram()
        for bad in (-0.1, 1.1):
            try:
                histogram.percentile(bad)
            except ValueError:
                continue
            raise AssertionError(f"percentile({bad}) did not raise")

    def test_histogram_thread_safety(self):
        """Concurrent recorders into one histogram lose no samples."""
        histogram = LatencyHistogram()

        def work():
            for index in range(1000):
                histogram.record(1e-6 * (index + 1))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 8000
        assert histogram.min == 1e-6
        assert histogram.max == 1e-3
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 8000.0


class TestServiceMetrics:
    def test_counters(self):
        metrics = ServiceMetrics()
        metrics.count("queries")
        metrics.count("queries", 4)
        assert metrics.counter("queries") == 5
        assert metrics.counter("never") == 0

    def test_timing_context(self):
        metrics = ServiceMetrics()
        with metrics.time("stage"):
            pass
        histogram = metrics.histogram("stage")
        assert histogram is not None and histogram.count == 1

    def test_stats_snapshot(self):
        metrics = ServiceMetrics()
        metrics.count("index.pairs_considered", 1000)
        metrics.count("index.verifications", 20)
        metrics.observe("identify.indexed", 0.002)
        stats = metrics.stats()
        assert stats["counters"]["index.verifications"] == 20
        assert "identify.indexed" in stats["stages"]

    def test_stats_keys_are_sorted_and_versioned(self):
        from repro.service.metrics import STATS_SCHEMA_VERSION

        metrics = ServiceMetrics()
        metrics.count("zeta.last", 1)
        metrics.count("alpha.first", 2)
        metrics.observe("z.stage", 0.001)
        metrics.observe("a.stage", 0.001)
        stats = metrics.stats()
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert list(stats["counters"]) == ["alpha.first", "zeta.last"]
        assert list(stats["stages"]) == ["a.stage", "z.stage"]

    def test_counters_with_prefix_sorted(self):
        metrics = ServiceMetrics()
        metrics.count("reliability.z", 1)
        metrics.count("reliability.a", 2)
        metrics.count("other", 3)
        block = metrics.counters_with_prefix("reliability.")
        assert list(block) == ["reliability.a", "reliability.z"]

    def test_format_stats_mentions_percentiles(self):
        metrics = ServiceMetrics()
        metrics.count("batch.queries", 3)
        metrics.observe("batch.total", 0.01)
        text = metrics.format_stats()
        assert "batch.queries: 3" in text
        assert "p50=" in text and "p95=" in text

    def test_thread_safety(self):
        """Concurrent increments are not lost (the batch engine's
        worker threads share one metrics object)."""
        metrics = ServiceMetrics()

        def work():
            for _ in range(1000):
                metrics.count("hits")
                metrics.observe("stage", 1e-6)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("hits") == 8000
        assert metrics.histogram("stage").count == 8000

    def test_reset(self):
        metrics = ServiceMetrics()
        metrics.count("a")
        metrics.observe("s", 0.1)
        metrics.reset()
        assert metrics.counter("a") == 0
        assert metrics.histogram("s") is None
