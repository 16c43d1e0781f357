"""Tests for the metrics registry, exporters and ServiceMetrics bridge."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    bind_service_metrics,
    sanitize_metric_name,
    service_metrics_families,
)
from repro.service import ServiceMetrics


class TestNameScheme:
    def test_rejects_off_scheme_names(self):
        registry = MetricsRegistry()
        for bad in ("batch_total", "repro_Batch", "repro_", "repro_9x"):
            with pytest.raises(ValueError, match="scheme"):
                registry.counter(bad)

    def test_rejects_duplicates(self):
        registry = MetricsRegistry()
        registry.counter("repro_batch_queries_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_batch_queries_total")

    def test_sanitize_metric_name(self):
        assert (
            sanitize_metric_name("batch.queries", "_total")
            == "repro_batch_queries_total"
        )
        assert (
            sanitize_metric_name("Store.Shard-Load", "_seconds")
            == "repro_store_shard_load_seconds"
        )
        assert sanitize_metric_name("...") == "repro_unnamed"


class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_stream_batches_total", "batches")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)
        family = counter.collect()
        assert family.kind == "counter"
        assert family.name == "repro_stream_batches_total"
        assert family.samples[0].value == 3.5

    def test_counter_collect_appends_total_suffix(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_store_scans")
        assert counter.collect().name == "repro_store_scans_total"

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_stream_queue_depth")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3.0
        assert gauge.collect().kind == "gauge"

    def test_histogram_bucket_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("repro_batch_wait_seconds", buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram(
                "repro_batch_wait_seconds", buckets=[0.1, 0.1, 0.2]
            )
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram(
                "repro_batch_sort_seconds", buckets=[0.2, 0.1]
            )

    def test_histogram_le_semantics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_batch_stage_seconds", buckets=[0.1, 1.0]
        )
        histogram.observe(0.05)  # <= 0.1
        histogram.observe(0.1)  # == bound counts into its bucket
        histogram.observe(0.5)  # <= 1.0
        histogram.observe(9.0)  # above last bound: +Inf only
        assert histogram.cumulative_buckets() == [(0.1, 2), (1.0, 3)]
        family = histogram.collect()
        by_label = {
            sample.labels: sample.value
            for sample in family.samples
            if sample.name.endswith("_bucket")
        }
        assert by_label[(("le", "0.1"),)] == 2.0
        assert by_label[(("le", "1"),)] == 3.0
        assert by_label[(("le", "+Inf"),)] == 4.0
        tail = {s.name: s.value for s in family.samples[-2:]}
        assert tail["repro_batch_stage_seconds_count"] == 4.0
        assert tail["repro_batch_stage_seconds_sum"] == pytest.approx(9.65)


class TestExporters:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("repro_batch_queries_total", "queries seen").inc(7)
        registry.gauge("repro_stream_lag_batches", "stream lag").set(2)
        registry.histogram(
            "repro_batch_total_seconds", "batch wall time", buckets=[0.5]
        ).observe(0.1)
        return registry

    def test_exposition_text_format(self):
        text = self.build().exposition()
        lines = text.splitlines()
        assert "# HELP repro_batch_queries_total queries seen" in lines
        assert "# TYPE repro_batch_queries_total counter" in lines
        assert "repro_batch_queries_total 7" in lines
        assert "# TYPE repro_stream_lag_batches gauge" in lines
        assert 'repro_batch_total_seconds_bucket{le="0.5"} 1' in lines
        assert 'repro_batch_total_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_batch_total_seconds_count 1" in lines
        assert text.endswith("\n")

    def test_families_sorted_by_name(self):
        families = self.build().collect()
        names = [family.name for family in families]
        assert names == sorted(names)

    def test_snapshot_schema(self):
        snapshot = self.build().snapshot()
        assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION
        names = [family["name"] for family in snapshot["families"]]
        assert names == sorted(names)
        for family in snapshot["families"]:
            assert family["type"] in ("counter", "gauge", "histogram")
            assert all("value" in sample for sample in family["samples"])

    def test_writers(self, tmp_path):
        registry = self.build()
        prom = tmp_path / "metrics.prom"
        blob = tmp_path / "metrics.json"
        registry.write_exposition(prom)
        registry.write_snapshot(blob)
        assert prom.read_text(encoding="utf-8") == registry.exposition()
        payload = json.loads(blob.read_text(encoding="utf-8"))
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION


class TestServiceMetricsBridge:
    def populate(self):
        metrics = ServiceMetrics()
        metrics.count("batch.queries", 40)
        metrics.count("store.shard_loads", 3)
        metrics.observe("batch.identify", 0.002)
        metrics.observe("batch.identify", 0.004)
        metrics.count("index.pairs_considered", 1000)
        metrics.count("index.verifications", 100)
        return metrics

    def test_counters_become_total_families(self):
        families = service_metrics_families(self.populate().stats())
        by_name = {family.name: family for family in families}
        queries = by_name["repro_batch_queries_total"]
        assert queries.kind == "counter"
        assert queries.samples[0].value == 40.0

    def test_stages_become_seconds_histograms(self):
        families = service_metrics_families(self.populate().stats())
        by_name = {family.name: family for family in families}
        identify = by_name["repro_batch_identify_seconds"]
        assert identify.kind == "histogram"
        buckets = [
            sample
            for sample in identify.samples
            if sample.name.endswith("_bucket")
        ]
        # explicit finite bounds from the snapshot, plus +Inf
        assert buckets[-1].labels == (("le", "+Inf"),)
        assert buckets[-1].value == 2.0
        assert len(buckets) > 1
        count = identify.samples[-1]
        assert count.name == "repro_batch_identify_seconds_count"
        assert count.value == 2.0
        total = identify.samples[-2]
        assert total.name == "repro_batch_identify_seconds_sum"
        assert total.value == pytest.approx(0.006)

    def test_bind_is_live_at_scrape_time(self):
        metrics = ServiceMetrics()
        registry = MetricsRegistry()
        bind_service_metrics(registry, metrics)
        assert "repro_batch_queries_total" not in registry.exposition()
        metrics.count("batch.queries", 5)
        assert "repro_batch_queries_total 5" in registry.exposition()
