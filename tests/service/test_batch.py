"""Tests for the batch identification engine."""

from __future__ import annotations

import json

import pytest

from repro.bits import BitVector
from repro.core import Fingerprint, FingerprintDatabase, mark_errors
from repro.service import (
    SCHEMA_VERSION,
    BatchIdentificationService,
    BatchQuery,
    DegradedShard,
    ShardedFingerprintStore,
    merge_degraded,
)
from repro.service.batch import verify_against_linear

NBITS = 2048


def corpus_and_queries(rng, n_devices=250, n_hits=40, n_misses=15):
    """Synthetic corpus plus hit/miss error-string queries."""
    corpus = [
        (
            f"device-{index:04d}",
            Fingerprint(bits=BitVector.random(NBITS, rng, 0.01)),
        )
        for index in range(n_devices)
    ]
    queries, expected = [], []
    for hit in range(n_hits):
        key, fingerprint = corpus[int(rng.integers(0, n_devices))]
        errors = fingerprint.bits | BitVector.random(NBITS, rng, 0.02)
        queries.append(BatchQuery.from_errors(f"hit-{hit}", errors))
        expected.append(key)
    for miss in range(n_misses):
        queries.append(
            BatchQuery.from_errors(
                f"miss-{miss}", BitVector.random(NBITS, rng, 0.015)
            )
        )
        expected.append(None)
    return corpus, queries, expected


def one_shard_store(tmp_path, corpus):
    """The whole corpus in a single-shard store, in ingest order."""
    store = ShardedFingerprintStore(tmp_path / "store", n_shards=1)
    store.ingest(corpus)
    return store


class TestBatchQuery:
    def test_requires_exactly_one_form(self):
        bits = BitVector.from_indices(64, [1])
        with pytest.raises(ValueError):
            BatchQuery(query_id="q")
        with pytest.raises(ValueError):
            BatchQuery(
                query_id="q", error_string=bits, approx=bits, exact=bits
            )

    def test_pair_queries_equal_prebuilt_error_queries(self, tmp_path, rng):
        """The engine's vectorized marking matches per-query marking."""
        corpus, _queries, _expected = corpus_and_queries(rng, n_devices=100)
        store = one_shard_store(tmp_path, corpus)
        exact = BitVector.random(NBITS, rng, 0.5)
        approxes = []
        for index in range(10):
            _key, fingerprint = corpus[index * 7]
            approxes.append(exact ^ fingerprint.bits)
        pair_queries = [
            BatchQuery.from_pair(f"q{index}", approx, exact)
            for index, approx in enumerate(approxes)
        ]
        error_queries = [
            BatchQuery.from_errors(f"q{index}", mark_errors(approx, exact))
            for index, approx in enumerate(approxes)
        ]
        service = BatchIdentificationService(store)
        pair_results = service.run(pair_queries).results
        error_results = service.run(error_queries).results
        for from_pair, from_errors in zip(pair_results, error_results):
            assert from_pair.identification == from_errors.identification


class TestAgainstLinearReference:
    def test_database_backend_matches_linear(self, tmp_path, rng):
        """One shard holding everything answers like the flat scan."""
        corpus, queries, expected = corpus_and_queries(rng)
        store = one_shard_store(tmp_path, corpus)
        linear = FingerprintDatabase()
        for key, fingerprint in corpus:
            linear.add(key, fingerprint)
        report = BatchIdentificationService(store).run(queries)
        assert [
            result.identification.key for result in report.results
        ] == expected
        disagreements = verify_against_linear(
            report.results,
            list(linear.items()),
            [query.error_string for query in queries],
        )
        assert disagreements == 0

    def test_sharded_backend_matches_linear(self, tmp_path, rng):
        """The shard fan-out + sequence merge reproduces the flat scan."""
        corpus, queries, expected = corpus_and_queries(rng)
        store = ShardedFingerprintStore(tmp_path / "store", n_shards=5)
        store.ingest(corpus)
        store.evict()
        report = BatchIdentificationService(store, max_workers=3).run(queries)
        assert [
            result.identification.key for result in report.results
        ] == expected
        disagreements = verify_against_linear(
            report.results,
            corpus,
            [query.error_string for query in queries],
        )
        assert disagreements == 0

    def test_first_match_semantics_across_shards(self, tmp_path, rng):
        """Two near-identical fingerprints landing in different shards:
        the one ingested first must win, as in a flat linear scan."""
        bits = BitVector.random(NBITS, rng, 0.01)
        # Keys chosen to land in different key ranges.
        batch = [
            ("aaa-first", Fingerprint(bits=bits.copy())),
            ("mmm-padding", Fingerprint(bits=BitVector.random(NBITS, rng, 0.01))),
            ("zzz-duplicate", Fingerprint(bits=bits.copy())),
        ]
        store = ShardedFingerprintStore(tmp_path / "store", n_shards=3)
        store.ingest(batch)
        assert store.shard_for_key("aaa-first") != store.shard_for_key(
            "zzz-duplicate"
        )
        report = BatchIdentificationService(store).run(
            [BatchQuery.from_errors("q", bits)]
        )
        assert report.results[0].identification.key == "aaa-first"


class TestResiduals:
    def test_unmatched_queries_cluster_by_origin(self, tmp_path, rng):
        """Residuals from the same unknown device land in one suspect
        cluster; different devices open different suspects."""
        store = one_shard_store(
            tmp_path, [("known", Fingerprint(bits=BitVector.random(NBITS, rng, 0.01)))]
        )
        unknown_a = BitVector.random(NBITS, rng, 0.01)
        unknown_b = BitVector.random(NBITS, rng, 0.01)
        queries = [
            BatchQuery.from_errors("a1", unknown_a | BitVector.random(NBITS, rng, 0.001)),
            BatchQuery.from_errors("b1", unknown_b | BitVector.random(NBITS, rng, 0.001)),
            BatchQuery.from_errors("a2", unknown_a | BitVector.random(NBITS, rng, 0.001)),
        ]
        service = BatchIdentificationService(store)
        report = service.run(queries)
        results = {result.query_id: result for result in report.results}
        assert report.unmatched_count == 3
        assert results["a1"].new_suspect and results["b1"].new_suspect
        assert not results["a2"].new_suspect
        assert results["a1"].suspect_key == results["a2"].suspect_key
        assert results["b1"].suspect_key != results["a1"].suspect_key
        assert len(service.clusterer) == 2

    def test_residual_routing_can_be_disabled(self, tmp_path, rng):
        store = one_shard_store(
            tmp_path, [("known", Fingerprint(bits=BitVector.random(NBITS, rng, 0.01)))]
        )
        service = BatchIdentificationService(store, cluster_residuals=False)
        report = service.run(
            [BatchQuery.from_errors("q", BitVector.random(NBITS, rng, 0.01))]
        )
        assert service.clusterer is None
        assert report.results[0].suspect_key is None


class TestReporting:
    def test_report_shape_and_metrics(self, tmp_path, rng):
        corpus, queries, _expected = corpus_and_queries(rng, n_hits=5, n_misses=2)
        service = BatchIdentificationService(one_shard_store(tmp_path, corpus))
        report = service.run(queries)
        payload = report.to_json()
        assert payload["matched"] == report.matched_count == 5
        assert payload["unmatched"] == report.unmatched_count == 2
        assert len(payload["results"]) == 7
        counters = payload["metrics"]["counters"]
        assert counters["batch.queries"] == 7
        assert counters["batch.batches"] == 1
        assert counters["batch.residuals_clustered"] == 2
        stages = payload["metrics"]["stages"]
        for stage in ("batch.total", "batch.mark_errors", "batch.identify"):
            assert stages[stage]["count"] >= 1

    def test_empty_store_all_queries_miss(self, tmp_path, rng):
        store = ShardedFingerprintStore(tmp_path / "store", n_shards=2)
        report = BatchIdentificationService(store).run(
            [BatchQuery.from_errors("q", BitVector.random(NBITS, rng, 0.01))]
        )
        assert report.matched_count == 0
        assert report.results[0].suspect_key == "suspect-0"


class TestSchemaVersioning:
    def test_batch_report_carries_schema_version(self, tmp_path, rng):
        corpus, queries, _expected = corpus_and_queries(rng, n_hits=2, n_misses=1)
        store = one_shard_store(tmp_path, corpus)
        payload = BatchIdentificationService(store).run(queries).to_json()
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_degraded_shard_round_trips(self):
        entry = DegradedShard(
            shard=3,
            key_range=("device-0100", None),
            reason="unreadable after retries: boom",
            attempts=3,
        )
        payload = entry.to_json()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert DegradedShard.from_json(payload) == entry
        # and through an actual JSON encode/decode cycle
        recycled = DegradedShard.from_json(json.loads(json.dumps(payload)))
        assert recycled == entry

    def test_unknown_schema_version_is_rejected(self):
        payload = DegradedShard(
            shard=0, key_range=(None, None), reason="x"
        ).to_json()
        payload["schema_version"] = 999
        with pytest.raises(ValueError):
            DegradedShard.from_json(payload)

    def test_missing_attempts_defaults_to_one(self):
        payload = DegradedShard(
            shard=0, key_range=(None, None), reason="x"
        ).to_json()
        del payload["attempts"]
        assert DegradedShard.from_json(payload).attempts == 1


class TestDegradedDeduplication:
    def test_merge_sums_attempts_and_keeps_single_reason(self):
        a = DegradedShard(shard=1, key_range=(None, None), reason="r", attempts=2)
        b = DegradedShard(shard=1, key_range=(None, None), reason="r", attempts=3)
        merged = merge_degraded([a, b])
        assert len(merged) == 1
        assert merged[0].attempts == 5
        assert merged[0].reason == "r"

    def test_merge_joins_distinct_reasons(self):
        a = DegradedShard(
            shard=1, key_range=(None, None), reason="timed out", attempts=1
        )
        b = DegradedShard(
            shard=1, key_range=(None, None), reason="unreadable", attempts=3
        )
        merged = merge_degraded([a, b])
        assert merged[0].reason == "timed out; unreadable"
        assert merged[0].attempts == 4

    def test_merge_orders_by_shard_and_preserves_distinct_shards(self):
        entries = [
            DegradedShard(shard=2, key_range=(None, None), reason="x"),
            DegradedShard(shard=0, key_range=(None, None), reason="y"),
            DegradedShard(shard=2, key_range=(None, None), reason="x"),
        ]
        merged = merge_degraded(entries)
        assert [entry.shard for entry in merged] == [0, 2]
        assert merged[1].attempts == 2

    def test_merged_with_rejects_shard_mismatch(self):
        a = DegradedShard(shard=1, key_range=(None, None), reason="x")
        b = DegradedShard(shard=2, key_range=(None, None), reason="x")
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_failing_shard_reported_once_per_batch(self, tmp_path, rng):
        """A shard that is both quarantined-degraded and load-failing
        produces one merged entry, not duplicates."""
        from repro.reliability import FaultPlan, FaultyIO

        corpus, queries, _expected = corpus_and_queries(
            rng, n_devices=60, n_hits=4, n_misses=0
        )
        store = ShardedFingerprintStore(tmp_path / "store", n_shards=2)
        store.ingest(corpus)
        faulty = FaultyIO(
            FaultPlan(fail_at=1, fail_count=10**9, match="shard-001")
        )
        broken = ShardedFingerprintStore(tmp_path / "store", storage_io=faulty)
        service = BatchIdentificationService(
            broken, shard_retries=1, retry_backoff_s=0.0
        )
        report = service.run(queries)
        shards = [entry.shard for entry in report.degraded_shards]
        assert shards == sorted(set(shards))
        entry = next(e for e in report.degraded_shards if e.shard == 1)
        assert entry.attempts == 2  # retries + 1
