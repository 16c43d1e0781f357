"""Tests for LSM compaction: planning, merge semantics, bloom-filter
read skipping, and the mixed-version (v1 + v2) property test against a
linear-scan oracle (satellite)."""

from __future__ import annotations

import io
import json
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialize import VERSION_1, VERSION_2, dump_database
from repro.reliability import (
    BackgroundCompactor,
    CompactionPolicy,
    Compactor,
    plan_compaction,
    stream_load_probe,
    verify_store,
)
from repro.reliability.compaction import REASON_SIZE_TIER, REASON_TOMBSTONES
from repro.service import ShardedFingerprintStore
from tests.reliability.conftest import make_batch

#: Planning knobs small enough that 10-record test segments qualify.
SMALL_POLICY = CompactionPolicy(
    small_segment_records=64,
    trigger_segments_per_shard=3,
    max_concurrent_merges=8,
)


def build_store(root, rng, n_batches=4, batch_size=10, n_shards=2):
    """A store grown through ``n_batches`` ingests (many small segments).

    Batches are strided slices of one keyspace so every ingest spans
    every shard's key range (the shard boundaries are fixed by the
    first batch).
    """
    store = ShardedFingerprintStore(root, n_shards=n_shards)
    corpus = make_batch(n_batches * batch_size, rng)
    batches = [corpus[index::n_batches] for index in range(n_batches)]
    for batch in batches:
        store.ingest(batch)
    return store, batches


def oracle(root):
    """Linear-scan ground truth: key -> (sequence, fingerprint).

    Reads every live segment front to back, honouring tombstones and
    first-match-wins, with no help from the manifest beyond the segment
    list — the reference the compacted store must agree with.
    """
    store = ShardedFingerprintStore(root)
    table = {}
    for record in sorted(store.segments, key=lambda r: r.start_sequence):
        for sequence, (key, fingerprint) in zip(
            record.sequences(), store.read_segment(record)
        ):
            if key in store.tombstones:
                continue
            if key not in table or sequence < table[key][0]:
                table[key] = (sequence, fingerprint)
    return table


def rewrite_as_v1(store, record):
    """Regress one live segment to the legacy v1 wire format."""
    entries = store.read_segment(record)
    buffer = io.BytesIO()
    dump_database(entries, buffer, version=VERSION_1)
    (store.root / record.filename).write_bytes(buffer.getvalue())
    store.evict()


def segment_version(path):
    version, _count = struct.unpack("<HI", path.read_bytes()[4:10])
    return version


class TestPlanner:
    def test_empty_store_plans_nothing(self, tmp_path):
        store = ShardedFingerprintStore(tmp_path / "s", n_shards=2)
        assert len(plan_compaction(store, SMALL_POLICY)) == 0

    def test_below_trigger_plans_nothing(self, tmp_path, rng):
        store, _ = build_store(tmp_path / "s", rng, n_batches=2)
        assert len(plan_compaction(store, SMALL_POLICY)) == 0

    def test_small_runs_are_merged_per_shard(self, tmp_path, rng):
        store, _ = build_store(tmp_path / "s", rng, n_batches=4)
        plan = plan_compaction(store, SMALL_POLICY)
        assert len(plan) == store.n_shards
        for merge in plan.merges:
            assert merge.reason == REASON_SIZE_TIER
            assert len(merge.sources) >= SMALL_POLICY.min_merge_segments
            assert len({record.shard for record in merge.sources}) == 1
            starts = [record.start_sequence for record in merge.sources]
            assert starts == sorted(starts)  # consecutive, in order

    def test_fan_in_is_bounded(self, tmp_path, rng):
        store, _ = build_store(tmp_path / "s", rng, n_batches=6, n_shards=1)
        policy = CompactionPolicy(
            small_segment_records=64,
            trigger_segments_per_shard=3,
            max_merge_segments=3,
        )
        plan = plan_compaction(store, policy)
        assert len(plan) == 2
        assert all(len(m.sources) <= 3 for m in plan.merges)

    def test_big_segment_breaks_the_run(self, tmp_path, rng):
        root = tmp_path / "s"
        store = ShardedFingerprintStore(root, n_shards=1)
        store.ingest(make_batch(10, rng, prefix="a"))
        store.ingest(make_batch(10, rng, prefix="b"))
        store.ingest(make_batch(200, rng, prefix="big"))
        store.ingest(make_batch(10, rng, prefix="c"))
        store.ingest(make_batch(10, rng, prefix="d"))
        plan = plan_compaction(store, SMALL_POLICY)
        assert len(plan) == 2
        merged = [record.filename for m in plan.merges for record in m.sources]
        big = next(r for r in store.segments if r.count == 200)
        assert big.filename not in merged

    def test_tombstoned_segment_plans_single_rewrite(self, tmp_path, rng):
        store, batches = build_store(tmp_path / "s", rng, n_batches=2)
        store.tombstone([batches[0][0][0]])
        plan = plan_compaction(store, SMALL_POLICY)
        assert len(plan) == 1
        merge = plan.merges[0]
        assert merge.reason == REASON_TOMBSTONES
        assert len(merge.sources) == 1

    def test_size_tier_subsumes_tombstone_planning(self, tmp_path, rng):
        store, batches = build_store(tmp_path / "s", rng, n_batches=4)
        store.tombstone([batches[0][0][0]])
        plan = plan_compaction(store, SMALL_POLICY)
        # The tombstoned segment already rides a size-tiered merge; it
        # must not be planned twice.
        names = [r.filename for m in plan.merges for r in m.sources]
        assert len(names) == len(set(names))
        assert all(m.reason == REASON_SIZE_TIER for m in plan.merges)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(small_segment_records=0)
        with pytest.raises(ValueError):
            CompactionPolicy(min_merge_segments=1)
        with pytest.raises(ValueError):
            CompactionPolicy(min_merge_segments=4, max_merge_segments=2)
        with pytest.raises(ValueError):
            CompactionPolicy(backpressure_threshold=0.0)
        with pytest.raises(ValueError):
            CompactionPolicy(max_concurrent_merges=0)


class TestMerge:
    def test_merge_preserves_keys_and_sequences(self, tmp_path, rng):
        root = tmp_path / "s"
        store, _ = build_store(root, rng, n_batches=4)
        before = oracle(root)
        n_before = len(store.segments)

        report = Compactor(store, SMALL_POLICY).compact_all()
        assert report.merges and not report.deferred
        assert len(store.segments) < n_before
        assert oracle(root) == before
        assert verify_store(root).ok
        for merge in report.merges:
            assert merge.output is not None
            assert merge.records_dropped == 0

    def test_tombstoned_records_are_dropped_and_reclaimed(
        self, tmp_path, rng
    ):
        root = tmp_path / "s"
        store, batches = build_store(root, rng, n_batches=4)
        victims = [batches[0][i][0] for i in range(3)]
        sequences = store.tombstone(victims)
        assert len(store) == 37

        report = Compactor(store, SMALL_POLICY).compact_all()
        assert report.records_dropped == 3
        assert report.bytes_reclaimed > 0
        # Tombstones are cleared once their records are physically gone,
        # and the dropped sequences land in the reclaimed ledger.
        assert store.tombstones == {}
        covered = {
            sequence
            for start, count in store.reclaimed
            for sequence in range(start, start + count)
        }
        assert set(sequences.values()) <= covered
        assert len(store) == 37
        assert verify_store(root).ok
        for key in victims:
            assert store.lookup(key) is None

    def test_output_carries_runs_and_bloom(self, tmp_path, rng):
        root = tmp_path / "s"
        store, batches = build_store(root, rng, n_batches=4, n_shards=1)
        store.tombstone([batches[1][5][0]])
        Compactor(store, SMALL_POLICY).compact_all()
        (output,) = store.segments
        assert output.runs  # a hole => multiple runs
        assert sum(count for _start, count in output.runs) == output.count
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["segments"][0]["runs"] == [
            list(run) for run in output.runs
        ]
        # The merged segment got a fresh bloom trailer.
        reopened = ShardedFingerprintStore(root)
        found = reopened.lookup(batches[0][0][0])
        assert found is not None and found.segments_scanned == 1

    def test_compact_all_converges(self, tmp_path, rng):
        store, _ = build_store(tmp_path / "s", rng, n_batches=5)
        compactor = Compactor(store, SMALL_POLICY)
        compactor.compact_all()
        assert len(compactor.plan()) == 0
        assert not compactor.compact_all().merges

    def test_max_merges_budget(self, tmp_path, rng):
        store, _ = build_store(tmp_path / "s", rng, n_batches=4)
        assert len(plan_compaction(store, SMALL_POLICY)) == 2
        report = Compactor(store, SMALL_POLICY).compact_all(max_merges=1)
        assert len(report.merges) == 1

    def test_run_once_bounds_merges(self, tmp_path, rng):
        store, _ = build_store(tmp_path / "s", rng, n_batches=4)
        policy = CompactionPolicy(
            small_segment_records=64,
            trigger_segments_per_shard=3,
            max_concurrent_merges=1,
        )
        report = Compactor(store, policy).run_once()
        assert len(report.merges) == 1

    def test_backpressure_defers_the_pass(self, tmp_path, rng):
        store, _ = build_store(tmp_path / "s", rng, n_batches=4)
        compactor = Compactor(
            store, SMALL_POLICY, load_probe=lambda: 0.9
        )
        report = compactor.run_once()
        assert report.deferred and not report.merges
        assert store.metrics.counter("store.compaction_deferred") == 1
        # Load drains; the next pass runs.
        relaxed = Compactor(store, SMALL_POLICY, load_probe=lambda: 0.1)
        assert relaxed.run_once().merges

    def test_metrics_account_the_pass(self, tmp_path, rng):
        store, batches = build_store(tmp_path / "s", rng, n_batches=4)
        store.tombstone([batches[0][0][0]])
        report = Compactor(store, SMALL_POLICY).compact_all()
        metrics = store.metrics
        assert metrics.counter("store.compaction_commits") == len(report.merges)
        assert metrics.counter("store.compaction_merges") == len(report.merges)
        assert metrics.counter("store.compaction_records_dropped") == 1
        assert metrics.counter("store.compaction_segments_merged") == sum(
            len(merge.sources) for merge in report.merges
        )

    def test_ingest_continues_after_compaction(self, tmp_path, rng):
        root = tmp_path / "s"
        store, _ = build_store(root, rng, n_batches=4)
        Compactor(store, SMALL_POLICY).compact_all()
        late = make_batch(10, rng, prefix="late")
        store.ingest(late)
        assert len(store) == 50
        reopened = ShardedFingerprintStore(root)
        found = reopened.lookup(late[0][0])
        assert found is not None and found.sequence == 40


class TestBloomSkipping:
    def test_cold_lookup_skips_unrelated_segments(self, tmp_path, rng):
        root = tmp_path / "s"
        _store, batches = build_store(root, rng, n_batches=6, n_shards=1)
        cold = ShardedFingerprintStore(root)
        found = cold.lookup(batches[5][-1][0])
        assert found is not None
        assert found.segments_skipped >= 4
        assert found.segments_scanned <= 2
        assert cold.metrics.counter("store.bloom_segment_skips") >= 4

    def test_missing_key_reads_almost_nothing(self, tmp_path, rng):
        root = tmp_path / "s"
        build_store(root, rng, n_batches=6, n_shards=1)
        cold = ShardedFingerprintStore(root)
        assert cold.lookup("ghost-0000") is None
        skips = cold.metrics.counter("store.bloom_segment_skips")
        loads = cold.metrics.counter("store.bloom_segment_loads")
        assert skips >= 5 and loads <= 1

    def test_segment_without_trailer_is_still_read(self, tmp_path, rng):
        root = tmp_path / "s"
        store, batches = build_store(root, rng, n_batches=2, n_shards=1)
        rewrite_as_v1(store, store.segments[0])  # v1: no bloom trailer
        cold = ShardedFingerprintStore(root)
        found = cold.lookup(batches[0][0][0])
        assert found is not None and found.sequence == 0


class TestMixedVersionCompaction:
    """Satellite: v1 + v2 segments compact into v2 outputs with
    sequence order preserved, checked against the linear-scan oracle."""

    def test_mixed_store_compacts_to_v2(self, tmp_path, rng):
        root = tmp_path / "s"
        store, batches = build_store(root, rng, n_batches=4, n_shards=1)
        rewrite_as_v1(store, store.segments[0])
        rewrite_as_v1(store, store.segments[2])
        store.tombstone([batches[1][3][0], batches[2][7][0]])
        before = oracle(root)

        store = ShardedFingerprintStore(root)
        report = Compactor(store, SMALL_POLICY).compact_all()
        assert report.merges
        assert oracle(root) == before
        for record in store.segments:
            assert segment_version(root / record.filename) == VERSION_2
        assert verify_store(root).ok

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        v1_mask=st.sets(st.integers(min_value=0, max_value=3), max_size=4),
        tombstoned=st.sets(st.integers(min_value=0, max_value=39), max_size=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_oracle_equivalence_property(
        self, tmp_path_factory, v1_mask, tombstoned, seed
    ):
        """Property: for any subset of segments regressed to v1 and any
        tombstone subset, compaction preserves the oracle exactly."""
        root = tmp_path_factory.mktemp("mixed") / "s"
        rng = np.random.default_rng(seed)
        store, batches = build_store(root, rng, n_batches=4, n_shards=2)
        flat = [key for batch in batches for key, _fp in batch]
        segments = sorted(store.segments, key=lambda r: r.start_sequence)
        for index in v1_mask:
            if index < len(segments):
                rewrite_as_v1(store, segments[index])
        store = ShardedFingerprintStore(root)
        if tombstoned:
            store.tombstone(sorted({flat[i] for i in tombstoned}))
        before = oracle(root)

        Compactor(store, SMALL_POLICY).compact_all()
        after = oracle(root)
        assert after == before
        assert verify_store(root).ok
        reopened = ShardedFingerprintStore(root)
        for key, (sequence, fingerprint) in before.items():
            found = reopened.lookup(key)
            assert found is not None
            assert found.sequence == sequence
            assert found.fingerprint == fingerprint


class TestBackgroundCompactor:
    def test_runs_and_stops(self, tmp_path, rng):
        root = tmp_path / "s"
        store, _ = build_store(root, rng, n_batches=5)
        compactor = Compactor(store, SMALL_POLICY)
        background = BackgroundCompactor(compactor, interval_s=0.01)
        background.start()
        assert background.running
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if any(report.merges for report in background.reports()):
                break
            time.sleep(0.01)
        background.stop()
        assert not background.running
        assert background.failure() is None
        assert any(report.merges for report in background.reports())
        assert len(compactor.plan()) == 0
        assert verify_store(root).ok

    def test_failure_is_surfaced_not_swallowed(self, tmp_path, rng):
        store, _ = build_store(tmp_path / "s", rng, n_batches=4)

        def exploding_probe():
            raise RuntimeError("probe wired backwards")

        background = BackgroundCompactor(
            Compactor(store, SMALL_POLICY, load_probe=exploding_probe),
            interval_s=0.01,
        )
        background.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and background.running:
            time.sleep(0.01)
        assert isinstance(background.failure(), RuntimeError)
        assert not background.running

    def test_interval_validation(self, tmp_path, rng):
        store, _ = build_store(tmp_path / "s", rng, n_batches=1)
        with pytest.raises(ValueError):
            BackgroundCompactor(Compactor(store), interval_s=0.0)

    def test_stream_load_probe_reads_queue_fill(self):
        class FakeService:
            def queue_load(self):
                return 0.75

        assert stream_load_probe(FakeService())() == 0.75
