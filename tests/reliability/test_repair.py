"""Tests for verify/repair self-healing and degraded-mode serving."""

from __future__ import annotations

import json
import shutil
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.reliability import (
    Compactor,
    FaultPlan,
    FaultyIO,
    StorageIO,
    prune_quarantine,
    repair_store,
    verify_store,
)
from repro.service import (
    BatchIdentificationService,
    BatchQuery,
    ShardedFingerprintStore,
    StoreError,
)
from tests.reliability.conftest import make_batch
from tests.reliability.test_compaction import build_store
from tests.reliability.test_compaction_chaos import ONE_MERGE_POLICY, clean_run

CORPUS_SEED = 2015
CORPUS_SIZE = 500


def corrupt_record(path, record_index, rng=None):
    """Flip one bit inside the payload of frame ``record_index``.

    With ``rng`` (the CI fault-seed matrix) the flipped position and
    bit vary per seed; without it the payload midpoint is hit.
    """
    data = bytearray(path.read_bytes())
    _version, count = struct.unpack("<HI", bytes(data[4:10]))
    assert record_index < count
    cursor = 10
    for index in range(count):
        (payload_length,) = struct.unpack(
            "<I", bytes(data[cursor : cursor + 4])
        )
        if index == record_index:
            if rng is None:
                position, bit = payload_length // 2, 4
            else:
                position = int(rng.integers(0, payload_length))
                bit = int(rng.integers(0, 8))
            data[cursor + 4 + position] ^= 1 << bit
            path.write_bytes(bytes(data))
            return
        cursor += 4 + payload_length + 4
    raise AssertionError("record not found")


def exact_queries(batch, stride=1):
    """One query per fingerprint, using its own bits as error string."""
    return [
        BatchQuery.from_errors(key, fingerprint.bits)
        for key, fingerprint in batch[::stride]
    ]


def decisions(store, queries):
    """query_id -> matched key (or None) via the batch service."""
    service = BatchIdentificationService(store, cluster_residuals=False)
    report = service.run(queries)
    return {
        result.query_id: result.identification.key if result.matched else None
        for result in report.results
    }


@pytest.fixture(scope="module")
def corpus():
    """Seeded 500-device fingerprint corpus (satellite property test)."""
    rng = np.random.default_rng(CORPUS_SEED)
    return make_batch(CORPUS_SIZE, rng, prefix="device")


@pytest.fixture(scope="module")
def store_pair(tmp_path_factory, corpus):
    """Two identical stores over the corpus; one gets repaired."""
    base = tmp_path_factory.mktemp("repair-property")
    control = ShardedFingerprintStore(base / "control", n_shards=4)
    control.ingest(corpus)
    repaired = ShardedFingerprintStore(base / "repaired", n_shards=4)
    repaired.ingest(corpus)
    report = repair_store(repaired)
    assert report.clean
    return control, repaired


class TestRepairIsInvisibleOnHealthyStore:
    def test_repair_clean_and_idempotent(self, tmp_path, rng):
        store = ShardedFingerprintStore(tmp_path / "s", n_shards=3)
        store.ingest(make_batch(40, rng))
        manifest_before = (tmp_path / "s" / "manifest.json").read_bytes()
        segment_files = {
            record.filename: (tmp_path / "s" / record.filename).read_bytes()
            for record in store.segments
        }
        for _round in range(2):
            report = repair_store(store)
            assert report.clean
            assert report.records_salvaged == 0 and report.records_lost == 0
        assert (tmp_path / "s" / "manifest.json").read_bytes() == manifest_before
        for filename, content in segment_files.items():
            assert (tmp_path / "s" / filename).read_bytes() == content

    def test_decisions_unchanged_across_corpus(self, store_pair, corpus):
        """Every one of the 500 devices identifies identically on the
        repaired store and the untouched control."""
        control, repaired = store_pair
        queries = exact_queries(corpus)
        assert decisions(repaired, queries) == decisions(control, queries)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        device=st.integers(min_value=0, max_value=CORPUS_SIZE - 1),
        extra_bits=st.lists(
            st.integers(min_value=0, max_value=511), max_size=4
        ),
    )
    def test_decisions_unchanged_property(
        self, store_pair, corpus, device, extra_bits
    ):
        """Property: for any device and any decayed variant of its
        error string, repair does not change the identification."""
        control, repaired = store_pair
        key, fingerprint = corpus[device]
        errors = fingerprint.bits.copy()
        for bit in extra_bits:
            errors.set(bit, True)
        query = [BatchQuery.from_errors(key, errors)]
        assert decisions(repaired, query) == decisions(control, query)


def _drop_segments(manifest):
    del manifest["segments"]


def _drop_n_shards(manifest):
    del manifest["n_shards"]


def _tombstone_without_sequence(manifest):
    manifest["tombstones"] = [{"key": "dev-0000"}]


class TestMalformedManifest:
    """The store and verify-store read one manifest parser, so they
    agree on what is malformed."""

    @pytest.mark.parametrize(
        "damage",
        [_drop_segments, _drop_n_shards, _tombstone_without_sequence],
        ids=["no-segments", "no-n_shards", "tombstone-without-sequence"],
    )
    def test_open_and_verify_both_reject(self, tmp_path, rng, damage):
        root = tmp_path / "s"
        ShardedFingerprintStore(root, n_shards=2).ingest(make_batch(10, rng))
        manifest = json.loads((root / "manifest.json").read_text())
        damage(manifest)
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="malformed manifest"):
            ShardedFingerprintStore(root)
        verification = verify_store(root)
        assert not verification.manifest_ok
        assert not verification.ok and not verification.recoverable
        assert verification.problems()[0].startswith("manifest: malformed")


class TestSalvage:
    @pytest.fixture
    def damaged_store(self, tmp_path, rng, fault_rng):
        """A 2-shard store with one record of one segment corrupted."""
        root = tmp_path / "damaged"
        store = ShardedFingerprintStore(root, n_shards=2)
        batch = make_batch(60, rng)
        store.ingest(batch)
        victim = store.segments[0]
        corrupt_record(root / victim.filename, 2, rng=fault_rng)
        store.evict()
        return root, store, batch, victim

    def test_verify_localizes_the_damage(self, damaged_store):
        root, _store, _batch, victim = damaged_store
        verification = verify_store(root)
        assert not verification.ok
        assert verification.corrupt_records == 1
        bad = [entry for entry in verification.segments if not entry.ok]
        assert len(bad) == 1
        assert bad[0].filename == victim.filename
        assert bad[0].corrupt[0].record_index == 2
        assert any("CORRUPT" in line for line in verification.problems())

    def test_salvage_preserves_surviving_decisions(self, damaged_store):
        root, store, batch, victim = damaged_store
        report = repair_store(store)
        assert not report.clean
        assert report.records_salvaged == victim.count - 1
        assert report.records_lost == 1
        assert report.quarantined == [
            (victim.filename, f"1 corrupt of {victim.count} records")
        ]
        # The damaged original is evidence, not garbage.
        quarantine_name = victim.filename.replace("/", "__")
        assert (root / "quarantine" / quarantine_name).exists()
        assert not (root / victim.filename).exists()
        # The replacement is spliced in with the dropped offset recorded.
        replacement = next(
            record
            for record in store.segments
            if record.filename.endswith("-salvaged.pcfp")
        )
        assert replacement.start_sequence == victim.start_sequence
        assert replacement.count == victim.count - 1
        assert len(replacement.omitted) == 1
        assert verify_store(root).ok  # degraded but consistent
        assert store.degraded_shards() == [victim.shard]

        # Every fingerprint that survived still identifies as itself,
        # with its original sequence-based priority.
        expectation = decisions(store, exact_queries(batch))
        missing = [key for key, matched in expectation.items() if matched is None]
        assert len(missing) == 1  # exactly the corrupted record
        for key, matched in expectation.items():
            if key not in missing:
                assert matched == key

        # Self-healing converges: a second repair finds nothing.
        assert repair_store(store).clean

    def test_unreadable_segment_is_fully_quarantined(self, tmp_path, rng):
        root = tmp_path / "trashed"
        store = ShardedFingerprintStore(root, n_shards=2)
        store.ingest(make_batch(30, rng))
        victim = store.segments[0]
        (root / victim.filename).write_bytes(b"not a fingerprint stream")
        store.evict()
        report = repair_store(store)
        assert report.records_salvaged == 0
        assert report.records_lost == victim.count
        assert store.metrics.counter("store.segments_quarantined") == 1
        assert verify_store(root).ok

    def test_missing_segment_is_quarantined(self, tmp_path, rng):
        root = tmp_path / "missing"
        store = ShardedFingerprintStore(root, n_shards=2)
        store.ingest(make_batch(30, rng))
        victim = store.segments[-1]
        (root / victim.filename).unlink()
        store.evict()
        report = repair_store(store)
        assert (victim.filename, "segment file missing") in report.quarantined
        assert report.records_lost >= victim.count
        assert verify_store(root).ok


class TestPendingFileWording:
    """verify-store words an unreferenced file a pending journal names
    by what ``recover()`` does with it."""

    def test_retired_source_is_swept(self, tmp_path, rng):
        """Compaction crashed after its manifest swap, at the first
        source delete: every source is left behind for the sweep."""
        root = tmp_path / "base"
        build_store(root, rng, n_batches=4, n_shards=1)
        clean = clean_run(root, tmp_path)
        first_source_remove = next(
            index + 1
            for index, (name, path) in enumerate(clean["log"])
            if name == "remove" and path.endswith(".pcfp")
        )
        work = tmp_path / "cleanup"
        shutil.copytree(root, work)
        plan = FaultPlan(fail_at=clean["open_ops"] + first_source_remove)
        store = ShardedFingerprintStore(work, storage_io=FaultyIO(plan))
        with pytest.raises(OSError):
            Compactor(store, ONE_MERGE_POLICY).run_once()
        sources = json.loads((work / "compaction-journal.json").read_text())["sources"]
        verification = verify_store(work)
        assert verification.recoverable
        assert [line for line in verification.problems() if "source" in line] == [
            f"undeleted compaction source {name}; recover() will sweep it"
            for name in sorted(sources)
        ]

    def test_added_salvage_is_published(self, tmp_path, rng):
        """Repair crashed at the manifest write inside
        ``quarantine_segment``: the salvage replacement is on disk but
        unpublished, and recovery publishes it."""
        root = tmp_path / "store"
        store = ShardedFingerprintStore(root, n_shards=2)
        store.ingest(make_batch(40, rng))
        victim = store.segments[0]
        corrupt_record(root / victim.filename, 1)
        plan = FaultPlan(fail_at=1, fail_count=10**6, match="manifest.json.tmp")
        with pytest.raises(OSError):
            repair_store(ShardedFingerprintStore(root, storage_io=FaultyIO(plan)))
        salvaged = victim.filename.removesuffix(".pcfp") + "-salvaged.pcfp"
        verification = verify_store(root)
        assert verification.recoverable
        assert verification.pending_files == {salvaged: ("quarantine", True)}
        assert (
            f"unpublished quarantine output {salvaged}; recover() will "
            "publish it if it verifies, else sweep it"
        ) in verification.problems()

        report = repair_store(ShardedFingerprintStore(root))
        assert not report.clean
        assert report.to_json()["quarantine_action"] == "quarantine_rolled_forward"
        assert salvaged in {record.filename for record in ShardedFingerprintStore(root).segments}


class TestDegradedServing:
    @pytest.fixture
    def served_store(self, tmp_path, rng):
        root = tmp_path / "serving"
        store = ShardedFingerprintStore(root, n_shards=3)
        batch = make_batch(90, rng)
        store.ingest(batch)
        return root, store, batch

    def test_corrupt_shard_degrades_instead_of_failing(
        self, served_store, fault_rng
    ):
        """The acceptance criterion: one shard fully corrupted, batch
        queries still answer from the healthy shards, every result is
        tagged degraded and the report names the lost key range."""
        root, store, batch = served_store
        victim_shard = store.segments[0].shard
        for record in store.segments:
            if record.shard == victim_shard:
                corrupt_record(root / record.filename, 0, rng=fault_rng)
        store.evict()

        service = BatchIdentificationService(
            store, cluster_residuals=False, retry_backoff_s=0.0
        )
        report = service.run(exact_queries(batch, stride=3))
        assert report.degraded
        assert [entry.shard for entry in report.degraded_shards] == [
            victim_shard
        ]
        entry = report.degraded_shards[0]
        assert entry.key_range == store.shard_key_range(victim_shard)
        assert "unreadable" in entry.reason
        assert all(result.degraded for result in report.results)
        # Healthy shards still answered authoritatively.
        healthy = [
            result
            for result in report.results
            if store.shard_for_key(result.query_id) != victim_shard
        ]
        assert healthy and all(result.matched for result in healthy)
        assert all(
            result.identification.key == result.query_id for result in healthy
        )
        # Victim-shard queries fell through, but did not error.
        lost = [
            result
            for result in report.results
            if store.shard_for_key(result.query_id) == victim_shard
        ]
        assert lost and not any(result.matched for result in lost)
        assert service.metrics.counter("batch.shard_failures") == 1
        assert service.metrics.counter("batch.shard_retries") >= 1
        assert service.metrics.counter("batch.degraded_queries") == len(
            report.results
        )

        # Repair, then serve again: survivors answer, the report still
        # flags the shard as incomplete (quarantined data is gone).
        repair_store(store)
        after = BatchIdentificationService(
            store, cluster_residuals=False
        ).run(exact_queries(batch, stride=3))
        assert after.degraded
        assert "quarantined" in after.degraded_shards[0].reason
        assert service.metrics.counter("batch.shard_failures") == 1  # no new

    def test_transient_fault_heals_via_retry(self, tmp_path, rng):
        root = tmp_path / "transient"
        batch = make_batch(20, rng)
        ShardedFingerprintStore(root, n_shards=2).ingest(batch)

        # Op 1 is the manifest read at open; op 2 is the first segment
        # read of the batch run — it fails once, then the retry heals.
        io_ = FaultyIO(FaultPlan(fail_at=2, match="segment-"))
        store = ShardedFingerprintStore(root, storage_io=io_)
        service = BatchIdentificationService(
            store,
            cluster_residuals=False,
            retry_backoff_s=0.0,
            max_workers=1,
        )
        report = service.run(exact_queries(batch, stride=20))
        assert not report.degraded
        assert report.results[0].matched
        assert io_.faults_fired == 1
        assert service.metrics.counter("batch.shard_retries") == 1
        assert service.metrics.counter("batch.shard_failures") == 0

    def test_slow_shard_times_out_into_degraded(self, tmp_path, rng):
        class SlowIO(StorageIO):
            def read_bytes(self, path):
                if str(path).endswith(".pcfp"):
                    time.sleep(0.5)
                return super().read_bytes(path)

        root = tmp_path / "slow"
        batch = make_batch(20, rng)
        ShardedFingerprintStore(root, n_shards=2).ingest(batch)
        store = ShardedFingerprintStore(root, storage_io=SlowIO())
        service = BatchIdentificationService(
            store,
            cluster_residuals=False,
            shard_retries=0,
            shard_timeout_s=0.05,
        )
        report = service.run(exact_queries(batch, stride=10))
        assert report.degraded
        assert any(
            "timed out" in entry.reason for entry in report.degraded_shards
        )
        assert service.metrics.counter("batch.shard_timeouts") >= 1
        assert not any(result.matched for result in report.results)


class TestPruneQuarantine:
    """Satellite: retention pruning of the quarantine directory."""

    @pytest.fixture
    def quarantined_store(self, tmp_path, rng, fault_rng):
        """A store whose first segment was corrupted and quarantined."""
        root = tmp_path / "pruned"
        store = ShardedFingerprintStore(root, n_shards=2)
        store.ingest(make_batch(60, rng))
        victim = store.segments[0]
        corrupt_record(root / victim.filename, 1, rng=fault_rng)
        store.evict()
        repair_store(store)
        assert store.quarantined
        return root, store, victim

    def test_clean_store_prunes_nothing(self, tmp_path, rng):
        store = ShardedFingerprintStore(tmp_path / "s", n_shards=2)
        store.ingest(make_batch(10, rng))
        report = prune_quarantine(store, older_than_days=0.0)
        assert report.examined == 0
        assert report.pruned_entries == 0 and not report.pruned_files

    def test_dry_run_touches_nothing(self, quarantined_store):
        root, store, _victim = quarantined_store
        manifest_before = (root / "manifest.json").read_bytes()
        report = prune_quarantine(store, older_than_days=0.0, dry_run=True)
        assert report.dry_run
        assert report.examined == 1 and report.pruned_entries == 1
        assert report.pruned_files and report.bytes_freed > 0
        for filename in report.pruned_files:
            assert (root / filename).exists()  # still on disk
        assert (root / "manifest.json").read_bytes() == manifest_before
        assert store.quarantined  # entry still recorded

    def test_prune_deletes_files_and_reclaims_sequences(
        self, quarantined_store
    ):
        root, store, victim = quarantined_store
        report = prune_quarantine(store, older_than_days=0.0)
        assert not report.dry_run
        assert report.pruned_entries == 1
        assert report.bytes_freed > 0
        for filename in report.pruned_files:
            assert not (root / filename).exists()
        assert store.quarantined == []
        covered = {
            sequence
            for start, count in store.reclaimed
            for sequence in range(start, start + count)
        }
        assert set(
            range(victim.start_sequence, victim.start_sequence + victim.count)
        ) <= covered
        assert store.metrics.counter("store.quarantine_pruned") == 1
        assert verify_store(root).ok
        # Idempotent: a second prune finds nothing.
        assert prune_quarantine(store, older_than_days=0.0).pruned_entries == 0

    def test_fresh_files_are_kept(self, quarantined_store):
        _root, store, _victim = quarantined_store
        report = prune_quarantine(store, older_than_days=30.0)
        assert report.pruned_entries == 0
        assert report.kept_files
        assert store.quarantined  # untouched

    def test_aged_files_cross_the_cutoff(self, quarantined_store):
        import os as _os

        root, store, _victim = quarantined_store
        old = time.time() - 10 * 86400.0
        for path in (root / "quarantine").iterdir():
            _os.utime(path, (old, old))
        report = prune_quarantine(store, older_than_days=7.0)
        assert report.pruned_entries == 1
        assert store.quarantined == []
        assert verify_store(root).ok

    def test_negative_retention_rejected(self, quarantined_store):
        _root, store, _victim = quarantined_store
        with pytest.raises(ValueError):
            prune_quarantine(store, older_than_days=-1.0)
