"""Tests for the consistent-hash placement map and its journaled store.

The two contracts under test: (1) the ring — R distinct replicas per
partition, deterministic routing, and minimal movement under
rebalancing; (2) the commit protocol — seven StorageIO operations,
torn and foreign journals roll back, and ``recover()`` sweeps a stray
temporary.  A crash at (or during) every one of the seven operations
is enumerated by the shared harness in
``tests/reliability/test_crash_harness.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.reliability import FaultPlan, FaultyIO, InjectedFault
from repro.service import PlacementError, PlacementMap, stable_key_hash
from repro.service.placement import (
    PLACEMENT_JOURNAL_NAME,
    PLACEMENT_NAME,
    PLACEMENT_TMP_NAME,
    PlacementStore,
)

WORKERS = ["worker-000", "worker-001", "worker-002", "worker-003"]


class TestStableKeyHash:
    def test_deterministic_across_calls(self):
        assert stable_key_hash("device-042") == stable_key_hash("device-042")

    def test_64_bit_range(self):
        for key in ("", "a", "device-000", "x" * 200):
            assert 0 <= stable_key_hash(key) < 2**64

    def test_spreads_keys(self):
        partitions = {
            stable_key_hash(f"device-{i:04d}") % 8 for i in range(200)
        }
        assert len(partitions) == 8


class TestPlacementMap:
    def test_every_partition_gets_r_distinct_replicas(self):
        placement = PlacementMap.build(WORKERS, n_partitions=16, replication=3)
        for partition in range(16):
            replicas = placement.replicas(partition)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert set(replicas) <= set(WORKERS)

    def test_routing_is_deterministic(self):
        a = PlacementMap.build(WORKERS, n_partitions=8, replication=2)
        b = PlacementMap.build(WORKERS, n_partitions=8, replication=2)
        assert a.assignments == b.assignments
        for i in range(50):
            key = f"device-{i:03d}"
            assert a.partition_for_key(key) == b.partition_for_key(key)
            assert a.partition_for_key(key) < 8

    def test_partitions_of_inverts_replicas(self):
        placement = PlacementMap.build(WORKERS, n_partitions=12, replication=2)
        for worker in WORKERS:
            for partition in placement.partitions_of(worker):
                assert worker in placement.replicas(partition)

    def test_removal_moves_only_affected_partitions(self):
        """Consistent hashing: partitions whose replica list never
        involved the removed worker keep identical assignments."""
        before = PlacementMap.build(WORKERS, n_partitions=32, replication=2)
        after = before.rebalanced(remove=["worker-001"])
        assert after.version == before.version + 1
        assert "worker-001" not in after.workers
        for partition in range(32):
            if "worker-001" not in before.replicas(partition):
                assert after.replicas(partition) == before.replicas(partition)

    def test_rebalance_validates_worker_sets(self):
        placement = PlacementMap.build(WORKERS, n_partitions=8, replication=2)
        with pytest.raises(PlacementError, match="unknown worker"):
            placement.rebalanced(remove=["worker-999"])
        with pytest.raises(PlacementError, match="already placed"):
            placement.rebalanced(add=["worker-000"])

    def test_replication_cannot_exceed_workers(self):
        with pytest.raises(PlacementError, match="replication"):
            PlacementMap.build(WORKERS[:2], n_partitions=4, replication=3)

    def test_payload_round_trip(self):
        placement = PlacementMap.build(WORKERS, n_partitions=8, replication=2)
        restored = PlacementMap.from_payload(placement.to_payload())
        assert restored == placement

    def test_rejects_unknown_schema(self):
        payload = PlacementMap.build(
            WORKERS, n_partitions=4, replication=2
        ).to_payload()
        payload["schema_version"] = 99
        with pytest.raises(PlacementError, match="schema_version"):
            PlacementMap.from_payload(payload)


#: Operations in one PlacementStore.commit: journal write, dir fsync,
#: tmp write, atomic rename, dir fsync, journal remove, dir fsync.
COMMIT_OPS = 7


class TestPlacementStoreCommit:
    def test_initialize_then_load_round_trips(self, tmp_path):
        placement = PlacementMap.build(WORKERS, n_partitions=8, replication=2)
        store = PlacementStore(tmp_path)
        store.initialize(placement)
        assert store.exists()
        assert not store.journal_pending()
        assert store.load() == placement

    def test_commit_takes_exactly_the_documented_ops(self, tmp_path):
        placement = PlacementMap.build(WORKERS, n_partitions=8, replication=2)
        faulty = FaultyIO()
        PlacementStore(tmp_path, faulty).initialize(placement)
        assert faulty.ops == COMMIT_OPS
        assert [op for op, _ in faulty.log] == [
            "write_bytes",
            "fsync_dir",
            "write_bytes",
            "replace",
            "fsync_dir",
            "remove",
            "fsync_dir",
        ]

    def test_recover_on_clean_store_is_a_noop(self, tmp_path):
        placement = PlacementMap.build(WORKERS, n_partitions=8, replication=2)
        store = PlacementStore(tmp_path)
        store.initialize(placement)
        before = (tmp_path / PLACEMENT_NAME).read_bytes()
        assert store.recover() == "clean"
        assert (tmp_path / PLACEMENT_NAME).read_bytes() == before

    def test_recover_sweeps_stray_tmp(self, tmp_path):
        store = PlacementStore(tmp_path)
        store.initialize(
            PlacementMap.build(WORKERS, n_partitions=4, replication=2)
        )
        (tmp_path / PLACEMENT_TMP_NAME).write_bytes(b"half-written junk")
        assert store.recover() == "clean"
        assert not (tmp_path / PLACEMENT_TMP_NAME).exists()

    def test_torn_journal_rolls_back(self, tmp_path):
        placement = PlacementMap.build(WORKERS, n_partitions=8, replication=2)
        store = PlacementStore(tmp_path)
        store.initialize(placement)
        pre = (tmp_path / PLACEMENT_NAME).read_bytes()
        faulty = FaultyIO(FaultPlan(fail_at=1, mode="torn"))
        with pytest.raises(InjectedFault):
            PlacementStore(tmp_path, faulty).commit(
                placement.rebalanced(remove=["worker-003"])
            )
        assert store.recover() == "rolled_back"
        assert (tmp_path / PLACEMENT_NAME).read_bytes() == pre
        assert not store.journal_pending()

    def test_foreign_journal_rolls_back(self, tmp_path):
        store = PlacementStore(tmp_path)
        store.initialize(
            PlacementMap.build(WORKERS, n_partitions=4, replication=2)
        )
        pre = (tmp_path / PLACEMENT_NAME).read_bytes()
        (tmp_path / PLACEMENT_JOURNAL_NAME).write_bytes(
            json.dumps({"kind": "something-else"}).encode()
        )
        assert store.recover() == "rolled_back"
        assert (tmp_path / PLACEMENT_NAME).read_bytes() == pre
