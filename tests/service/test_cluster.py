"""Tests for the clustered identification service.

The contracts: cluster answers are identical to a single-database
reference (first-enrolled-wins across partitions included), a
SIGKILLed worker's partitions fail over to surviving replicas with no
lost or duplicated results, health checking restarts dead workers with
seeded jitter, rebalancing copies replicas and commits through the
journaled placement store, and ``verify_cluster`` reports per-replica
divergence without mutating anything.
"""

from __future__ import annotations

import pytest

from repro.bits import BitVector
from repro.core import Fingerprint, FingerprintDatabase
from repro.core.identify import Identification, identify_error_string
from repro.service import (
    BatchQuery,
    ClusterConfig,
    ClusterService,
    ShardedFingerprintStore,
    build_cluster,
    verify_cluster,
)
from repro.service.fanout import merge_first_match
from repro.service.placement import PLACEMENT_JOURNAL_NAME, PlacementStore
from repro.service.rpc import partition_dir

NBITS = 256
N_DEVICES = 18

#: Fast-converging config for tests: no hedging (deterministic), quick
#: restarts, seeded jitter.
TEST_CONFIG = ClusterConfig(
    heartbeat_interval_s=0.05,
    liveness_timeout_s=2.0,
    request_timeout_s=15.0,
    hedge_delay_s=None,
    restart_backoff_base_s=0.01,
    restart_backoff_cap_s=0.05,
    jitter_seed=2015,
)


@pytest.fixture
def corpus(rng):
    """Enrollment entries plus the reference database, in global order.

    Device 9 is enrolled with device 3's exact bits, so any query for
    those bits has two cross-partition candidates and only the
    first-enrolled (device 3) answer is correct.
    """
    entries = []
    reference = FingerprintDatabase()
    bits = {}
    for index in range(N_DEVICES):
        key = f"device-{index:03d}"
        if index == 9:
            vector = bits["device-003"]
        else:
            vector = BitVector.random(NBITS, rng, density=0.05)
        bits[key] = vector
        fingerprint = Fingerprint(bits=vector, support=3)
        entries.append((key, fingerprint))
        reference.add(key, fingerprint)
    return entries, reference, bits


@pytest.fixture
def cluster_root(tmp_path, corpus):
    entries, _reference, _bits = corpus
    root = tmp_path / "cluster"
    build_cluster(root, entries, n_workers=3, n_partitions=4, replication=2)
    return root


def hit_queries(bits, keys):
    return [
        BatchQuery.from_errors(f"q-{key}", bits[key]) for key in keys
    ]


class TestMergeFirstMatch:
    def test_duplicate_sources_cannot_duplicate_results(self):
        """Hedged / replicated answers overlap; the min-sequence merge
        must be idempotent under that overlap."""
        answer = (7, Identification(matched=True, key="k", distance=0.01))
        merged = merge_first_match([[answer], [answer], [None]], 1)
        assert merged == [answer]
        earlier = (3, Identification(matched=True, key="j", distance=0.02))
        merged = merge_first_match([[answer], [earlier]], 1)
        assert merged == [earlier]

    def test_unanswered_queries_fail(self):
        assert merge_first_match([[None], [None]], 1) == [None]


class TestBuildCluster:
    def test_materializes_every_replica(self, cluster_root):
        placement = PlacementStore(cluster_root).load()
        assert placement.n_partitions == 4
        for partition in range(4):
            for worker_id in placement.replicas(partition):
                directory = partition_dir(cluster_root, worker_id, partition)
                assert (directory / "manifest.json").exists()
                assert (directory / "sequence-map.json").exists()

    def test_empty_partitions_are_materialized_and_servable(
        self, tmp_path, rng
    ):
        """Fewer keys than partitions leaves some partitions empty;
        they must still exist on disk and answer (with a miss) instead
        of failing every replica at query time."""
        entries = []
        bits = {}
        for index in range(3):
            key = f"device-{index:03d}"
            bits[key] = BitVector.random(NBITS, rng, density=0.05)
            entries.append((key, Fingerprint(bits=bits[key], support=3)))
        root = tmp_path / "sparse"
        placement = build_cluster(
            root, entries, n_workers=3, n_partitions=8, replication=2
        )
        for partition in range(8):
            for worker_id in placement.replicas(partition):
                directory = partition_dir(root, worker_id, partition)
                assert (directory / "sequence-map.json").exists(), (
                    f"partition {partition} replica missing"
                )
        assert verify_cluster(root).ok
        with ClusterService(root, TEST_CONFIG) as service:
            report = service.identify(hit_queries(bits, sorted(bits)))
            assert not report.degraded
            assert [r.identification.key for r in report.results] == (
                sorted(bits)
            )

    def test_replicas_of_a_partition_are_identical(self, cluster_root):
        verification = verify_cluster(cluster_root)
        assert verification.ok
        assert verification.divergent_partitions == []
        assert verification.missing_replicas == []
        # R=2 over 4 partitions → 8 replica stores checked.
        assert len(verification.replicas) == 8


class TestClusterIdentify:
    def test_matches_the_reference_database(self, cluster_root, corpus):
        _entries, reference, bits = corpus
        keys = sorted(bits)[:8]
        with ClusterService(cluster_root, TEST_CONFIG) as service:
            report = service.identify(hit_queries(bits, keys))
        assert not report.degraded
        for key, result in zip(keys, report.results):
            expected = identify_error_string(bits[key], reference, 0.1)
            assert result.identification.matched == expected.matched
            assert result.identification.key == expected.key

    def test_first_enrolled_wins_across_partitions(self, cluster_root, corpus):
        """Device 9 duplicates device 3's bits; Algorithm 2's
        first-enrolled-wins priority must survive partitioning."""
        _entries, _reference, bits = corpus
        with ClusterService(cluster_root, TEST_CONFIG) as service:
            report = service.identify(hit_queries(bits, ["device-003"]))
        assert report.results[0].identification.key == "device-003"

    def test_misses_stay_unmatched(self, cluster_root, rng):
        with ClusterService(cluster_root, TEST_CONFIG) as service:
            report = service.identify(
                [
                    BatchQuery.from_errors(
                        "q-miss", BitVector.random(NBITS, rng, density=0.02)
                    )
                ]
            )
        assert not report.results[0].identification.matched
        assert not report.degraded

    def test_failover_after_sigkill(self, cluster_root, corpus):
        """With R=2, SIGKILLing one worker mid-service loses nothing:
        every query still completes via the surviving replicas."""
        _entries, reference, bits = corpus
        keys = sorted(bits)
        with ClusterService(cluster_root, TEST_CONFIG) as service:
            victim = service.placement.workers[0]
            service.worker_handle(victim).kill()
            report = service.identify(hit_queries(bits, keys))
            assert not report.degraded
            assert len(report.results) == len(keys)
            for key, result in zip(keys, report.results):
                expected = identify_error_string(bits[key], reference, 0.1)
                assert result.identification.key == expected.key
            # Failover is either implicit (the dead worker is already
            # skipped as not-alive) or explicit (a round-0 request
            # failed and a failover round re-routed it); both count as
            # zero lost results, which is what the loop above proved.


class TestHealthAndRestart:
    def test_health_notes_death_and_restarts(self, cluster_root, corpus):
        _entries, _reference, bits = corpus
        with ClusterService(cluster_root, TEST_CONFIG) as service:
            victim = service.placement.workers[1]
            service.worker_handle(victim).kill()
            service.worker_handle(victim)._process.join(timeout=10.0)
            # First round: the death is noticed and a jittered restart
            # is scheduled; later rounds (past the tiny backoff) spawn.
            liveness = service.check_health()
            assert liveness[victim] is False
            deadline = 200
            while service.worker_handle(victim) is None and deadline:
                service.check_health()
                deadline -= 1
            assert service.worker_handle(victim) is not None
            assert service.metrics.counter("cluster.worker_deaths") == 1
            assert service.metrics.counter("cluster.worker_restarts") == 1
            # The restarted worker serves its partitions again.
            report = service.identify(hit_queries(bits, ["device-000"]))
            assert not report.degraded

    def test_restart_budget_is_finite(self, cluster_root):
        config = ClusterConfig(
            heartbeat_interval_s=0.05,
            hedge_delay_s=None,
            max_restarts=0,
            jitter_seed=2015,
        )
        with ClusterService(cluster_root, config) as service:
            victim = service.placement.workers[0]
            service.worker_handle(victim).kill()
            service.worker_handle(victim)._process.join(timeout=10.0)
            for _ in range(5):
                service.check_health()
            assert service.worker_handle(victim) is None
            assert service.metrics.counter("cluster.worker_restarts") == 0


class TestRebalance:
    def test_add_worker_copies_replicas_and_bumps_version(
        self, cluster_root, corpus
    ):
        _entries, reference, bits = corpus
        with ClusterService(cluster_root, TEST_CONFIG) as service:
            before = service.placement
            after = service.rebalance(add=["worker-003"])
            assert after.version == before.version + 1
            assert "worker-003" in after.workers
            keys = sorted(bits)[:6]
            report = service.identify(hit_queries(bits, keys))
            assert not report.degraded
            for key, result in zip(keys, report.results):
                expected = identify_error_string(bits[key], reference, 0.1)
                assert result.identification.key == expected.key
        verification = verify_cluster(cluster_root)
        assert verification.ok, verification.to_json()
        assert verification.placement_version == after.version

    def test_remove_worker_keeps_replication(self, cluster_root):
        with ClusterService(cluster_root, TEST_CONFIG) as service:
            after = service.rebalance(remove=["worker-002"])
            assert "worker-002" not in after.workers
            assert after.replication == 2
        verification = verify_cluster(cluster_root)
        assert verification.ok, verification.to_json()

    def test_offline_rebalance_without_start(self, cluster_root):
        """Rebalance works on a stopped cluster (the CLI path)."""
        service = ClusterService(cluster_root, TEST_CONFIG)
        try:
            after = service.rebalance(add=["worker-003"])
            assert after.version == 2
        finally:
            service.stop()
        assert verify_cluster(cluster_root).ok

    def test_interrupted_commit_recovers_on_next_open(
        self, cluster_root, monkeypatch
    ):
        """A journal left by a crashed rebalance is resolved (and
        counted) the next time the service opens the cluster."""
        store = PlacementStore(cluster_root)
        placement = store.load()
        new = placement.rebalanced(add=["worker-003"])
        from repro.service.placement import canonical_json_bytes

        (cluster_root / PLACEMENT_JOURNAL_NAME).write_bytes(
            canonical_json_bytes(
                {
                    "schema_version": 1,
                    "kind": "placement-commit",
                    "version": new.version,
                    "placement": new.to_payload(),
                }
            )
        )
        service = ClusterService(cluster_root, TEST_CONFIG)
        try:
            assert service.placement == new
            assert (
                service.metrics.counter(
                    "cluster.placement_recovered_rolled_forward"
                )
                == 1
            )
        finally:
            service.stop()


class TestVerifyCluster:
    def test_detects_replica_divergence(self, cluster_root):
        placement = PlacementStore(cluster_root).load()
        worker_id = placement.replicas(0)[0]
        sidecar = (
            partition_dir(cluster_root, worker_id, 0) / "sequence-map.json"
        )
        payload = sidecar.read_text().replace(
            '"sequences": {', '"sequences": {"ghost-device": 999, ', 1
        )
        sidecar.write_text(payload)
        verification = verify_cluster(cluster_root)
        assert 0 in verification.divergent_partitions
        assert not verification.ok

    def test_detects_missing_replica(self, cluster_root):
        placement = PlacementStore(cluster_root).load()
        worker_id = placement.replicas(1)[1]
        manifest = partition_dir(cluster_root, worker_id, 1) / "manifest.json"
        manifest.unlink()
        verification = verify_cluster(cluster_root)
        assert {"partition": 1, "worker": worker_id} in (
            verification.missing_replicas
        )
        assert not verification.ok

    def test_clean_cluster_is_ok(self, cluster_root):
        verification = verify_cluster(cluster_root)
        assert verification.ok
        payload = verification.to_json()
        assert payload["ok"] is True
        assert payload["schema_version"] == 1


class TestStreamEngineContract:
    def test_cluster_behind_the_stream_pipeline(
        self, tmp_path, cluster_root, corpus
    ):
        """The tentpole's driver contract: the stream pipeline's
        admission/checkpoint machinery in front of the cluster."""
        import json as json_module

        from repro.service import StreamingIdentificationService

        _entries, reference, bits = corpus
        keys = sorted(bits)[:10]
        obs = tmp_path / "obs.jsonl"
        obs.write_text(
            "\n".join(
                json_module.dumps(
                    {
                        "id": f"obs-{key}",
                        "nbits": NBITS,
                        "errors": [int(i) for i in bits[key].to_indices()],
                    }
                )
                for key in keys
            )
            + "\n"
        )
        with ClusterService(cluster_root, TEST_CONFIG) as engine:
            stream = StreamingIdentificationService(
                None,
                tmp_path / "state",
                batch_size=4,
                checkpoint_every=8,
                engine=engine,
                metrics=engine.metrics,
            )
            report = stream.run(obs)
        assert report.status == "completed"
        assert report.observations == len(keys)
        assert report.matched == sum(
            1
            for key in keys
            if identify_error_string(bits[key], reference, 0.1).matched
        )
