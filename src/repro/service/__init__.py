"""Batch identification service — the attacker at nation-state scale.

The paper's §4 attacker model assumes a fingerprint per device —
millions of system-level fingerprints queried continuously as
approximate outputs are scraped.  :mod:`repro.core` provides the
*algorithms* (Algorithm 2 identification, Algorithm 3 distance,
Algorithm 4 clustering); this subpackage provides the *serving layer*
that makes them answer at that scale:

* :mod:`repro.service.metrics` — counters and latency histograms so
  every stage of the service is observable;
* :mod:`repro.service.indexed` — :class:`IndexedFingerprintDatabase`,
  a drop-in :class:`~repro.core.identify.FingerprintDatabase` that
  answers Algorithm-2 queries with one packed AND + popcount pass
  over every stored fingerprint instead of a scalar loop;
* :mod:`repro.service.store` — a persistent, sharded, append-only
  fingerprint store layered on :mod:`repro.core.serialize`: journaled
  crash-safe ingest, idempotent recovery, checksummed v2 segments,
  quarantine bookkeeping, lazy per-shard loading;
* :mod:`repro.service.fanout` — the one shard fan-out engine under
  the batch and cluster services: vectorized marking, per-round
  deadlines, hedging, failover, breakers, the first-match merge and
  the degraded-shard ledger, over a local or a pipe transport;
* :mod:`repro.service.batch` — the batch front end: shards of a local
  store fanned out over a thread pool (with retry and backoff,
  degrading instead of failing when shards are unreadable), unmatched
  residuals routed to the online clusterer;
* :mod:`repro.service.supervisor` — worker supervision: crashed
  workers restart in fresh threads with capped exponential backoff and
  escalate to a machine-readable fatal report when the budget runs out;
* :mod:`repro.service.stream` — the supervised streaming pipeline:
  bounded-queue ingest with backpressure and admission control,
  validation quarantine, per-shard circuit breaking, checkpointed
  exactly-once ``--resume`` and graceful SIGTERM drain;
* :mod:`repro.service.placement` / :mod:`repro.service.rpc` /
  :mod:`repro.service.cluster` — the process-parallel tier:
  consistent-hash placement of partitions onto worker *processes*
  with R-way replication, a journaled crash-safe placement store,
  pipe-RPC workers that survive SIGKILL chaos, hedged replica reads,
  health-checked failover and jittered restarts.

Fault injection and offline verify/repair live in
:mod:`repro.reliability`.  The CLI front ends are ``python -m repro
serve-batch`` / ``stream`` / ``quarantine`` / ``verify-store`` /
``repair``.
"""

from repro.service.batch import (
    BatchQuery,
    BatchReport,
    BatchIdentificationService,
    QueryResult,
)
from repro.service.fanout import SCHEMA_VERSION, DegradedShard, merge_degraded
from repro.service.indexed import IndexedFingerprintDatabase
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.store import (
    QuarantinedSegment,
    RecoveryReport,
    SegmentRecord,
    ShardedFingerprintStore,
    StoreError,
)
from repro.service.supervisor import SupervisorEscalation, WorkerSupervisor

# stream imports from batch/store/supervisor; keep it last.
from repro.service.stream import (
    Admission,
    BoundedObservationQueue,
    IdentificationEngine,
    ObservationError,
    QuarantineEntry,
    QuarantineRetryReport,
    StreamCheckpoint,
    StreamError,
    StreamReport,
    StreamSession,
    StreamingIdentificationService,
    install_signal_handlers,
    list_quarantine,
    observation_records,
    retry_quarantine,
    validate_observation,
)

# cluster imports from batch/placement/rpc/store/supervisor; after stream.
from repro.service.cluster import (
    ClusterConfig,
    ClusterService,
    ClusterVerification,
    build_cluster,
    verify_cluster,
)
from repro.service.placement import (
    PlacementError,
    PlacementMap,
    PlacementStore,
    stable_key_hash,
)
from repro.service.rpc import (
    WorkerDied,
    WorkerError,
    WorkerHandle,
    WorkerTimeout,
)

__all__ = [
    "SCHEMA_VERSION",
    "Admission",
    "BatchQuery",
    "BatchReport",
    "BatchIdentificationService",
    "BoundedObservationQueue",
    "ClusterConfig",
    "ClusterService",
    "ClusterVerification",
    "DegradedShard",
    "IdentificationEngine",
    "ObservationError",
    "PlacementError",
    "PlacementMap",
    "PlacementStore",
    "QueryResult",
    "IndexedFingerprintDatabase",
    "LatencyHistogram",
    "QuarantinedSegment",
    "QuarantineEntry",
    "QuarantineRetryReport",
    "RecoveryReport",
    "SegmentRecord",
    "ServiceMetrics",
    "ShardedFingerprintStore",
    "StoreError",
    "StreamCheckpoint",
    "StreamError",
    "StreamReport",
    "StreamSession",
    "StreamingIdentificationService",
    "SupervisorEscalation",
    "WorkerDied",
    "WorkerError",
    "WorkerHandle",
    "WorkerSupervisor",
    "WorkerTimeout",
    "build_cluster",
    "install_signal_handlers",
    "list_quarantine",
    "merge_degraded",
    "observation_records",
    "retry_quarantine",
    "stable_key_hash",
    "verify_cluster",
]
