"""Process-parallel clustered identification with replication and failover.

The batch service scans the shards of one store on threads of one
process; a wedged or killed shard scan takes the whole service with
it.  This module moves each shard replica into its own supervised
worker **process** so the failure domain is one worker, not the fleet:

* **placement** — the key space is split into partitions and placed on
  workers by the consistent-hash map in
  :mod:`repro.service.placement`, R replicas per partition (primary
  first);
* **storage** — every ``(worker, partition)`` pair owns an ordinary
  crash-safe :class:`~repro.service.store.ShardedFingerprintStore`
  directory plus a global-sequence sidecar, so a replica is recoverable
  with the exact same journal protocol as any store;
* **read path** — :func:`~repro.service.fanout.fan_out` over the
  :class:`~repro.service.fanout.PipeTransport`: one live replica per
  partition, *hedged* to the next one past ``hedge_delay_s``, merged by
  global sequence so overlap can never duplicate a result;
* **health** — a monitor thread heartbeats every worker against a
  liveness deadline, feeds the per-worker
  :class:`~repro.reliability.breaker.CircuitBreaker`, and restarts
  dead workers with full-jitter capped-exponential backoff
  (:func:`~repro.service.supervisor.full_jitter_backoff`);
* **failover** — a dead worker's partitions are served by their
  surviving replicas immediately (the fan-out simply skips dead or
  tripped workers), and :meth:`ClusterService.rebalance` rebuilds lost
  replicas onto the survivors, committing the new placement through
  the crash-enumerable placement journal.

The driver side (:meth:`ClusterService.run`) implements the streaming
pipeline's engine contract, so ``repro cluster serve`` can put the
existing admission / backpressure / quarantine / checkpoint machinery
of :mod:`repro.service.stream` in front of the cluster unchanged.

Metrics all live under ``cluster.*`` (exported as
``repro_cluster_*``); spans under ``cluster.identify`` /
``cluster.rebalance`` / ``cluster.health``.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distance import DEFAULT_THRESHOLD
from repro.core.fingerprint import Fingerprint
from repro.obs.trace import span as obs_span
from repro.reliability.breaker import BreakerBoard
from repro.reliability.faults import StorageIO
from repro.service.batch import BatchQuery, BatchReport, QueryResult
from repro.service.fanout import PipeTransport, fan_out, mark_queries
from repro.service.metrics import ServiceMetrics
from repro.service.placement import PlacementMap, PlacementStore
from repro.service.rpc import (
    WorkerDied,
    WorkerError,
    WorkerHandle,
    WorkerTimeout,
    encode_query,
    open_replica,
    partition_dir,
    write_sequence_map,
)
from repro.service.store import ShardedFingerprintStore
from repro.service.supervisor import full_jitter_backoff


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one cluster instance (all durations in seconds)."""

    n_partitions: int = 8
    replication: int = 2
    threshold: float = DEFAULT_THRESHOLD
    heartbeat_interval_s: float = 0.2
    liveness_timeout_s: float = 2.0
    request_timeout_s: float = 30.0
    hedge_delay_s: Optional[float] = 0.05
    breaker_failure_threshold: int = 3
    breaker_reset_s: float = 1.0
    max_restarts: int = 3
    restart_backoff_base_s: float = 0.05
    restart_backoff_cap_s: float = 2.0
    jitter_seed: Optional[int] = None


def default_worker_ids(n_workers: int) -> List[str]:
    """Conventional worker ids ``worker-000`` … ``worker-NNN``."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return [f"worker-{index:03d}" for index in range(n_workers)]


def build_cluster(
    root: Path,
    entries: Iterable[Tuple[str, Fingerprint]],
    n_workers: int,
    n_partitions: int = 8,
    replication: int = 2,
    storage_io: Optional[StorageIO] = None,
) -> PlacementMap:
    """Create a cluster directory from enrollment ``entries``.

    Enrollment order defines the global sequence numbers (Algorithm
    2's first-match priority); each replica of a partition ingests the
    partition's fingerprints in that global order and records the
    key → global-sequence sidecar, so every replica answers with
    identical sequences.
    """
    io = storage_io if storage_io is not None else StorageIO()
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    placement = PlacementMap.build(
        default_worker_ids(n_workers),
        n_partitions=n_partitions,
        replication=replication,
    )
    store = PlacementStore(root, io)
    store.initialize(placement)
    per_partition: Dict[int, List[Tuple[int, str, Fingerprint]]] = {}
    for sequence, (key, fingerprint) in enumerate(entries):
        partition = placement.partition_for_key(key)
        per_partition.setdefault(partition, []).append(
            (sequence, key, fingerprint)
        )
    # Every partition is materialized, including ones no key hashed
    # into: a worker must be able to serve (and answer "no match" for)
    # an empty partition instead of failing both replicas at query
    # time on a missing directory.
    for partition in range(n_partitions):
        rows = per_partition.get(partition, [])
        for worker_id in placement.replicas(partition):
            _build_replica(root, worker_id, partition, rows, io)
    return placement


def _build_replica(
    root: Path,
    worker_id: str,
    partition: int,
    rows: Sequence[Tuple[int, str, Fingerprint]],
    io: StorageIO,
) -> None:
    """Materialize one partition replica store plus its sidecar."""
    directory = partition_dir(root, worker_id, partition)
    directory.mkdir(parents=True, exist_ok=True)
    replica = ShardedFingerprintStore(directory, n_shards=1, storage_io=io)
    ordered = sorted(rows)
    replica.ingest((key, fingerprint) for _seq, key, fingerprint in ordered)
    write_sequence_map(
        directory,
        {key: sequence for sequence, key, _fingerprint in ordered},
        storage_io=io,
    )


class ClusterService:
    """Driver for one cluster of worker processes.

    Thread-safe; all mutable coordination state (worker handles,
    restart bookkeeping, the current placement) lives under one lock,
    while worker RPCs and disk IO always happen outside it.
    Implements the streaming engine contract via :meth:`run`.
    """

    def __init__(
        self,
        root: Path,
        config: ClusterConfig = ClusterConfig(),
        metrics: Optional[ServiceMetrics] = None,
        storage_io: Optional[StorageIO] = None,
    ) -> None:
        self._root = Path(root)
        self._config = config
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        self._io = storage_io if storage_io is not None else StorageIO()
        self._placement_store = PlacementStore(self._root, self._io)
        if self._placement_store.journal_pending():
            action = self._placement_store.recover()
            self._metrics.count(f"cluster.placement_recovered_{action}")
        self._placement = self._placement_store.load()
        self._breakers = BreakerBoard(
            failure_threshold=config.breaker_failure_threshold,
            reset_timeout_s=config.breaker_reset_s,
            metrics=self._metrics,
        )
        self._jitter_rng = (
            np.random.default_rng(config.jitter_seed)
            if config.jitter_seed is not None
            else None
        )
        self._lock = threading.Lock()
        self._workers: Dict[str, Optional[WorkerHandle]] = {}
        self._breaker_ids: Dict[str, int] = {}
        self._restarts: Dict[str, int] = {}
        self._restart_due: Dict[str, float] = {}
        self._started = False
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(8, 2 * len(self._placement.workers)),
            thread_name_prefix="cluster-io",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def root(self) -> Path:
        """Cluster root directory."""
        return self._root

    @property
    def placement(self) -> PlacementMap:
        """The committed placement currently driving routing."""
        with self._lock:
            return self._placement

    @property
    def metrics(self) -> ServiceMetrics:
        """Instrumentation sink (``cluster.*`` namespace)."""
        return self._metrics

    @property
    def breakers(self) -> BreakerBoard:
        """Per-worker circuit breakers."""
        return self._breakers

    def worker_handle(self, worker_id: str) -> Optional[WorkerHandle]:
        """The live handle for ``worker_id`` (None when dead)."""
        with self._lock:
            return self._workers.get(worker_id)

    def _breaker_index(self, worker_id: str) -> int:
        with self._lock:
            index = self._breaker_ids.get(worker_id)
            if index is None:
                index = len(self._breaker_ids)
                self._breaker_ids[worker_id] = index
            return index

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn every placed worker and the health monitor thread."""
        with self._lock:
            if self._started:
                return
            self._started = True
            placement = self._placement
        for worker_id in placement.workers:
            self._spawn(worker_id, placement)
        thread = threading.Thread(
            target=self._health_loop, name="cluster-health", daemon=True
        )
        with self._lock:
            self._health_thread = thread
        thread.start()

    def stop(self) -> None:
        """Stop the health monitor and shut every worker down."""
        self._health_stop.set()
        with self._lock:
            thread = self._health_thread
            self._health_thread = None
        if thread is not None:
            thread.join(timeout=10.0)
        with self._lock:
            handles = [h for h in self._workers.values() if h is not None]
            self._workers = {}
            self._started = False
        for handle in handles:
            handle.shutdown()
        self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ClusterService":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    def _spawn(self, worker_id: str, placement: PlacementMap) -> None:
        """Start one worker process for its placed partitions."""
        handle = WorkerHandle(
            worker_id,
            self._root,
            placement.partitions_of(worker_id),
            self._config.threshold,
        )
        with self._lock:
            self._workers[worker_id] = handle
        self._metrics.count("cluster.workers_spawned")

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self._config.heartbeat_interval_s):
            try:
                self.check_health()
            except Exception:  # noqa: BLE001 - the monitor must survive
                self._metrics.count("cluster.health_errors")

    def check_health(self) -> Dict[str, bool]:
        """One heartbeat round; returns worker id → alive.

        Public so tests and the chaos benchmark can drive health
        deterministically without depending on monitor thread timing.
        """
        with self._lock:
            workers = dict(self._workers)
            placement = self._placement
        now = time.monotonic()
        liveness: Dict[str, bool] = {}
        with obs_span("cluster.health", workers=len(workers)):
            for worker_id, handle in workers.items():
                breaker_id = self._breaker_index(worker_id)
                if handle is not None and handle.alive():
                    try:
                        handle.ping(
                            timeout_s=self._config.liveness_timeout_s
                        )
                    except (WorkerDied, WorkerTimeout, WorkerError):
                        self._metrics.count("cluster.heartbeat_failures")
                        self._breakers.record_failure(breaker_id)
                        self._note_death(worker_id, handle)
                    else:
                        self._breakers.record_success(breaker_id)
                        with self._lock:
                            self._restarts[worker_id] = 0
                        liveness[worker_id] = True
                        continue
                else:
                    if handle is not None:
                        self._breakers.record_failure(breaker_id)
                        self._note_death(worker_id, handle)
                liveness[worker_id] = False
                self._maybe_restart(worker_id, placement, now)
        return liveness

    def _note_death(self, worker_id: str, handle: WorkerHandle) -> None:
        """Mark a worker dead exactly once; failover is implicit (the
        fan-out skips dead workers from the next request on)."""
        with self._lock:
            if self._workers.get(worker_id) is not handle:
                return
            self._workers[worker_id] = None
        handle.close()
        self._metrics.count("cluster.worker_deaths")

    def _maybe_restart(
        self, worker_id: str, placement: PlacementMap, now: float
    ) -> None:
        """Restart a dead worker once its jittered backoff elapses."""
        spawn = False
        with self._lock:
            if self._workers.get(worker_id) is not None or not self._started:
                return
            attempts = self._restarts.get(worker_id, 0)
            if attempts >= self._config.max_restarts:
                return
            due = self._restart_due.get(worker_id)
            if due is None:
                delay = full_jitter_backoff(
                    attempts + 1,
                    self._config.restart_backoff_base_s,
                    self._config.restart_backoff_cap_s,
                    rng=self._jitter_rng,
                )
                self._restart_due[worker_id] = now + delay
            elif now >= due:
                self._restarts[worker_id] = attempts + 1
                del self._restart_due[worker_id]
                spawn = True
        if spawn:
            self._spawn(worker_id, placement)
            self._metrics.count("cluster.worker_restarts")

    # ------------------------------------------------------------------
    # Identification (the read path)
    # ------------------------------------------------------------------

    def run(self, queries: Sequence[BatchQuery]) -> BatchReport:
        """Streaming-engine contract: answer one micro-batch."""
        return self.identify(queries)

    def identify(self, queries: Sequence[BatchQuery]) -> BatchReport:
        """Fan a batch across the cluster and merge the replies."""
        self._metrics.count("cluster.requests")
        self._metrics.count("cluster.queries", len(queries))
        with self._metrics.time("cluster.identify"), obs_span(
            "cluster.identify", queries=len(queries)
        ):
            wire = [
                encode_query(query.query_id, error_string)
                for query, error_string in zip(queries, mark_queries(queries))
            ]
            with self._lock:
                placement = self._placement
                handles = dict(self._workers)
            transport = PipeTransport(
                handles,
                self._breaker_index,
                self._note_death,
                self._config.request_timeout_s,
                self._metrics,
            )
            identifications, degraded = fan_out(
                transport,
                {p: placement.replicas(p) for p in range(placement.n_partitions)},
                wire,
                self._pool,
                breakers=self._breakers,
                deadline_s=self._config.request_timeout_s,
                hedge_delay_s=self._config.hedge_delay_s,
            )
        if degraded:
            self._metrics.count("cluster.degraded_partitions", len(degraded))
        results = [
            QueryResult(
                query_id=query.query_id,
                identification=identification,
                degraded=bool(degraded),
            )
            for query, identification in zip(queries, identifications)
        ]
        return BatchReport(
            results=results,
            stats=self._metrics.stats(),
            degraded_shards=degraded,
        )

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------

    def rebalance(
        self,
        remove: Iterable[str] = (),
        add: Iterable[str] = (),
    ) -> PlacementMap:
        """Re-place partitions without ``remove`` / with ``add``.

        Builds any replica directory the new placement requires (by
        copying from a surviving replica of the same partition), then
        commits the new map through the journaled placement store —
        the only step that changes routing, and the step the chaos
        tests crash-enumerate.  Workers whose partition set changed
        are restarted onto the new placement.
        """
        removed = list(remove)
        added = list(add)
        with self._lock:
            placement = self._placement
        with self._metrics.time("cluster.rebalance"), obs_span(
            "cluster.rebalance", remove=removed, add=added
        ):
            new_placement = placement.rebalanced(removed, added)
            moved = self._build_missing_replicas(placement, new_placement)
            self._placement_store.commit(new_placement)
            with self._lock:
                self._placement = new_placement
                started = self._started
            self._metrics.count("cluster.rebalances")
            self._metrics.count("cluster.partitions_moved", moved)
            if started:
                self._restart_replaced_workers(placement, new_placement)
        return new_placement

    def _build_missing_replicas(
        self, old: PlacementMap, new: PlacementMap
    ) -> int:
        """Materialize replica dirs the new placement needs; returns
        how many partition replicas were copied."""
        moved = 0
        for partition in range(new.n_partitions):
            for worker_id in new.replicas(partition):
                destination = partition_dir(self._root, worker_id, partition)
                if (destination / "manifest.json").exists():
                    continue
                source_rows = self._read_partition(partition, old)
                destination.mkdir(parents=True, exist_ok=True)
                _build_replica(
                    self._root, worker_id, partition, source_rows, self._io
                )
                moved += 1
        return moved

    def _read_partition(
        self, partition: int, placement: PlacementMap
    ) -> List[Tuple[int, str, Fingerprint]]:
        """Rows of one partition from any intact surviving replica.

        Reads the replica *directory*, not the worker process — a dead
        worker's disk state is exactly as durable as a live one's.
        """
        last_error: Optional[Exception] = None
        for worker_id in placement.replicas(partition):
            directory = partition_dir(self._root, worker_id, partition)
            if not (directory / "manifest.json").exists():
                continue
            try:
                database, sequences = open_replica(directory, self._io)
                return sorted(
                    (sequences[key], key, fingerprint)
                    for key, fingerprint in database.items()
                )
            except Exception as error:  # noqa: BLE001 - try next replica
                last_error = error
        raise RuntimeError(
            f"partition {partition} has no readable replica: {last_error}"
        )

    def _restart_replaced_workers(
        self, old: PlacementMap, new: PlacementMap
    ) -> None:
        """Restart workers whose assigned partition set changed."""
        old_sets = {
            worker_id: set(old.partitions_of(worker_id))
            for worker_id in old.workers
        }
        for worker_id in new.workers:
            new_set = set(new.partitions_of(worker_id))
            if old_sets.get(worker_id) == new_set:
                continue
            with self._lock:
                handle = self._workers.pop(worker_id, None)
            if handle is not None:
                handle.shutdown()
            self._spawn(worker_id, new)
        for worker_id in old.workers:
            if worker_id in new.workers:
                continue
            with self._lock:
                handle = self._workers.pop(worker_id, None)
            if handle is not None:
                handle.shutdown()

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """JSON-friendly cluster status (placement, workers, breakers)."""
        with self._lock:
            placement = self._placement
            workers = dict(self._workers)
            restarts = dict(self._restarts)
            started = self._started
        worker_status = {}
        for worker_id in placement.workers:
            handle = workers.get(worker_id)
            worker_status[worker_id] = {
                "alive": handle is not None and handle.alive(),
                "pid": handle.pid if handle is not None else None,
                "restarts": restarts.get(worker_id, 0),
                "partitions": placement.partitions_of(worker_id),
            }
        return {
            "schema_version": 1,
            "root": str(self._root),
            "started": started,
            "placement": {
                "version": placement.version,
                "n_partitions": placement.n_partitions,
                "replication": placement.replication,
                "workers": list(placement.workers),
            },
            "journal_pending": self._placement_store.journal_pending(),
            "workers": worker_status,
            "breakers": self._breakers.snapshot(),
            "counters": self._metrics.counters_with_prefix("cluster."),
        }


# ----------------------------------------------------------------------
# Cluster-wide verification (repro verify-store --all-shards)
# ----------------------------------------------------------------------


def _replica_digest(directory: Path) -> Optional[str]:
    """Content digest of one replica: its global-sequence sidecar.

    Replicas of the same partition are byte-identical by construction
    in what matters for identification — the (key, global sequence)
    assignment — so digesting the canonical sidecar detects replica
    divergence without mutating (or even opening) the store.
    """
    path = Path(directory) / "sequence-map.json"
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class ClusterVerification:
    """Aggregated fsck of every replica directory in a cluster."""

    root: str
    placement_version: int
    journal_pending: bool
    replicas: List[Dict[str, object]] = field(default_factory=list)
    divergent_partitions: List[int] = field(default_factory=list)
    missing_replicas: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every replica fscks clean and none diverge."""
        return (
            not self.divergent_partitions
            and not self.missing_replicas
            and not self.journal_pending
            and all(entry["ok"] for entry in self.replicas)
        )

    def to_json(self) -> Dict[str, object]:
        """One JSON report covering every shard replica."""
        return {
            "schema_version": 1,
            "root": self.root,
            "ok": self.ok,
            "placement_version": self.placement_version,
            "journal_pending": self.journal_pending,
            "replicas": self.replicas,
            "divergent_partitions": self.divergent_partitions,
            "missing_replicas": self.missing_replicas,
        }


def verify_cluster(
    root: Path, storage_io: Optional[StorageIO] = None
) -> ClusterVerification:
    """Read-only fsck of every partition replica in a cluster.

    Runs :func:`repro.reliability.repair.verify_store` on each replica
    store directory and compares replica content digests per
    partition, reporting divergence (replicas of one partition that no
    longer agree) in one aggregated JSON report.  Never mutates the
    cluster — safe on a live one.
    """
    from repro.reliability.repair import verify_store

    store = PlacementStore(Path(root), storage_io)
    placement = store.load()
    verification = ClusterVerification(
        root=str(root),
        placement_version=placement.version,
        journal_pending=store.journal_pending(),
    )
    for partition in range(placement.n_partitions):
        digests: Dict[str, Optional[str]] = {}
        for worker_id in placement.replicas(partition):
            directory = partition_dir(Path(root), worker_id, partition)
            if not (directory / "manifest.json").exists():
                verification.missing_replicas.append(
                    {"partition": partition, "worker": worker_id}
                )
                digests[worker_id] = None
                continue
            result = verify_store(directory)
            digest = _replica_digest(directory)
            digests[worker_id] = digest
            verification.replicas.append(
                {
                    "partition": partition,
                    "worker": worker_id,
                    "ok": result.ok,
                    "recoverable": result.recoverable,
                    "problems": result.problems(),
                    "digest": digest,
                }
            )
        present = {d for d in digests.values() if d is not None}
        if len(present) > 1:
            verification.divergent_partitions.append(partition)
    return verification
