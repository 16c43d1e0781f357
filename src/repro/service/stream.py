"""Supervised streaming identification — the §7 eavesdropper online.

The batch engine answers one fully-materialized batch and forgets; the
eavesdropper's reality is a *stream*: outputs arrive one at a time from
unknown devices, some malformed, for hours — and a crash three hours in
must not cost three hours of clustering state.  This module turns the
batch engine into a supervised, long-running pipeline:

* **Bounded ingest** — observations flow through a
  :class:`BoundedObservationQueue` with explicit backpressure (a
  blocking producer can never grow it past its depth) and admission
  control (:meth:`BoundedObservationQueue.offer` rejects with a
  machine-readable reason when full — see :class:`Admission` and the
  push-mode :class:`StreamSession`).
* **Validation + quarantine** — every observation passes
  :func:`validate_observation` first; malformed, truncated or
  out-of-spec records are diverted to an on-disk ``quarantine.jsonl``
  with a stable reason code instead of crashing a worker.  ``repro
  quarantine ls / retry`` triages them later.
* **Supervision** — each identification micro-batch runs under a
  :class:`~repro.service.supervisor.WorkerSupervisor`: a crashed
  worker is restarted in a fresh thread with capped exponential
  backoff, and after the restart budget the pipeline writes a
  machine-readable ``fatal.json`` and stops — with everything up to
  the last completed batch already checkpointed.
* **Circuit breaking** — the shard fan-out runs over the PR 2
  retry/timeout path guarded by a per-shard
  :class:`~repro.reliability.breaker.BreakerBoard`; a persistently
  failing shard trips open and is skipped for pennies instead of
  re-paying the retry budget every batch, so the stream degrades
  instead of stalling.
* **Checkpointed resume** — at batch boundaries the pipeline appends
  its buffered results/quarantine lines (fsynced) and publishes
  ``checkpoint.json`` (processed offset, clusterer state, breaker
  states, counters).  ``run(..., resume=True)`` truncates any
  torn tail past the checkpoint and replays from the recorded offset:
  every observation is processed **exactly once**, and the results
  file of an interrupted-then-resumed run is byte-identical to an
  uninterrupted one.
* **Graceful shutdown** — a SIGTERM/SIGINT (or an explicit
  ``stop_event``) drains the in-flight micro-batch, checkpoints, and
  reports ``interrupted``; the next ``--resume`` picks up exactly
  there.

Determinism is the design invariant behind all of this: batches are
filled to a fixed size in arrival order, residual clustering happens
in arrival order on the pipeline thread, and result lines are
canonical JSON — so identification decisions are a pure function of
the store plus the observation stream, never of queue timing.
"""

from __future__ import annotations

import collections
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.bits import BitVector
from repro.core.cluster import OnlineClusterer
from repro.core.distance import DEFAULT_THRESHOLD
from repro.obs.trace import span as obs_span
from repro.reliability.breaker import BreakerBoard
from repro.reliability.durable import Intent, Journal, json_bytes, publish
from repro.reliability.faults import StorageIO
from repro.service.batch import (
    BatchIdentificationService,
    BatchQuery,
    BatchReport,
)
from repro.service.fanout import SCHEMA_VERSION, DegradedShard, merge_degraded
from repro.service.metrics import ServiceMetrics
from repro.service.store import ShardedFingerprintStore
from repro.service.supervisor import SupervisorEscalation, WorkerSupervisor

try:  # pragma: no cover - Protocol exists on every supported Python
    from typing import Protocol, Sequence
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]
    from typing import Sequence


class IdentificationEngine(Protocol):
    """Anything answering a batch of queries with a report.

    Both implementations run the one shard fan-out engine
    (:func:`~repro.service.fanout.fan_out`):
    :class:`~repro.service.batch.BatchIdentificationService` over the
    shards of a local store, the cluster driver
    (:class:`repro.service.cluster.ClusterService`) over worker
    processes.  The streaming pipeline's admission, supervision and
    checkpointing wrap either transparently.
    """

    def run(self, queries: Sequence[BatchQuery]) -> BatchReport:
        """Answer one micro-batch."""

#: State-directory file names.
CHECKPOINT_NAME = "checkpoint.json"
RESULTS_NAME = "results.jsonl"
QUARANTINE_NAME = "quarantine.jsonl"
FATAL_NAME = "fatal.json"
REPORT_NAME = "report.json"
RETRY_JOURNAL_NAME = "retry-journal.json"

#: Largest observation ``nbits`` the validator admits by default.
DEFAULT_MAX_NBITS = 1 << 26

#: Longest raw-observation prefix preserved in a quarantine entry.  An
#: entry whose original record was longer is marked ``truncated`` and
#: cannot be retried from quarantine alone.
MAX_QUARANTINED_RAW = 65536

#: Stable machine-readable quarantine reason codes.
REASON_BAD_JSON = "bad-json"
REASON_NOT_OBJECT = "not-an-object"
REASON_BAD_NBITS = "bad-nbits"
REASON_NBITS_TOO_LARGE = "nbits-too-large"
REASON_MISSING_PAYLOAD = "missing-payload"
REASON_CONFLICTING_PAYLOAD = "conflicting-payload"
REASON_TRUNCATED_PAIR = "truncated-pair"
REASON_BAD_INDICES = "bad-indices"
REASON_INDEX_RANGE = "index-out-of-range"


class StreamError(ValueError):
    """Raised on stream misconfiguration (bad state dir, bad resume)."""


class ObservationError(ValueError):
    """A single observation failed validation.

    ``reason`` is one of the stable ``REASON_*`` codes (machine
    readable, written to quarantine); ``detail`` is the human half.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


# ----------------------------------------------------------------------
# Validation front end
# ----------------------------------------------------------------------


def _checked_indices(
    record: Dict[str, object], key: str, nbits: int
) -> List[int]:
    raw = record[key]
    if not isinstance(raw, list):
        raise ObservationError(
            REASON_BAD_INDICES, f"{key!r} must be a list of bit indices"
        )
    indices: List[int] = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ObservationError(
                REASON_BAD_INDICES,
                f"{key!r} holds a non-integer index {value!r}",
            )
        if not 0 <= value < nbits:
            raise ObservationError(
                REASON_INDEX_RANGE,
                f"{key!r} index {value} outside [0, {nbits})",
            )
        indices.append(value)
    return indices


def validate_observation(
    record: Union[str, bytes, Dict[str, object]],
    offset: int,
    max_nbits: int = DEFAULT_MAX_NBITS,
) -> BatchQuery:
    """Parse and validate one raw observation into a :class:`BatchQuery`.

    ``record`` is a JSON Lines string (the file/CLI path) or an
    already-decoded dict (the library path).  The wire format matches
    ``serve-batch`` queries: ``id`` (optional, defaults to
    ``obs-<offset>``), ``nbits``, and either ``errors`` (prebuilt error
    string) or ``approx`` + ``exact`` (marked by the engine), all as
    set-bit index lists.  Raises :class:`ObservationError` with a
    stable reason code on anything malformed — the caller quarantines,
    the pipeline never crashes on input.
    """
    if isinstance(record, (str, bytes)):
        try:
            record = json.loads(record)
        except json.JSONDecodeError as error:
            raise ObservationError(REASON_BAD_JSON, str(error)) from error
    if not isinstance(record, dict):
        raise ObservationError(
            REASON_NOT_OBJECT,
            f"observation must be a JSON object, got {type(record).__name__}",
        )
    query_id = str(record.get("id", f"obs-{offset}"))
    nbits = record.get("nbits")
    if isinstance(nbits, bool) or not isinstance(nbits, int) or nbits < 1:
        raise ObservationError(
            REASON_BAD_NBITS, f"'nbits' must be a positive integer, got {nbits!r}"
        )
    if nbits > max_nbits:
        raise ObservationError(
            REASON_NBITS_TOO_LARGE,
            f"'nbits' {nbits} exceeds the configured limit {max_nbits}",
        )
    has_errors = "errors" in record
    has_approx = "approx" in record
    has_exact = "exact" in record
    if has_errors and (has_approx or has_exact):
        raise ObservationError(
            REASON_CONFLICTING_PAYLOAD,
            "provide 'errors' or 'approx'+'exact', not both",
        )
    if has_errors:
        errors = _checked_indices(record, "errors", nbits)
        return BatchQuery.from_errors(
            query_id, BitVector.from_indices(nbits, errors)
        )
    if has_approx != has_exact:
        missing = "exact" if has_approx else "approx"
        raise ObservationError(
            REASON_TRUNCATED_PAIR,
            f"pair observation is missing {missing!r}",
        )
    if not has_approx:
        raise ObservationError(
            REASON_MISSING_PAYLOAD,
            "observation needs 'errors' or 'approx'+'exact'",
        )
    approx = _checked_indices(record, "approx", nbits)
    exact = _checked_indices(record, "exact", nbits)
    return BatchQuery.from_pair(
        query_id,
        BitVector.from_indices(nbits, approx),
        BitVector.from_indices(nbits, exact),
    )


def observation_records(
    source: Union[str, Path, Iterable[Union[str, Dict[str, object]]]],
) -> Iterator[Union[str, Dict[str, object]]]:
    """Yield raw observations from a file, a directory, or an iterable.

    A file is read as JSON Lines (blank lines skipped); a directory
    contributes its ``*.jsonl`` files in sorted name order (so the
    stream order is reproducible); any other iterable is passed
    through as-is — which is how generators and push-mode sessions
    plug in.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.is_dir():
            files = sorted(path.glob("*.jsonl"))
            if not files:
                raise StreamError(f"no *.jsonl observation files in {path}")
        else:
            files = [path]
        for file_path in files:
            with open(file_path, "r", encoding="utf-8") as stream:
                for line in stream:
                    line = line.strip()
                    if line:
                        yield line
    else:
        yield from source


# ----------------------------------------------------------------------
# Bounded queue: backpressure + admission control
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Admission:
    """Outcome of offering an observation to a bounded queue."""

    accepted: bool
    reason: Optional[str] = None


class BoundedObservationQueue:
    """A bounded handoff queue that refuses rather than grows.

    Producers either apply **backpressure** (:meth:`put` blocks while
    full, aborting if the stop event fires) or get an explicit
    **admission decision** (:meth:`offer` returns a rejection with a
    reason once its timeout expires).  Consumers :meth:`get` until the
    queue is closed and drained.  Peak occupancy is tracked so tests
    can prove the bound held.
    """

    def __init__(
        self, depth: int, metrics: Optional[ServiceMetrics] = None
    ) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self._depth = depth
        self._metrics = metrics
        self._items: collections.deque = collections.deque()
        self._condition = threading.Condition()
        self._closed = False
        self._peak = 0

    @property
    def depth(self) -> int:
        """Maximum number of queued observations."""
        return self._depth

    @property
    def peak(self) -> int:
        """Highest occupancy ever observed (must never exceed depth)."""
        with self._condition:
            return self._peak

    def __len__(self) -> int:
        with self._condition:
            return len(self._items)

    def offer(self, item: object, timeout_s: float = 0.0) -> Admission:
        """Try to enqueue; reject with a reason when still full at timeout."""
        deadline = time.monotonic() + timeout_s
        with self._condition:
            while len(self._items) >= self._depth:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    if self._metrics is not None:
                        self._metrics.count("stream.admissions_rejected")
                    return Admission(
                        accepted=False,
                        reason=(
                            f"queue full: {self._depth} observations pending, "
                            "backpressure engaged"
                        ),
                    )
                self._condition.wait(remaining)
            if self._closed:
                return Admission(accepted=False, reason="queue closed")
            self._items.append(item)
            self._peak = max(self._peak, len(self._items))
            self._condition.notify_all()
            return Admission(accepted=True)

    def put(
        self,
        item: object,
        stop: threading.Event,
        poll_s: float = 0.05,
    ) -> bool:
        """Blocking backpressure put; False when ``stop`` fired first."""
        while not stop.is_set():
            if self.offer(item, timeout_s=poll_s).accepted:
                return True
        return False

    def get(
        self, timeout_s: Optional[float] = None
    ) -> Tuple[Optional[object], bool]:
        """Dequeue one item.

        Returns ``(item, eof)``: ``(x, False)`` for an item, ``(None,
        True)`` when the queue is closed and drained, and ``(None,
        False)`` on timeout.
        """
        with self._condition:
            deadline = (
                time.monotonic() + timeout_s if timeout_s is not None else None
            )
            while not self._items:
                if self._closed:
                    return None, True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        return None, False
                self._condition.wait(remaining)
            item = self._items.popleft()
            self._condition.notify_all()
            return item, False

    def close(self) -> None:
        """Mark the producer side finished; wakes blocked consumers."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()


# ----------------------------------------------------------------------
# Durable artifacts: quarantine entries and checkpoints
# ----------------------------------------------------------------------


def _canonical_line(payload: Dict[str, object]) -> bytes:
    """One canonical JSON line — key-sorted, minimal separators.

    Canonical bytes are what makes the exactly-once guarantee
    checkable: an interrupted-and-resumed run must reproduce the
    uninterrupted run's results file *byte for byte*.
    """
    return json_bytes(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class QuarantineEntry:
    """One rejected observation, as stored in ``quarantine.jsonl``."""

    offset: int
    reason: str
    detail: str
    observation: str
    truncated: bool = False

    @classmethod
    def from_rejection(
        cls,
        offset: int,
        error: ObservationError,
        record: Union[str, bytes, Dict[str, object]],
    ) -> "QuarantineEntry":
        """Build an entry from a validator rejection."""
        if isinstance(record, bytes):
            raw = record.decode("utf-8", errors="replace")
        elif isinstance(record, str):
            raw = record
        else:
            raw = json.dumps(record, sort_keys=True, default=str)
        truncated = len(raw) > MAX_QUARANTINED_RAW
        return cls(
            offset=offset,
            reason=error.reason,
            detail=error.detail,
            observation=raw[:MAX_QUARANTINED_RAW],
            truncated=truncated,
        )

    def to_json(self) -> Dict[str, object]:
        """JSON rendering (one quarantine file line)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "offset": self.offset,
            "reason": self.reason,
            "detail": self.detail,
            "observation": self.observation,
            "truncated": self.truncated,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "QuarantineEntry":
        """Inverse of :meth:`to_json`; rejects unknown versions."""
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise StreamError(
                f"unsupported quarantine schema_version {version!r}"
            )
        return cls(
            offset=int(payload["offset"]),
            reason=str(payload["reason"]),
            detail=str(payload["detail"]),
            observation=str(payload["observation"]),
            truncated=bool(payload.get("truncated", False)),
        )

    def line(self) -> bytes:
        """Canonical serialized line."""
        return _canonical_line(self.to_json())


@dataclass
class StreamCheckpoint:
    """Everything ``--resume`` needs to continue exactly once.

    ``offset`` is the index of the next unconsumed observation;
    ``results_bytes`` / ``quarantine_bytes`` are the durable lengths of
    the two append-only files at checkpoint time (resume truncates any
    torn tail back to them); ``clusterer`` is the full Algorithm 4
    state (None when residual clustering is off).
    """

    offset: int
    results_bytes: int
    quarantine_bytes: int
    clusterer: Optional[dict]
    counters: Dict[str, int] = field(default_factory=dict)
    breakers: Dict[str, dict] = field(default_factory=dict)
    completed: bool = False

    def to_json(self) -> Dict[str, object]:
        """JSON payload of ``checkpoint.json``."""
        return {
            "schema_version": SCHEMA_VERSION,
            "offset": self.offset,
            "results_bytes": self.results_bytes,
            "quarantine_bytes": self.quarantine_bytes,
            "clusterer": self.clusterer,
            "counters": dict(self.counters),
            "breakers": dict(self.breakers),
            "completed": self.completed,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "StreamCheckpoint":
        """Inverse of :meth:`to_json`; rejects unknown versions."""
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise StreamError(
                f"unsupported checkpoint schema_version {version!r}"
            )
        return cls(
            offset=int(payload["offset"]),
            results_bytes=int(payload["results_bytes"]),
            quarantine_bytes=int(payload["quarantine_bytes"]),
            clusterer=payload.get("clusterer"),
            counters={
                str(k): int(v)
                for k, v in dict(payload.get("counters", {})).items()
            },
            breakers=dict(payload.get("breakers", {})),
            completed=bool(payload.get("completed", False)),
        )


@dataclass
class StreamReport:
    """Summary of one streaming run (also written to ``report.json``)."""

    status: str  # completed | interrupted | failed
    start_offset: int
    final_offset: int
    observations: int
    matched: int
    unmatched: int
    quarantined: int
    batches: int
    checkpoints: int
    restarts: int
    degraded_shards: List[DegradedShard] = field(default_factory=list)
    breakers: Dict[str, dict] = field(default_factory=dict)
    fatal: Optional[Dict[str, object]] = None
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        """True when the source was fully consumed."""
        return self.status == "completed"

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable report."""
        return {
            "schema_version": SCHEMA_VERSION,
            "status": self.status,
            "start_offset": self.start_offset,
            "final_offset": self.final_offset,
            "observations": self.observations,
            "matched": self.matched,
            "unmatched": self.unmatched,
            "quarantined": self.quarantined,
            "batches": self.batches,
            "checkpoints": self.checkpoints,
            "restarts": self.restarts,
            "degraded_shards": [
                entry.to_json() for entry in self.degraded_shards
            ],
            "breakers": dict(self.breakers),
            "fatal": self.fatal,
            "metrics": self.stats,
        }


def install_signal_handlers(stop: threading.Event) -> Callable[[], None]:
    """Route SIGTERM/SIGINT into ``stop`` for a graceful drain.

    Returns a restore callable that reinstates the previous handlers.
    Only usable from the main thread (a Python signal constraint); the
    CLI calls this, library embedders pass ``stop_event`` directly.
    """
    import signal

    def _handler(signum: int, frame: object) -> None:  # noqa: ARG001
        stop.set()

    previous = {
        signum: signal.signal(signum, _handler)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }

    def restore() -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return restore


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

#: Internal marker distinguishing "no item yet" from end-of-stream.
_EOF = object()


class StreamingIdentificationService:
    """Supervised, checkpointed streaming front end over a sharded store.

    One instance owns a state directory and drives :meth:`run` over an
    observation source.  All the failure machinery — validation
    quarantine, worker supervision, per-shard circuit breaking,
    checkpointed exactly-once resume, graceful drain — lives here;
    identification semantics are delegated unchanged to
    :class:`~repro.service.batch.BatchIdentificationService`.

    Parameters
    ----------
    store:
        The sharded fingerprint store to identify against.
    state_dir:
        Directory owning this stream's durable state (checkpoint,
        results, quarantine, fatal report).  One stream per directory.
    batch_size:
        Valid observations per identification micro-batch (also the
        drain granularity: stop requests take effect at batch
        boundaries).
    queue_depth:
        Bound of the ingest queue (backpressure past this).
    checkpoint_every:
        Checkpoint cadence in consumed observations (a checkpoint is
        also written at drain and at end-of-stream).
    breakers / breaker_failure_threshold / breaker_reset_s:
        Pass a prebuilt :class:`BreakerBoard` to share, None to build
        one from the thresholds, or set ``breaker_failure_threshold=0``
        to disable circuit breaking entirely.
    supervisor / max_restarts:
        Pass a prebuilt :class:`WorkerSupervisor` or let the service
        build one with ``max_restarts``.
    worker_fault_hook:
        Zero-argument callable invoked at the start of every worker
        attempt; the chaos tests install a
        :class:`~repro.reliability.faults.WorkerFaultInjector` here.
    storage_io:
        IO seam for the state directory (fault-injectable separately
        from the store's own seam).
    """

    def __init__(
        self,
        store: Optional[ShardedFingerprintStore],
        state_dir: Union[str, Path],
        threshold: float = DEFAULT_THRESHOLD,
        batch_size: int = 64,
        queue_depth: int = 256,
        checkpoint_every: int = 500,
        max_workers: Optional[int] = None,
        cluster_residuals: bool = True,
        suspect_prefix: str = "suspect",
        shard_retries: int = 2,
        retry_backoff_s: float = 0.05,
        shard_timeout_s: Optional[float] = None,
        breakers: Optional[BreakerBoard] = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_s: float = 5.0,
        supervisor: Optional[WorkerSupervisor] = None,
        max_restarts: int = 3,
        worker_fault_hook: Optional[Callable[[], None]] = None,
        max_nbits: int = DEFAULT_MAX_NBITS,
        storage_io: Optional[StorageIO] = None,
        metrics: Optional[ServiceMetrics] = None,
        engine: Optional["IdentificationEngine"] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if store is None and engine is None:
            raise ValueError("provide a store or an identification engine")
        self._store = store
        self._state_dir = Path(state_dir)
        self._threshold = threshold
        self._batch_size = batch_size
        self._queue_depth = queue_depth
        self._checkpoint_every = checkpoint_every
        self._cluster_residuals = cluster_residuals
        self._suspect_prefix = suspect_prefix
        self._max_nbits = max_nbits
        if metrics is not None:
            self._metrics = metrics
        elif store is not None:
            self._metrics = store.metrics
        else:
            self._metrics = ServiceMetrics()
        self._io = storage_io if storage_io is not None else StorageIO()
        if breakers is None and breaker_failure_threshold > 0:
            breakers = BreakerBoard(
                failure_threshold=breaker_failure_threshold,
                reset_timeout_s=breaker_reset_s,
                metrics=self._metrics,
            )
        self._breakers = breakers
        self._supervisor = (
            supervisor
            if supervisor is not None
            else WorkerSupervisor(
                max_restarts=max_restarts, metrics=self._metrics
            )
        )
        self._worker_fault_hook = worker_fault_hook
        if engine is not None:
            # An injected engine (the cluster driver) answers batches;
            # the stream keeps owning admission, supervision,
            # quarantine and checkpoints around it.
            self._engine: "IdentificationEngine" = engine
        else:
            assert store is not None
            self._engine = BatchIdentificationService(
                store,
                threshold=threshold,
                max_workers=max_workers,
                cluster_residuals=False,
                shard_retries=shard_retries,
                retry_backoff_s=retry_backoff_s,
                shard_timeout_s=shard_timeout_s,
                breakers=breakers,
                metrics=self._metrics,
            )
        # Mutable per-run state, (re)initialized by run().
        self._active_queue: Optional[BoundedObservationQueue] = None
        self._clusterer: Optional[OnlineClusterer] = None
        self._results_bytes = 0
        self._quarantine_bytes = 0
        self._pending_results: List[bytes] = []
        self._pending_quarantine: List[bytes] = []

    # -- properties ----------------------------------------------------

    @property
    def state_dir(self) -> Path:
        """The stream's durable state directory."""
        return self._state_dir

    @property
    def metrics(self) -> ServiceMetrics:
        """Shared instrumentation sink."""
        return self._metrics

    @property
    def breakers(self) -> Optional[BreakerBoard]:
        """Per-shard circuit breakers (None when disabled)."""
        return self._breakers

    @property
    def checkpoint_path(self) -> Path:
        """Location of ``checkpoint.json``."""
        return self._state_dir / CHECKPOINT_NAME

    @property
    def results_path(self) -> Path:
        """Location of the append-only results file."""
        return self._state_dir / RESULTS_NAME

    @property
    def quarantine_path(self) -> Path:
        """Location of the append-only quarantine file."""
        return self._state_dir / QUARANTINE_NAME

    def queue_load(self) -> float:
        """Fill fraction of the live ingest queue (0.0 when idle).

        Background maintenance — the store compactor's backpressure
        check — polls this to defer merges while the stream engine is
        busy; between runs (or before the first) there is no queue and
        the answer is 0.0.
        """
        queue = self._active_queue
        if queue is None:
            return 0.0
        return len(queue) / queue.depth

    # -- checkpoint plumbing -------------------------------------------

    def load_checkpoint(self) -> StreamCheckpoint:
        """Read and validate the state directory's checkpoint."""
        path = self.checkpoint_path
        if not path.exists():
            raise StreamError(f"no checkpoint at {path}; nothing to resume")
        return _read_checkpoint(self._io, path)

    def _publish(self, name: str, payload: Dict[str, object]) -> None:
        """Publish ``checkpoint.json``, ``fatal.json`` or ``report.json``."""
        data = json_bytes(payload, indent=2, sort_keys=True)
        publish(self._io, self._state_dir / name, data)

    def _flush_and_checkpoint(self, offset: int, completed: bool) -> None:
        """Append buffered lines durably, then publish the checkpoint.

        Ordering is the crash-safety contract: the appends are fsynced
        *before* the checkpoint replace, so a crash between them leaves
        a checkpoint that under-counts the files — and resume truncates
        the surplus tail, never the other way around.
        """
        with obs_span("stream.checkpoint", offset=offset):
            self._flush_and_checkpoint_body(offset, completed)

    def _flush_and_checkpoint_body(self, offset: int, completed: bool) -> None:
        if self._pending_results:
            data = b"".join(self._pending_results)
            self._io.append_bytes(self.results_path, data, sync=True)
            self._results_bytes += len(data)
            self._pending_results.clear()
        if self._pending_quarantine:
            data = b"".join(self._pending_quarantine)
            self._io.append_bytes(self.quarantine_path, data, sync=True)
            self._quarantine_bytes += len(data)
            self._pending_quarantine.clear()
        self._publish(
            CHECKPOINT_NAME,
            StreamCheckpoint(
                offset=offset,
                results_bytes=self._results_bytes,
                quarantine_bytes=self._quarantine_bytes,
                clusterer=(
                    self._clusterer.to_state()
                    if self._clusterer is not None
                    else None
                ),
                counters=self._metrics.counters_with_prefix("stream."),
                breakers=(
                    self._breakers.snapshot()
                    if self._breakers is not None
                    else {}
                ),
                completed=completed,
            ).to_json(),
        )
        self._metrics.count("stream.checkpoints")

    def _truncate_to(self, path: Path, size: int) -> None:
        if not path.exists():
            if size:
                raise StreamError(
                    f"checkpoint references {size} bytes of missing {path}"
                )
            self._io.write_bytes(path, b"", sync=True)
            return
        actual = path.stat().st_size
        if actual < size:
            raise StreamError(
                f"{path} holds {actual} bytes but the checkpoint recorded "
                f"{size}: state directory is damaged"
            )
        if actual > size:
            self._io.truncate(path, size)

    # -- ingest side ---------------------------------------------------

    def _reader(
        self,
        iterator: Iterator[Tuple[int, object]],
        queue: BoundedObservationQueue,
        halt: threading.Event,
        failure: List[BaseException],
    ) -> None:
        try:
            for item in iterator:
                if not queue.put(item, halt):
                    return
        except BaseException as error:  # noqa: BLE001 - reported to main loop
            failure.append(error)
        finally:
            queue.close()

    def _fill_batch(
        self,
        queue: BoundedObservationQueue,
        stop: threading.Event,
        start_offset: int,
    ) -> Tuple[List[Tuple[int, BatchQuery]], List[QuarantineEntry], int, bool]:
        """Consume observations until a full batch, EOF, or a stop.

        Returns ``(rows, rejected, n_consumed, eof)``.  Quarantine
        entries are *returned*, not committed — they only reach the
        pending buffers once the batch they interleave with has been
        processed, which is what keeps a mid-batch crash exactly-once.
        """
        rows: List[Tuple[int, BatchQuery]] = []
        rejected: List[QuarantineEntry] = []
        n_consumed = 0
        while len(rows) < self._batch_size:
            if stop.is_set():
                break
            item, eof = queue.get(timeout_s=0.1)
            if eof:
                return rows, rejected, n_consumed, True
            if item is None:
                continue
            offset, record = item
            n_consumed += 1
            self._metrics.count("stream.observations")
            try:
                query = validate_observation(
                    record, offset, max_nbits=self._max_nbits
                )
            except ObservationError as error:
                self._metrics.count("stream.quarantined")
                rejected.append(
                    QuarantineEntry.from_rejection(offset, error, record)
                )
                continue
            self._metrics.count("stream.valid")
            rows.append((offset, query))
        assert start_offset >= 0  # anchors the offset accounting contract
        return rows, rejected, n_consumed, False

    # -- the run loop --------------------------------------------------

    def run(
        self,
        source: Union[str, Path, Iterable[Union[str, Dict[str, object]]]],
        resume: bool = False,
        stop_event: Optional[threading.Event] = None,
        max_batches: Optional[int] = None,
    ) -> StreamReport:
        """Drive the stream to completion, a drain, or an escalation.

        ``resume=True`` continues from the state directory's checkpoint
        (truncating any torn tail past it); without it the state
        directory must be fresh.  ``stop_event`` (and SIGTERM/SIGINT
        when the CLI installed handlers) requests a graceful drain:
        the in-flight micro-batch finishes, a checkpoint is written,
        and the report says ``interrupted``.  ``max_batches`` bounds
        the run for tests and benchmarks — it drains identically.

        Never raises on malformed observations, worker crashes within
        the restart budget, or failing shards; a restart-budget
        escalation returns a ``failed`` report after persisting
        ``fatal.json`` and a final checkpoint.
        """
        self._state_dir.mkdir(parents=True, exist_ok=True)
        stop = stop_event if stop_event is not None else threading.Event()
        start_offset = self._prepare_state(resume)
        restarts_before = self._metrics.counter("supervisor.restarts")
        checkpoints_before = self._metrics.counter("stream.checkpoints")

        iterator = (
            (offset, record)
            for offset, record in enumerate(observation_records(source))
            if offset >= start_offset
        )
        queue = BoundedObservationQueue(self._queue_depth, self._metrics)
        self._active_queue = queue
        halt = threading.Event()
        reader_failure: List[BaseException] = []
        reader = threading.Thread(
            target=self._reader,
            args=(iterator, queue, halt, reader_failure),
            name="stream-reader",
            daemon=True,
        )
        reader.start()

        consumed = start_offset
        since_checkpoint = 0
        matched = unmatched = quarantined = batches = 0
        degraded_accum: List[DegradedShard] = []
        status = "completed"
        fatal: Optional[Dict[str, object]] = None
        try:
            while True:
                rows, rejected, n_consumed, eof = self._fill_batch(
                    queue, stop, start_offset
                )
                try:
                    if rows:
                        report = self._process_batch(rows, batches)
                        batches += 1
                        self._metrics.count("stream.batches")
                        matched += report.matched_count
                        unmatched += report.unmatched_count
                        degraded_accum.extend(report.degraded_shards)
                except SupervisorEscalation as escalation:
                    # The batch never completed: commit nothing from
                    # this window, persist the post-mortem, and stop at
                    # the last good boundary.
                    fatal = escalation.fatal_report()
                    self._publish(FATAL_NAME, fatal)
                    self._flush_and_checkpoint(consumed, completed=False)
                    status = "failed"
                    break
                # Batch done (or empty): its interleaved rejects are now
                # safe to commit alongside its results.
                for entry in rejected:
                    self._pending_quarantine.append(entry.line())
                quarantined += len(rejected)
                consumed += n_consumed
                since_checkpoint += n_consumed
                stopping = stop.is_set() or (
                    max_batches is not None and batches >= max_batches
                )
                if eof or stopping or since_checkpoint >= self._checkpoint_every:
                    self._flush_and_checkpoint(consumed, completed=eof)
                    since_checkpoint = 0
                if eof:
                    break
                if stopping:
                    status = "interrupted"
                    self._metrics.count("stream.drains")
                    break
        finally:
            halt.set()
            queue.close()
            # Unblock a reader stuck on a full queue, then collect it.
            while True:
                item, eof_flag = queue.get(timeout_s=0.0)
                if item is None:
                    break
            reader.join(timeout=5.0)
        if reader_failure and status == "completed":
            # The source itself died mid-stream: everything committed so
            # far is checkpointed; surface the IO error to the caller.
            self._flush_and_checkpoint(consumed, completed=False)
            raise reader_failure[0]

        report = StreamReport(
            status=status,
            start_offset=start_offset,
            final_offset=consumed,
            observations=consumed - start_offset,
            matched=matched,
            unmatched=unmatched,
            quarantined=quarantined,
            batches=batches,
            checkpoints=(
                self._metrics.counter("stream.checkpoints")
                - checkpoints_before
            ),
            restarts=(
                self._metrics.counter("supervisor.restarts") - restarts_before
            ),
            degraded_shards=merge_degraded(degraded_accum),
            breakers=(
                self._breakers.snapshot() if self._breakers is not None else {}
            ),
            fatal=fatal,
            stats=self._metrics.stats(),
        )
        self._publish(REPORT_NAME, report.to_json())
        return report

    def _prepare_state(self, resume: bool) -> int:
        _recover_retry(self._state_dir, self._io)
        if resume:
            checkpoint = self.load_checkpoint()
            self._truncate_to(self.results_path, checkpoint.results_bytes)
            self._truncate_to(self.quarantine_path, checkpoint.quarantine_bytes)
            self._results_bytes = checkpoint.results_bytes
            self._quarantine_bytes = checkpoint.quarantine_bytes
            if self._cluster_residuals:
                self._clusterer = (
                    OnlineClusterer.from_state(checkpoint.clusterer)
                    if checkpoint.clusterer is not None
                    else OnlineClusterer(threshold=self._threshold)
                )
            self._metrics.count("stream.resumes")
            return checkpoint.offset
        if self.checkpoint_path.exists():
            raise StreamError(
                f"{self._state_dir} already holds a checkpoint; pass "
                "resume=True to continue it or use a fresh state directory"
            )
        self._io.write_bytes(self.results_path, b"", sync=True)
        self._io.write_bytes(self.quarantine_path, b"", sync=True)
        self._results_bytes = 0
        self._quarantine_bytes = 0
        self._clusterer = (
            OnlineClusterer(threshold=self._threshold)
            if self._cluster_residuals
            else None
        )
        self._pending_results.clear()
        self._pending_quarantine.clear()
        return 0

    def _process_batch(
        self, rows: List[Tuple[int, BatchQuery]], batch_index: int
    ):
        """One supervised identification micro-batch plus residual routing."""
        queries = [query for _offset, query in rows]

        def task():
            if self._worker_fault_hook is not None:
                self._worker_fault_hook()
            return self._engine.run(queries)

        with self._metrics.time("stream.batch"), obs_span(
            "stream.batch", batch=batch_index, queries=len(queries)
        ):
            report = self._supervisor.run(
                task, label=f"identify-batch-{batch_index}"
            )
        degraded = bool(report.degraded_shards)
        for (offset, query), result in zip(rows, report.results):
            suspect_key: Optional[str] = None
            new_suspect = False
            if not result.matched and self._clusterer is not None:
                error_string = query.error_string
                if error_string is None:
                    error_string = query.approx ^ query.exact
                before = len(self._clusterer)
                cluster_index = self._clusterer.add(error_string)
                suspect_key = f"{self._suspect_prefix}-{cluster_index}"
                new_suspect = len(self._clusterer) > before
                self._metrics.count("stream.residuals_clustered")
            self._pending_results.append(
                _canonical_line(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "offset": offset,
                        "id": result.query_id,
                        "matched": result.matched,
                        "key": result.identification.key,
                        "distance": result.identification.distance,
                        "suspect_key": suspect_key,
                        "new_suspect": new_suspect,
                        "degraded": degraded,
                    }
                )
            )
            self._metrics.count("stream.results")
        return report


# ----------------------------------------------------------------------
# Push mode
# ----------------------------------------------------------------------


class StreamSession:
    """Push-mode front end: submit observations, get admission decisions.

    Wraps a :class:`StreamingIdentificationService` run whose source is
    an internal bounded queue.  :meth:`submit` applies admission
    control — when the pipeline cannot keep up and the queue is full,
    the observation is **rejected with a reason** instead of buffered
    without bound; the producer decides whether to retry, shed, or
    slow down.  :meth:`close` drains the pipeline and returns the
    final report.
    """

    def __init__(
        self,
        service: StreamingIdentificationService,
        resume: bool = False,
        admission_timeout_s: float = 0.0,
    ) -> None:
        self._service = service
        self._admission_timeout_s = admission_timeout_s
        self._queue = BoundedObservationQueue(
            service._queue_depth, service.metrics
        )
        self._report: List[StreamReport] = []
        self._error: List[BaseException] = []

        def _drain_queue() -> Iterator[object]:
            while True:
                item, eof = self._queue.get(timeout_s=None)
                if eof:
                    return
                yield item

        def _run() -> None:
            try:
                self._report.append(
                    self._service.run(_drain_queue(), resume=resume)
                )
            except BaseException as error:  # noqa: BLE001 - rethrown in close
                self._error.append(error)

        self._thread = threading.Thread(
            target=_run, name="stream-session", daemon=True
        )
        self._thread.start()

    def submit(
        self, record: Union[str, Dict[str, object]]
    ) -> Admission:
        """Offer one observation; rejected with a reason when full."""
        if self._error:
            raise self._error[0]
        return self._queue.offer(record, timeout_s=self._admission_timeout_s)

    def close(self) -> StreamReport:
        """Finish the stream: drain, checkpoint, and return the report."""
        self._queue.close()
        self._thread.join()
        if self._error:
            raise self._error[0]
        return self._report[0]


# ----------------------------------------------------------------------
# Quarantine triage
# ----------------------------------------------------------------------


def list_quarantine(
    state_dir: Union[str, Path],
    storage_io: Optional[StorageIO] = None,
) -> List[QuarantineEntry]:
    """Parse every entry of a state directory's quarantine file.

    A quarantine retry a crash interrupted is resolved first.
    """
    io_seam = storage_io if storage_io is not None else StorageIO()
    _recover_retry(Path(state_dir), io_seam)
    return _quarantine_entries(io_seam, Path(state_dir) / QUARANTINE_NAME)


def _quarantine_entries(
    io: StorageIO, path: Path, size: Optional[int] = None
) -> List[QuarantineEntry]:
    """The entries of a quarantine file, or of its first ``size`` bytes."""
    if not path.exists():
        return []
    data = io.read_bytes(path)[:size]
    entries: List[QuarantineEntry] = []
    for line in data.decode("utf-8").splitlines():
        line = line.strip()
        if line:
            entries.append(QuarantineEntry.from_json(json.loads(line)))
    return entries


@dataclass
class QuarantineRetryReport:
    """Outcome of a ``repro quarantine retry`` pass."""

    retried: int
    still_quarantined: int
    matched: int
    unmatched: int

    def to_json(self) -> Dict[str, object]:
        """JSON rendering for the CLI."""
        return {
            "schema_version": SCHEMA_VERSION,
            "retried": self.retried,
            "still_quarantined": self.still_quarantined,
            "matched": self.matched,
            "unmatched": self.unmatched,
        }


def retry_quarantine(
    store: ShardedFingerprintStore,
    state_dir: Union[str, Path],
    threshold: float = DEFAULT_THRESHOLD,
    max_nbits: int = DEFAULT_MAX_NBITS,
    storage_io: Optional[StorageIO] = None,
    metrics: Optional[ServiceMetrics] = None,
) -> QuarantineRetryReport:
    """Re-validate quarantined observations and identify the now-valid.

    Quarantine is triage, not a grave: an operator fixes an upstream
    producer (or relaxes ``max_nbits``) and replays.  Entries that now
    validate are identified against the store and appended to the
    stream's results file under their original offsets; the rest stay
    quarantined (entries whose raw record was stored truncated can
    never revalidate and always stay).  The results append, the
    quarantine rewrite and the checkpoint's byte accounts (updated so a
    later ``--resume`` does not truncate the retried work away) commit
    as one :class:`~repro.reliability.durable.Journal` intent, so a
    crash anywhere leaves the retry wholly undone or wholly done.

    With a checkpoint, only what it accounts for is retried and kept:
    the tails a crashed (undrained) run appended past it belong to the
    next ``--resume``, which processes those offsets again.
    """
    state = Path(state_dir)
    io_seam = storage_io if storage_io is not None else StorageIO()
    _recover_retry(state, io_seam)
    checkpoint = None
    if (state / CHECKPOINT_NAME).exists():
        checkpoint = _read_checkpoint(io_seam, state / CHECKPOINT_NAME)
    entries = _quarantine_entries(
        io_seam,
        state / QUARANTINE_NAME,
        None if checkpoint is None else checkpoint.quarantine_bytes,
    )
    retriable: List[Tuple[QuarantineEntry, BatchQuery]] = []
    remaining: List[QuarantineEntry] = []
    for entry in entries:
        if entry.truncated:
            remaining.append(entry)
            continue
        try:
            query = validate_observation(
                entry.observation, entry.offset, max_nbits=max_nbits
            )
        except ObservationError:
            remaining.append(entry)
            continue
        retriable.append((entry, query))

    matched = unmatched = 0
    if retriable:
        engine = BatchIdentificationService(
            store,
            threshold=threshold,
            cluster_residuals=False,
            metrics=metrics if metrics is not None else store.metrics,
        )
        report = engine.run([query for _entry, query in retriable])
        degraded = bool(report.degraded_shards)
        lines: List[bytes] = []
        for (entry, _query), result in zip(retriable, report.results):
            if result.matched:
                matched += 1
            else:
                unmatched += 1
            lines.append(
                _canonical_line(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "offset": entry.offset,
                        "id": result.query_id,
                        "matched": result.matched,
                        "key": result.identification.key,
                        "distance": result.identification.distance,
                        "suspect_key": None,
                        "new_suspect": False,
                        "degraded": degraded,
                        "retried": True,
                    }
                )
            )
        results = b"".join(lines)
        base = (
            _size(state / RESULTS_NAME)
            if checkpoint is None
            else checkpoint.results_bytes
        )
        remaining_data = b"".join(entry.line() for entry in remaining)
        if checkpoint is not None:
            checkpoint.results_bytes = base + len(results)
            checkpoint.quarantine_bytes = len(remaining_data)
        intent: Intent = {
            "version": 1,
            "results_bytes": base,
            "results": results.decode("utf-8"),
            "quarantine": remaining_data.decode("utf-8"),
            "checkpoint": checkpoint.to_json() if checkpoint else None,
        }
        journal = Journal(io_seam, state / RETRY_JOURNAL_NAME)
        journal.begin(_canonical_line(intent))
        _apply_retry(state, io_seam, intent)
        journal.retire()

    return QuarantineRetryReport(
        retried=len(retriable),
        still_quarantined=len(remaining),
        matched=matched,
        unmatched=unmatched,
    )


def _size(path: Path) -> int:
    """Length of ``path`` in bytes (0 when absent)."""
    return path.stat().st_size if path.exists() else 0


def _read_checkpoint(io: StorageIO, path: Path) -> StreamCheckpoint:
    """Read and validate one ``checkpoint.json``."""
    try:
        payload = json.loads(io.read_bytes(path).decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StreamError(f"unreadable checkpoint at {path}: {error}") from error
    return StreamCheckpoint.from_json(payload)


def _apply_retry(state: Path, io: StorageIO, intent: Intent) -> None:
    """The effects of a retry intent; idempotent, so recovery replays it.

    A partial append from an interrupted attempt is cut back to the
    intent's base length before the retried lines land again.
    """
    results_path = state / RESULTS_NAME
    base = int(intent["results_bytes"])
    if _size(results_path) > base:
        io.truncate(results_path, base)
    io.append_bytes(results_path, intent["results"].encode("utf-8"), sync=True)
    publish(io, state / QUARANTINE_NAME, intent["quarantine"].encode("utf-8"))
    if intent["checkpoint"] is not None:
        checkpoint = json_bytes(intent["checkpoint"], indent=2, sort_keys=True)
        publish(io, state / CHECKPOINT_NAME, checkpoint)


def _recover_retry(state: Path, io: StorageIO) -> None:
    """Finish a quarantine retry a crash interrupted (while the results
    file still holds the prefix its lines append to)."""

    def verify(intent: Intent) -> bool:
        return _size(state / RESULTS_NAME) >= int(intent["results_bytes"])

    Journal(io, state / RETRY_JOURNAL_NAME).recover(
        verify, lambda intent: _apply_retry(state, io, intent)
    )
