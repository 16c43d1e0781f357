"""The shard fan-out engine: the one read path under both services.

Algorithm 2 answers with the *first-enrolled* fingerprint under the
threshold.  The batch service (shards of one store, on threads) and the
cluster service (partition replicas in worker processes) keep that
decision across any split of the key space with the same loop:
:func:`mark_queries` marks the batch, :func:`fan_out` sends it to one
live, breaker-admitted replica per partition (hedging slow first-round
requests, failing over until every replica of an unanswered partition
had one try), merges the answers by global sequence
(:func:`merge_first_match`) and returns a :class:`DegradedShard` ledger
entry for every partition no replica answered.  A :class:`Transport`
reaches the replicas: :class:`LocalTransport` (a store's shards,
retried in place) or :class:`PipeTransport` (cluster workers, failed
over).  Both, and the worker process, scan with :func:`scan_replica`.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.bits import BitVector
from repro.core.errors import mark_errors_batch
from repro.core.identify import Identification
from repro.obs.trace import span as obs_span
from repro.reliability.breaker import BreakerBoard
from repro.service.metrics import ServiceMetrics
from repro.service.store import ShardedFingerprintStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.batch import BatchQuery
    from repro.service.indexed import IndexedFingerprintDatabase
    from repro.service.rpc import WorkerHandle

#: Version stamped into every serialized report and checkpoint payload
#: (``BatchReport.to_json``, :meth:`DegradedShard.to_json`, the
#: streaming results/checkpoint files).  Bump on breaking layout
#: changes; readers reject versions they do not understand instead of
#: misparsing them.
SCHEMA_VERSION = 1

#: One replica's answer to one query: ``(global sequence, match)``.
Answer = Optional[Tuple[int, Identification]]


@dataclass(frozen=True)
class DegradedShard:
    """One shard the batch could not (fully) consult.

    ``key_range`` is the ``(low_exclusive, high_inclusive)`` slice of
    key space the shard owns (``None`` = open end): any stored
    fingerprint whose key falls in it may have been skipped, so a
    no-match answer for such a key is advisory, not authoritative.
    ``attempts`` counts how many times the shard was actually tried
    (0 when a circuit breaker skipped it without touching disk); a
    shard failing repeatedly across retries or stream micro-batches is
    reported once with its attempts summed, not once per failure.
    """

    shard: int
    key_range: Tuple[Optional[str], Optional[str]]
    reason: str
    attempts: int = 1

    def to_json(self) -> Dict[str, object]:
        """JSON rendering for reports and checkpoints."""
        return {
            "schema_version": SCHEMA_VERSION,
            "shard": self.shard,
            "key_range": list(self.key_range),
            "reason": self.reason,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "DegradedShard":
        """Inverse of :meth:`to_json`; rejects unknown schema versions."""
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported DegradedShard schema_version {version!r}"
            )
        low, high = payload["key_range"]  # type: ignore[misc]
        return cls(
            shard=int(payload["shard"]),  # type: ignore[call-overload]
            key_range=(
                None if low is None else str(low),
                None if high is None else str(high),
            ),
            reason=str(payload["reason"]),
            attempts=int(payload.get("attempts", 1)),  # type: ignore[call-overload]
        )

    def merged_with(self, other: "DegradedShard") -> "DegradedShard":
        """Combine two entries for the same shard into one.

        Attempts add up; a repeated reason is kept once, distinct
        reasons are joined so no information is dropped.
        """
        if other.shard != self.shard:
            raise ValueError(
                f"cannot merge shard {other.shard} into shard {self.shard}"
            )
        if other.reason == self.reason:
            reason = self.reason
        else:
            reason = f"{self.reason}; {other.reason}"
        return DegradedShard(
            shard=self.shard,
            key_range=self.key_range,
            reason=reason,
            attempts=self.attempts + other.attempts,
        )


def merge_degraded(entries: Sequence[DegradedShard]) -> List[DegradedShard]:
    """Deduplicate degraded-shard entries by shard id.

    Used wherever degradation accumulates across attempts — within one
    batch (a shard both quarantined and timing out) and across stream
    micro-batches (the same shard failing every batch): one entry per
    shard, attempts summed, ordered by shard id.
    """
    merged: Dict[int, DegradedShard] = {}
    for entry in entries:
        existing = merged.get(entry.shard)
        merged[entry.shard] = (
            entry if existing is None else existing.merged_with(entry)
        )
    return [merged[shard] for shard in sorted(merged)]


def merge_first_match(
    per_source: Sequence[Sequence[Answer]], n_queries: int
) -> List[Answer]:
    """Per query, the answer with the smallest global sequence (None
    when no source matched).

    That is Algorithm 2's first-enrolled-wins priority, preserved across
    any partitioning of the key space.  Sources may overlap (replica
    fan-out, hedged requests): duplicates carry the same sequence, so
    the merge is idempotent by construction.
    """
    merged: List[Answer] = []
    for position in range(n_queries):
        best: Answer = None
        for answers in per_source:
            answer = answers[position]
            if answer is not None and (best is None or answer[0] < best[0]):
                best = answer
        merged.append(best)
    return merged


def mark_queries(queries: Sequence["BatchQuery"]) -> List[BitVector]:
    """Error string of every query, in order.

    Prebuilt error strings pass through; every ``(approx, exact)`` pair
    is marked in one vectorized pass.
    """
    marked: List[Optional[BitVector]] = [query.error_string for query in queries]
    pairs = [position for position, errors in enumerate(marked) if errors is None]
    if pairs:
        strings = mark_errors_batch(
            [queries[position].approx for position in pairs],
            [queries[position].exact for position in pairs],
        )
        for position, errors in zip(pairs, strings):
            marked[position] = errors
    return marked  # type: ignore[return-value]  # every slot filled


def scan_replica(
    database: "IndexedFingerprintDatabase",
    sequences: Mapping[str, int],
    error_strings: Sequence[BitVector],
    threshold: float,
) -> List[Answer]:
    """Earliest in-replica match per query, tagged with its global
    sequence (``sequences`` maps key → global enrollment sequence); the
    whole batch is scored in one :meth:`identify_error_strings` call."""
    return [
        (sequences[identification.key], identification)  # type: ignore[index]
        if identification.matched
        else None
        for identification in database.identify_error_strings(error_strings, threshold)
    ]


class Failure(NamedTuple):
    """A replica that did not answer: ``kind`` is ``"skip"`` (breaker
    open, never asked), ``"timeout"`` or ``"failure"`` (raised ``error``)."""

    replica: Hashable
    kind: str
    error: Optional[BaseException] = None


class Transport(Protocol):
    """How :func:`fan_out` reaches the replicas of a partition.

    Counters go to ``metrics`` as ``<prefix>.<name>``; ``counters``
    names the one bumped per :class:`Failure` kind.
    """

    prefix: str
    metrics: ServiceMetrics
    counters: Mapping[str, str]

    def live(self, replica: Hashable) -> bool:
        """Whether ``replica`` can be asked at all."""

    def breaker_key(self, replica: Hashable) -> int:
        """The breaker-board key of ``replica``."""

    def request(
        self, replica: Hashable, partitions: Sequence[int], queries: Sequence[object]
    ) -> List[Answer]:
        """Best answer per query over ``partitions`` of ``replica``."""

    def degraded(
        self, unanswered: Mapping[int, Sequence[Failure]]
    ) -> List[DegradedShard]:
        """The ledger, given each unanswered partition's failures."""


class _Request(NamedTuple):
    replica: Hashable
    partitions: List[int]
    hedged: bool
    future: "concurrent.futures.Future[List[Answer]]"


def fan_out(
    transport: Transport,
    sources: Mapping[int, Sequence[Hashable]],
    queries: Sequence[object],
    pool: concurrent.futures.Executor,
    breakers: Optional[BreakerBoard] = None,
    deadline_s: Optional[float] = None,
    hedge_delay_s: Optional[float] = None,
) -> Tuple[List[Identification], List[DegradedShard]]:
    """Answer ``queries`` from every partition in ``sources``.

    ``sources`` maps partition → its replicas, preferred first.  Each
    round sends every unanswered partition to its next live replica
    whose breaker admits it (one request per replica) and waits for the
    round until one deadline, ``deadline_s`` from its start (None =
    forever).  Round 0 duplicates requests still outstanding after
    ``hedge_delay_s`` to the next replicas.  Rounds repeat until every
    partition answered or each replica of the rest was considered once.
    Returns the decision per query and the degraded ledger.
    """
    metrics, prefix = transport.metrics, transport.prefix
    untried = {partition: iter(replicas) for partition, replicas in sources.items()}
    failures: Dict[int, List[Failure]] = {partition: [] for partition in sources}
    pending: Set[int] = set(sources)
    per_source: List[List[Answer]] = []

    def fail(partitions: Sequence[int], failure: Failure) -> None:
        metrics.count(f"{prefix}.{transport.counters[failure.kind]}")
        if failure.kind != "skip" and breakers is not None:
            breakers.record_failure(transport.breaker_key(failure.replica))
        for partition in partitions:
            failures[partition].append(failure)

    def next_replica(partition: int) -> Optional[Hashable]:
        for replica in untried[partition]:
            if not transport.live(replica):
                continue
            if breakers is None or breakers.allow(transport.breaker_key(replica)):
                return replica
            fail([partition], Failure(replica, "skip"))
        return None

    def send(partitions: Set[int], hedged: bool) -> List[_Request]:
        groups: Dict[Hashable, List[int]] = {}
        for partition in sorted(partitions):
            replica = next_replica(partition)
            if replica is not None:
                groups.setdefault(replica, []).append(partition)
        requests: List[_Request] = []
        for replica, group in groups.items():
            # Under a copy of this context, so the request's spans
            # parent onto the caller's span.
            run = contextvars.copy_context().run
            future = pool.submit(run, transport.request, replica, group, queries)
            requests.append(_Request(replica, group, hedged, future))
        return requests

    round_index = 0
    while pending:
        requests = send(pending, hedged=False)
        if not requests:
            break
        if round_index > 0:
            metrics.count(f"{prefix}.failover_rounds")
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        if round_index == 0 and hedge_delay_s is not None:
            _done, slow = concurrent.futures.wait(
                [request.future for request in requests], timeout=hedge_delay_s
            )
            hedges = send(
                {p for r in requests if r.future in slow for p in r.partitions},
                hedged=True,
            )
            if hedges:
                metrics.count(f"{prefix}.hedges", len(hedges))
            requests.extend(hedges)
        done, _late = concurrent.futures.wait(
            [request.future for request in requests],
            timeout=None if deadline is None else max(0.0, deadline - time.monotonic()),
        )
        for request in requests:
            if request.future not in done:
                timeout = TimeoutError(f"timed out after {deadline_s}s")
                fail(request.partitions, Failure(request.replica, "timeout", timeout))
            elif request.future.exception() is not None:
                error = request.future.exception()
                fail(request.partitions, Failure(request.replica, "failure", error))
            else:
                if breakers is not None:
                    breakers.record_success(transport.breaker_key(request.replica))
                per_source.append(request.future.result())
                if request.hedged and pending.intersection(request.partitions):
                    metrics.count(f"{prefix}.hedge_wins")
                pending.difference_update(request.partitions)
        round_index += 1

    decisions = [
        Identification.failed() if answer is None else answer[1]
        for answer in merge_first_match(per_source, len(queries))
    ]
    ledger = transport.degraded({p: failures[p] for p in sorted(pending)})
    return decisions, merge_degraded(ledger)


class LocalTransport:
    """The shards of one store, scanned on threads of this process.

    A replica is a shard number (also its breaker key), one per shard.
    A failing load or scan is evicted and retried in place with
    exponential backoff before the request fails.
    """

    prefix = "batch"
    counters: Mapping[str, str] = {
        "skip": "shard_short_circuits",
        "timeout": "shard_timeouts",
        "failure": "shard_failures",
    }

    def __init__(
        self,
        store: ShardedFingerprintStore,
        threshold: float,
        retries: int,
        backoff_s: float,
        metrics: ServiceMetrics,
    ) -> None:
        self._store = store
        self.metrics = metrics
        self._threshold = threshold
        self._retries = retries
        self._backoff_s = backoff_s

    def sources(self) -> Dict[int, List[int]]:
        """Every shard holding a segment, as its own only replica."""
        shards = sorted({record.shard for record in self._store.segments})
        return {shard: [shard] for shard in shards}

    def live(self, replica: Hashable) -> bool:
        """A shard on local disk is always worth a try."""
        return True

    def breaker_key(self, replica: Hashable) -> int:
        """Breakers are keyed by shard number."""
        return int(replica)  # type: ignore[call-overload]

    def request(
        self, replica: Hashable, partitions: Sequence[int], queries: Sequence[object]
    ) -> List[Answer]:
        """Load the shard and scan the batch; transient IO errors heal
        across retries, persistent damage exhausts them and propagates."""
        shard = self.breaker_key(replica)
        attempts = self._retries + 1
        for attempt in range(attempts):
            try:
                with obs_span("batch.shard_scan", shard=shard, attempt=attempt):
                    loaded = self._store.load_shard(shard)
                    return scan_replica(
                        loaded.database, loaded.sequences, queries, self._threshold  # type: ignore[arg-type]
                    )
            except Exception:
                # Drop any half-built replica so the retry reloads.
                self._store.evict(shard)
                if attempt + 1 == attempts:
                    raise
                self.metrics.count("batch.shard_retries")
                if self._backoff_s:
                    time.sleep(self._backoff_s * (2 ** attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def degraded(
        self, unanswered: Mapping[int, Sequence[Failure]]
    ) -> List[DegradedShard]:
        """Shards the manifest marks quarantined (they serve what
        survived, but advisorily), then one entry per failure."""
        ledger = [
            (shard, "quarantined segments: stored fingerprints lost", 1)
            for shard in self._store.degraded_shards()
        ]
        for shard, failures in unanswered.items():
            for failure in failures:
                if failure.kind == "skip":
                    ledger.append((shard, "circuit breaker open: shard skipped", 0))
                elif failure.kind == "timeout":
                    ledger.append((shard, str(failure.error), 1))
                else:
                    reason = f"unreadable after retries: {failure.error}"
                    ledger.append((shard, reason, self._retries + 1))
        return [
            DegradedShard(shard, self._store.shard_key_range(shard), reason, attempts)
            for shard, reason, attempts in ledger
        ]


class PipeTransport:
    """Cluster worker processes, reached over their pipes.

    A replica is a worker id, live while its handle's process runs;
    queries travel wire-encoded (:func:`~repro.service.rpc.encode_query`).
    A failed request is not retried (the engine fails over to the next
    replica), and a worker found dead is reported through ``on_death``.
    """

    prefix = "cluster"
    counters: Mapping[str, str] = {
        "skip": "breaker_skips",
        "timeout": "request_failures",
        "failure": "request_failures",
    }

    def __init__(
        self,
        handles: Mapping[str, Optional["WorkerHandle"]],
        breaker_key: Callable[[str], int],
        on_death: Callable[[str, "WorkerHandle"], None],
        timeout_s: float,
        metrics: ServiceMetrics,
    ) -> None:
        self.metrics = metrics
        self._handles = handles
        self._breaker_key = breaker_key
        self._on_death = on_death
        self._timeout_s = timeout_s

    def live(self, replica: Hashable) -> bool:
        """The worker's process is running."""
        handle = self._handles.get(str(replica))
        return handle is not None and handle.alive()

    def breaker_key(self, replica: Hashable) -> int:
        """The cluster's per-worker breaker index."""
        return self._breaker_key(str(replica))

    def request(
        self, replica: Hashable, partitions: Sequence[int], queries: Sequence[object]
    ) -> List[Answer]:
        """One identify RPC, decoded into ``(sequence, match)`` pairs."""
        worker_id = str(replica)
        handle = self._handles[worker_id]
        assert handle is not None
        try:
            answers = handle.identify(queries, partitions, timeout_s=self._timeout_s)  # type: ignore[arg-type]
        except Exception:
            if not handle.alive():
                self._on_death(worker_id, handle)
            raise
        return [
            None
            if answer is None
            else (answer[0], Identification(True, key=answer[1], distance=answer[2]))
            for answer in answers
        ]

    def degraded(
        self, unanswered: Mapping[int, Sequence[Failure]]
    ) -> List[DegradedShard]:
        """One entry per partition, naming the replicas requested."""
        ledger: List[DegradedShard] = []
        for partition, failures in unanswered.items():
            tried = sorted(str(f.replica) for f in failures if f.kind != "skip")
            reason = f"no live replica: tried {tried or 'none'}"
            ledger.append(DegradedShard(partition, (None, None), reason, len(tried)))
        return ledger
