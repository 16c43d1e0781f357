"""Batch identification service — many Algorithm-2 queries at once.

The serving workload is not one query at a time: the eavesdropping
attacker scrapes outputs by the thousand and the supply-chain attacker
replays whole interception logs.  This service takes a batch of queries
— raw ``(approx, exact)`` pairs or prebuilt error strings — and runs
the full paper loop over them:

1. error strings are marked **vectorized**
   (:func:`~repro.service.fanout.mark_queries`);
2. the shards of a :class:`~repro.service.store.ShardedFingerprintStore`
   are fanned out by the shard fan-out engine
   (:func:`~repro.service.fanout.fan_out`) over the in-process
   :class:`~repro.service.fanout.LocalTransport`: every shard loads and
   scans the whole batch on a thread pool, and per-query answers merge
   by **global sequence number**, reproducing exactly the first-match
   decision a linear scan over one flat database in ingest order would
   make;
3. unmatched residuals are routed, in arrival order, to an
   Algorithm 4 :class:`~repro.core.cluster.OnlineClusterer` — the
   eavesdropper's "open a new suspect" step — and reported with their
   suspect ids.

The shard fan-out **degrades instead of failing**: a shard whose
segments will not load (corruption, transient IO errors) is retried
with exponential backoff, bounded by an optional per-batch deadline,
and on persistent failure the batch still answers from every healthy
shard — results are tagged ``degraded`` and the report names the
unreadable shards with the key ranges they own, so a caller knows
exactly which fingerprints could not have been consulted.  Shards the
manifest already marks as quarantined/salvaged are reported the same
way.

Every stage is timed into the shared
:class:`~repro.service.metrics.ServiceMetrics`; retries, shard
failures, timeouts and degraded queries are counted there too.  When a
tracer is installed (``--obs-dir``, benchmarks) the same stages emit
:mod:`repro.obs.trace` spans; each shard scan runs under a copy of the
submitting context, so its ``batch.shard_scan`` spans nest under the
batch that spawned them.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bits import BitVector
from repro.core.cluster import OnlineClusterer
from repro.core.distance import DEFAULT_THRESHOLD, probable_cause_distance
from repro.core.identify import Identification
from repro.obs.trace import span as obs_span
from repro.reliability.breaker import BreakerBoard
from repro.service.fanout import (
    SCHEMA_VERSION,
    DegradedShard,
    LocalTransport,
    fan_out,
    mark_queries,
)
from repro.service.metrics import ServiceMetrics
from repro.service.store import ShardedFingerprintStore


@dataclass(frozen=True)
class BatchQuery:
    """One identification request.

    Either carries a prebuilt ``error_string`` (the caller already ran
    :func:`~repro.core.errors.mark_errors`, e.g. inside an attack
    pipeline) or an ``(approx, exact)`` pair for the engine to mark
    vectorized.  ``query_id`` is echoed into the result.
    """

    query_id: str
    error_string: Optional[BitVector] = None
    approx: Optional[BitVector] = None
    exact: Optional[BitVector] = None

    def __post_init__(self) -> None:
        has_errors = self.error_string is not None
        has_pair = self.approx is not None and self.exact is not None
        if has_errors == has_pair:
            raise ValueError(
                "provide either error_string or both approx and exact"
            )

    @classmethod
    def from_errors(cls, query_id: str, error_string: BitVector) -> "BatchQuery":
        """Query from an already-extracted error string."""
        return cls(query_id=query_id, error_string=error_string)

    @classmethod
    def from_pair(
        cls, query_id: str, approx: BitVector, exact: BitVector
    ) -> "BatchQuery":
        """Query from an approximate output and its exact value."""
        return cls(query_id=query_id, approx=approx, exact=exact)


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one batch query.

    ``identification`` is the Algorithm 2 decision; when it failed,
    ``suspect_key`` names the online cluster the residual was routed to
    (None when residual routing is disabled) and ``new_suspect`` tells
    whether that cluster was freshly opened by this query.
    ``degraded`` is set when any store shard was unreadable or known
    incomplete while this batch ran — the decision stands, but a miss
    might have matched inside the degraded key ranges.
    """

    query_id: str
    identification: Identification
    suspect_key: Optional[str] = None
    new_suspect: bool = False
    degraded: bool = False

    @property
    def matched(self) -> bool:
        """True when the query matched a stored fingerprint."""
        return self.identification.matched


@dataclass(frozen=True)
class BatchReport:
    """Results plus a metrics snapshot for one batch."""

    results: List[QueryResult]
    stats: Dict[str, object]
    degraded_shards: List[DegradedShard] = field(default_factory=list)

    @property
    def matched_count(self) -> int:
        """Queries attributed to a stored fingerprint."""
        return sum(1 for result in self.results if result.matched)

    @property
    def unmatched_count(self) -> int:
        """Queries that fell through to residual handling."""
        return len(self.results) - self.matched_count

    @property
    def degraded(self) -> bool:
        """True when any shard was unreadable or incomplete."""
        return bool(self.degraded_shards)

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable report (CLI and benchmark output)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "matched": self.matched_count,
            "unmatched": self.unmatched_count,
            "degraded": self.degraded,
            "degraded_shards": [
                entry.to_json() for entry in self.degraded_shards
            ],
            "results": [
                {
                    "query_id": result.query_id,
                    "matched": result.matched,
                    "key": result.identification.key,
                    "distance": result.identification.distance,
                    "suspect_key": result.suspect_key,
                    "new_suspect": result.new_suspect,
                    "degraded": result.degraded,
                }
                for result in self.results
            ],
            "metrics": self.stats,
        }


class BatchIdentificationService:
    """Batch front end over a sharded store.

    Parameters
    ----------
    backend:
        The :class:`~repro.service.store.ShardedFingerprintStore` whose
        shards are fanned out over the worker pool.
    threshold:
        Algorithm 2 match threshold.
    max_workers:
        Worker pool width for the shard fan-out (None lets
        ``concurrent.futures`` pick).
    cluster_residuals:
        When True (default) unmatched queries feed an Algorithm 4
        online clusterer and their results carry suspect ids.
    shard_retries:
        How many times a failing shard load/scan is retried (with
        exponential backoff) before the shard is declared degraded.
    retry_backoff_s:
        Base of the exponential backoff between shard retries.
    shard_timeout_s:
        Wall-clock budget, from submission, for every shard's answer; a
        shard exceeding it is declared degraded (None = wait forever).
    breakers:
        Optional :class:`~repro.reliability.breaker.BreakerBoard` of
        per-shard circuit breakers layered *over* the retry/timeout
        path: a shard whose breaker is open is skipped without being
        loaded (reported degraded with ``attempts=0``), successes and
        failures feed the breaker state machine.  Share one board
        across batches (the streaming pipeline does) so persistent
        shard failure stops burning the retry budget.
    metrics:
        Instrumentation sink; defaults to the store's own.
    """

    def __init__(
        self,
        backend: ShardedFingerprintStore,
        threshold: float = DEFAULT_THRESHOLD,
        max_workers: Optional[int] = None,
        cluster_residuals: bool = True,
        suspect_prefix: str = "suspect",
        shard_retries: int = 2,
        retry_backoff_s: float = 0.05,
        shard_timeout_s: Optional[float] = None,
        breakers: Optional[BreakerBoard] = None,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if shard_retries < 0:
            raise ValueError(f"shard_retries must be >= 0, got {shard_retries}")
        if retry_backoff_s < 0.0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        self._threshold = threshold
        self._max_workers = max_workers
        self._metrics = metrics if metrics is not None else backend.metrics
        self._suspect_prefix = suspect_prefix
        self._shard_timeout_s = shard_timeout_s
        self._breakers = breakers
        self._transport = LocalTransport(
            backend, threshold, shard_retries, retry_backoff_s, self._metrics
        )
        self._clusterer: Optional[OnlineClusterer] = (
            OnlineClusterer(threshold=threshold) if cluster_residuals else None
        )

    @property
    def threshold(self) -> float:
        """Match threshold on the Algorithm 3 distance."""
        return self._threshold

    @property
    def metrics(self) -> ServiceMetrics:
        """Shared instrumentation sink."""
        return self._metrics

    @property
    def clusterer(self) -> Optional[OnlineClusterer]:
        """Residual clusterer (None when residual routing is off)."""
        return self._clusterer

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def run(self, queries: Sequence[BatchQuery]) -> BatchReport:
        """Identify a whole batch; returns results in query order.

        Never raises on shard damage: every healthy shard still
        answers, and the report's ``degraded_shards`` names what could
        not be consulted.
        """
        self._metrics.count("batch.batches")
        self._metrics.count("batch.queries", len(queries))
        with obs_span("batch.run", queries=len(queries)):
            with self._metrics.time("batch.total"):
                with self._metrics.time("batch.mark_errors"), obs_span(
                    "batch.mark_errors"
                ):
                    error_strings = mark_queries(queries)
                with self._metrics.time("batch.identify"), obs_span(
                    "batch.identify"
                ):
                    identifications, degraded = self._identify(error_strings)
                with self._metrics.time("batch.residuals"), obs_span(
                    "batch.residuals"
                ):
                    results = self._route_residuals(
                        queries, error_strings, identifications, bool(degraded)
                    )
        if degraded:
            self._metrics.count("batch.degraded_queries", len(queries))
        return BatchReport(
            results=results,
            stats=self._metrics.stats(),
            degraded_shards=degraded,
        )

    def _identify(
        self, error_strings: Sequence[BitVector]
    ) -> Tuple[List[Identification], List[DegradedShard]]:
        # A pool per batch: a scan wedged past its deadline keeps only
        # its own thread, never one the next batch needs.
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=self._max_workers)
        try:
            return fan_out(
                self._transport,
                self._transport.sources(),
                error_strings,
                pool,
                breakers=self._breakers,
                deadline_s=self._shard_timeout_s,
            )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _route_residuals(
        self,
        queries: Sequence[BatchQuery],
        error_strings: Sequence[BitVector],
        identifications: Sequence[Identification],
        degraded: bool = False,
    ) -> List[QueryResult]:
        results: List[QueryResult] = []
        for query, error_string, identification in zip(
            queries, error_strings, identifications
        ):
            if identification.matched or self._clusterer is None:
                results.append(
                    QueryResult(
                        query_id=query.query_id,
                        identification=identification,
                        degraded=degraded,
                    )
                )
                continue
            self._metrics.count("batch.residuals_clustered")
            before = len(self._clusterer)
            cluster_index = self._clusterer.add(error_string)
            results.append(
                QueryResult(
                    query_id=query.query_id,
                    identification=identification,
                    suspect_key=f"{self._suspect_prefix}-{cluster_index}",
                    new_suspect=len(self._clusterer) > before,
                    degraded=degraded,
                )
            )
        return results


def verify_against_linear(
    service_results: Sequence[QueryResult],
    database_items: Sequence[Tuple[str, "object"]],
    error_strings: Sequence[BitVector],
    threshold: float = DEFAULT_THRESHOLD,
) -> int:
    """Count disagreements between service results and a linear scan.

    Debug/validation helper used by tests and the benchmark: replays
    each query with the plain Algorithm 2 loop over ``database_items``
    (in order) and compares the match/no-match decision and matched
    key.  Returns the number of disagreeing queries (0 means the index
    is exact on this workload).
    """
    disagreements = 0
    for result, error_string in zip(service_results, error_strings):
        expected_key = None
        if error_string.any():
            for key, fingerprint in database_items:
                if probable_cause_distance(error_string, fingerprint) < threshold:
                    expected_key = key
                    break
        actual_key = result.identification.key if result.matched else None
        if expected_key != actual_key:
            disagreements += 1
    return disagreements
