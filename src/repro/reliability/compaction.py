"""LSM-style background compaction for the sharded fingerprint store.

The append-only store (:mod:`repro.service.store`) writes one segment
per ingested batch per shard and never rewrites anything — durable,
but at the §4 population scale segments accumulate forever, cold
lookups touch every one of them, and tombstoned devices keep their
bytes.  This module is the maintenance half of the LSM design:

* :func:`plan_compaction` picks, per shard, runs of small consecutive
  segments (size-tiered) and any segment holding tombstoned records;
* :class:`Compactor` executes merges — read the sources strictly,
  drop tombstoned and superseded records, write one checksummed v2
  output with a fresh bloom-filter trailer, and commit through
  :meth:`~repro.service.store.ShardedFingerprintStore.commit_compaction`,
  whose journal + fsync + atomic-rename protocol makes a crash at any
  point resolve to exactly the pre- or post-merge store;
* :class:`CompactionPolicy` bounds the work (merge fan-in, merges per
  run) and defers it entirely while a load probe — typically
  :meth:`repro.service.stream.StreamingIdentificationService.queue_load`
  — says the serving path needs the disk more;
* :class:`BackgroundCompactor` runs the loop on a daemon thread with
  an explicit stop event.

Query results are invariant under compaction: surviving records keep
their global sequences (recorded as ``runs`` on the output segment),
tombstoned records were already invisible, and dropped sequence spans
move to the manifest's ``reclaimed`` ledger so ``verify-store`` can
still account for the whole sequence space.
"""

from __future__ import annotations

import io
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.fingerprint import Fingerprint
from repro.core.serialize import dump_database
from repro.obs.trace import span as obs_span
from repro.reliability.bloom import append_trailer, build_filter
from repro.service.store import (
    SegmentRecord,
    ShardedFingerprintStore,
    coalesce_runs,
)

#: Merge reasons, in planning priority order.
REASON_TOMBSTONES = "tombstones"
REASON_SIZE_TIER = "size_tier"


@dataclass(frozen=True)
class CompactionPolicy:
    """Knobs bounding what one compaction pass may do.

    Parameters
    ----------
    small_segment_records:
        Segments holding at most this many records are merge
        candidates; bigger segments are already "compacted enough"
        and rewriting them would be write amplification for nothing.
    min_merge_segments, max_merge_segments:
        Fan-in bounds of one size-tiered merge.  Segments holding
        tombstoned records are exempt from the minimum — reclaiming a
        deleted device may mean rewriting a single segment.
    trigger_segments_per_shard:
        A shard only enters size-tiered planning once it has at least
        this many small segments; below that, merging buys little.
    max_concurrent_merges:
        Merges one :meth:`Compactor.run_once` call may commit.
    backpressure_threshold:
        Defer the whole pass while the load probe reports at least
        this fill fraction (see :meth:`Compactor.run_once`).
    """

    small_segment_records: int = 2048
    min_merge_segments: int = 2
    max_merge_segments: int = 8
    trigger_segments_per_shard: int = 4
    max_concurrent_merges: int = 1
    backpressure_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.small_segment_records < 1:
            raise ValueError("small_segment_records must be >= 1")
        if self.min_merge_segments < 2:
            raise ValueError("min_merge_segments must be >= 2")
        if self.max_merge_segments < self.min_merge_segments:
            raise ValueError(
                "max_merge_segments must be >= min_merge_segments"
            )
        if self.trigger_segments_per_shard < 1:
            raise ValueError("trigger_segments_per_shard must be >= 1")
        if self.max_concurrent_merges < 1:
            raise ValueError("max_concurrent_merges must be >= 1")
        if not 0.0 < self.backpressure_threshold <= 1.0:
            raise ValueError("backpressure_threshold must be in (0, 1]")


@dataclass(frozen=True)
class MergePlan:
    """One planned merge: consecutive segments of a single shard."""

    shard: int
    sources: Tuple[SegmentRecord, ...]
    reason: str

    def to_json(self) -> Dict[str, object]:
        """JSON representation (the ``--dry-run`` plan output)."""
        return {
            "shard": self.shard,
            "reason": self.reason,
            "sources": [record.filename for record in self.sources],
            "records": sum(record.count for record in self.sources),
        }


@dataclass(frozen=True)
class CompactionPlan:
    """Every merge one pass would perform, in execution order."""

    merges: Tuple[MergePlan, ...]

    def __len__(self) -> int:
        return len(self.merges)

    def to_json(self) -> Dict[str, object]:
        """JSON representation (the ``--dry-run`` plan output)."""
        return {
            "n_merges": len(self.merges),
            "merges": [merge.to_json() for merge in self.merges],
        }


@dataclass(frozen=True)
class MergeReport:
    """What one committed merge did."""

    shard: int
    reason: str
    sources: Tuple[str, ...]
    output: Optional[str]
    records_kept: int
    records_dropped: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        """Disk bytes freed by the merge (never negative)."""
        return max(0, self.bytes_before - self.bytes_after)

    def to_json(self) -> Dict[str, object]:
        """JSON representation for reports and the run ledger."""
        return {
            "shard": self.shard,
            "reason": self.reason,
            "sources": list(self.sources),
            "output": self.output,
            "records_kept": self.records_kept,
            "records_dropped": self.records_dropped,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "bytes_reclaimed": self.bytes_reclaimed,
        }


@dataclass
class CompactionReport:
    """Outcome of one :meth:`Compactor.run_once` pass."""

    deferred: bool = False
    merges: List[MergeReport] = field(default_factory=list)

    @property
    def bytes_reclaimed(self) -> int:
        """Total disk bytes freed across the pass."""
        return sum(merge.bytes_reclaimed for merge in self.merges)

    @property
    def records_dropped(self) -> int:
        """Total records dropped across the pass."""
        return sum(merge.records_dropped for merge in self.merges)

    def to_json(self) -> Dict[str, object]:
        """JSON representation for reports and the run ledger."""
        return {
            "deferred": self.deferred,
            "n_merges": len(self.merges),
            "bytes_reclaimed": self.bytes_reclaimed,
            "records_dropped": self.records_dropped,
            "merges": [merge.to_json() for merge in self.merges],
        }


def _tombstoned_segments(
    store: ShardedFingerprintStore,
) -> Dict[str, int]:
    """Per-filename count of tombstoned records, for live segments."""
    tombstone_sequences = set(store.tombstones.values())
    if not tombstone_sequences:
        return {}
    counts: Dict[str, int] = {}
    for record in store.segments:
        hits = sum(
            1
            for sequence in record.sequences()
            if sequence in tombstone_sequences
        )
        if hits:
            counts[record.filename] = hits
    return counts


def plan_compaction(
    store: ShardedFingerprintStore,
    policy: CompactionPolicy = CompactionPolicy(),
) -> CompactionPlan:
    """Choose the merges one pass should perform.

    Per shard, in sequence order: size-tiered runs of consecutive
    small segments (only once the shard holds enough of them), then
    single-segment rewrites of any remaining segment carrying
    tombstoned records.  Merging only *consecutive* segments keeps
    every output's sequence runs disjoint from its neighbours, which
    is what lets ``verify-store`` keep checking span exclusivity.
    """
    merges: List[MergePlan] = []
    tombstoned = _tombstoned_segments(store)
    for shard in range(store.n_shards):
        segments = sorted(
            (record for record in store.segments if record.shard == shard),
            key=lambda record: record.start_sequence,
        )
        if not segments:
            continue
        planned: set = set()
        small = [
            record
            for record in segments
            if record.count <= policy.small_segment_records
        ]
        if len(small) >= policy.trigger_segments_per_shard:
            run: List[SegmentRecord] = []
            for record in segments:
                if record.count <= policy.small_segment_records:
                    run.append(record)
                    if len(run) == policy.max_merge_segments:
                        merges.append(
                            MergePlan(shard, tuple(run), REASON_SIZE_TIER)
                        )
                        planned.update(r.filename for r in run)
                        run = []
                    continue
                if len(run) >= policy.min_merge_segments:
                    merges.append(
                        MergePlan(shard, tuple(run), REASON_SIZE_TIER)
                    )
                    planned.update(r.filename for r in run)
                run = []
            if len(run) >= policy.min_merge_segments:
                merges.append(MergePlan(shard, tuple(run), REASON_SIZE_TIER))
                planned.update(r.filename for r in run)
        for record in segments:
            if record.filename in tombstoned and record.filename not in planned:
                merges.append(
                    MergePlan(shard, (record,), REASON_TOMBSTONES)
                )
                planned.add(record.filename)
    return CompactionPlan(merges=tuple(merges))


class Compactor:
    """Executes compaction passes against one store.

    Single-threaded by design: one compactor instance performs one
    merge at a time through the store's journalled commit path, so the
    store itself never needs internal locking for compaction.  Wrap in
    :class:`BackgroundCompactor` for a maintenance thread.
    """

    def __init__(
        self,
        store: ShardedFingerprintStore,
        policy: CompactionPolicy = CompactionPolicy(),
        load_probe: Optional[Callable[[], float]] = None,
    ) -> None:
        self._store = store
        self._policy = policy
        self._load_probe = load_probe

    @property
    def store(self) -> ShardedFingerprintStore:
        """The store this compactor maintains."""
        return self._store

    @property
    def policy(self) -> CompactionPolicy:
        """Active policy."""
        return self._policy

    def plan(self) -> CompactionPlan:
        """What the next pass would do (the ``--dry-run`` answer)."""
        return plan_compaction(self._store, self._policy)

    def _merge(self, plan: MergePlan) -> MergeReport:
        """Execute and commit one planned merge."""
        store = self._store
        tombstones = store.tombstones
        bytes_before = 0
        rows: List[Tuple[int, str, Fingerprint]] = []
        for record in plan.sources:
            bytes_before += store.segment_path(record).stat().st_size
            for sequence, (key, fingerprint) in zip(
                record.sequences(), store.read_segment(record)
            ):
                rows.append((sequence, key, fingerprint))
        rows.sort(key=lambda row: row[0])

        kept: List[Tuple[int, str, Fingerprint]] = []
        dropped_sequences: List[int] = []
        cleared: List[str] = []
        seen_keys: set = set()
        for sequence, key, fingerprint in rows:
            if key in tombstones:
                dropped_sequences.append(sequence)
                cleared.append(key)
                continue
            if key in seen_keys:
                # Superseded duplicate (first-match wins, so the
                # earliest sequence is the live one).
                dropped_sequences.append(sequence)
                continue
            seen_keys.add(key)
            kept.append((sequence, key, fingerprint))

        output: Optional[SegmentRecord] = None
        data: Optional[bytes] = None
        if kept:
            entries = [(key, fingerprint) for _sequence, key, fingerprint in kept]
            buffer = io.BytesIO()
            dump_database(entries, buffer)
            data = append_trailer(
                buffer.getvalue(), build_filter([key for key, _fp in entries])
            )
            runs = coalesce_runs(
                (sequence, 1) for sequence, _key, _fp in kept
            )
            output = SegmentRecord(
                shard=plan.shard,
                filename=store.next_segment_filename(plan.shard),
                count=len(kept),
                start_sequence=kept[0][0],
                runs=tuple(runs),
            )
        reclaimed = coalesce_runs(
            (sequence, 1) for sequence in dropped_sequences
        )
        store.commit_compaction(
            sources=plan.sources,
            output=output,
            data=data,
            reclaimed=reclaimed,
            cleared_tombstones=cleared,
        )
        bytes_after = len(data) if data is not None else 0
        report = MergeReport(
            shard=plan.shard,
            reason=plan.reason,
            sources=tuple(record.filename for record in plan.sources),
            output=output.filename if output is not None else None,
            records_kept=len(kept),
            records_dropped=len(dropped_sequences),
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )
        metrics = store.metrics
        metrics.count("store.compaction_merges")
        metrics.count("store.compaction_segments_merged", len(plan.sources))
        metrics.count("store.compaction_records_dropped", len(dropped_sequences))
        metrics.count("store.compaction_bytes_reclaimed", report.bytes_reclaimed)
        return report

    def run_once(self) -> CompactionReport:
        """One bounded pass: defer under load, else commit some merges."""
        store = self._store
        metrics = store.metrics
        metrics.count("store.compaction_runs")
        if self._load_probe is not None:
            load = self._load_probe()
            if load >= self._policy.backpressure_threshold:
                metrics.count("store.compaction_deferred")
                return CompactionReport(deferred=True)
        report = CompactionReport()
        plan = self.plan()
        for merge_plan in plan.merges[: self._policy.max_concurrent_merges]:
            with obs_span(
                "store.compaction_merge",
                shard=merge_plan.shard,
                reason=merge_plan.reason,
                n_sources=len(merge_plan.sources),
            ):
                report.merges.append(self._merge(merge_plan))
        return report

    def compact_all(
        self,
        max_passes: int = 1000,
        max_merges: Optional[int] = None,
    ) -> CompactionReport:
        """Run passes until the planner finds nothing left to merge.

        The manual ``repro compact`` path: ignores the load probe (the
        operator asked) and folds every pass into one report.
        ``max_merges`` bounds the total merges committed.
        """
        combined = CompactionReport()
        for _pass in range(max_passes):
            if max_merges is not None and len(combined.merges) >= max_merges:
                break
            plan = self.plan()
            if not plan.merges:
                break
            budget = len(plan.merges)
            if max_merges is not None:
                budget = min(budget, max_merges - len(combined.merges))
            with obs_span("store.compaction_pass", n_merges=len(plan.merges)):
                for merge_plan in plan.merges[:budget]:
                    combined.merges.append(self._merge(merge_plan))
            self._store.metrics.count("store.compaction_runs")
        return combined


class BackgroundCompactor:
    """Daemon thread running :meth:`Compactor.run_once` on a cadence.

    Reports accumulate under a small lock; the merges themselves run
    with no lock held (they do disk IO through the store's journalled
    commit path, which is single-writer by construction here).
    """

    def __init__(
        self,
        compactor: Compactor,
        interval_s: float = 0.05,
    ) -> None:
        if interval_s <= 0.0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self._compactor = compactor
        self._interval_s = interval_s
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        self._reports: List[CompactionReport] = []
        self._failure: List[BaseException] = []
        self._thread = threading.Thread(
            target=self._loop, name="store-compactor", daemon=True
        )

    def start(self) -> None:
        """Start the maintenance thread."""
        self._thread.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Signal the loop to finish its pass and join the thread."""
        self._stop_event.set()
        self._thread.join(timeout=timeout_s)

    @property
    def running(self) -> bool:
        """True while the maintenance thread is alive."""
        return self._thread.is_alive()

    def reports(self) -> List[CompactionReport]:
        """Snapshot of every pass report so far."""
        with self._lock:
            return list(self._reports)

    def failure(self) -> Optional[BaseException]:
        """The exception that killed the loop, if one did."""
        with self._lock:
            return self._failure[0] if self._failure else None

    def _loop(self) -> None:
        while not self._stop_event.wait(self._interval_s):
            try:
                report = self._compactor.run_once()
            except BaseException as error:  # noqa: BLE001 - surfaced via failure()
                with self._lock:
                    self._failure.append(error)
                return
            with self._lock:
                self._reports.append(report)


def stream_load_probe(service: object) -> Callable[[], float]:
    """Backpressure probe reading a stream service's queue fill.

    Accepts any object with a ``queue_load() -> float`` method (duck
    typed so the compactor does not import the stream module).
    """

    def probe() -> float:
        return float(service.queue_load())  # type: ignore[attr-defined]

    return probe
