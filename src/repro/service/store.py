"""Persistent, sharded fingerprint store with append-only segments.

The supply-chain attacker accumulates fingerprints for years; the §4
model puts the database at a fingerprint per device — 10^5-10^6
entries and beyond.  Loading all of that to answer one query is
wasteful, and rewriting one monolithic file per interception batch is
worse.  This store borrows the standard LSM-ish layout used by
storage engines:

* fingerprints live in **append-only segment files**, each an ordinary
  :func:`repro.core.serialize.dump_database` stream — one new segment
  per ingested batch per shard, never rewritten in place, written in
  the checksummed v2 frame format (legacy v1 segments stay readable);
* a JSON **manifest** records the schema version, the shard split
  keys, every segment (shard, file, entry count, starting global
  sequence number), any quarantined segments, and the next sequence to
  assign;
* entries are **key-range sharded**: the first ingested batch picks
  balanced lexicographic split keys, and every later key routes to the
  shard owning its range, so point lookups and ingests touch one
  shard while batch queries fan out over all of them.

Global **sequence numbers** (assigned at ingest, recorded per segment)
preserve Algorithm 2's "first fingerprint below threshold" semantics
across shards: per-shard answers carry the sequence of their match and
the merge step takes the minimum — identical to a linear scan over one
big database in ingest order.

Ingest is **crash-safe** without a journal (DESIGN.md §8, "Durable
commits"): it creates its new segments, then publishes the manifest,
and the manifest rename is the commit point.  A crash before it leaves
*unpublished outputs* — segment files no manifest entry names, numbered
at or above their shard's next segment id (:func:`unpublished_outputs`)
— which :meth:`ShardedFingerprintStore.recover`, run on open, sweeps,
never touching previously committed segments.  Compaction and segment
quarantine commit through a write-ahead
:class:`~repro.reliability.durable.Journal`; :data:`STORE_JOURNALS`
lists them once for the store's recovery and for ``verify-store``, and
:func:`load_manifest` is the one manifest parser both read through.
All filesystem traffic goes through a
:class:`repro.reliability.faults.StorageIO` seam so the chaos tests can
enumerate crash points deterministically.

Shards load lazily into :class:`~repro.core.identify.FingerprintDatabase`
replicas — one packed matrix per shard, built in one pass over its
segments' records — and are cached;
:class:`~repro.service.metrics.ServiceMetrics` counts loads, cache
hits, recoveries and quarantines.

Two scale features ride on top of the append-only core:

* every ingested segment carries a **bloom filter** trailer (see
  :mod:`repro.reliability.bloom`) so :meth:`ShardedFingerprintStore.lookup`
  can answer point queries on a cold shard without reading every
  segment body;
* :meth:`ShardedFingerprintStore.commit_compaction` merges segments
  through its own write-ahead **compaction journal**, so background
  compaction (see :mod:`repro.reliability.compaction`) inherits the
  same crash-anywhere recovery guarantees as ingest.  Compacted segments
  record their surviving global sequences as ``runs``; sequence spans
  whose records were dropped (tombstoned devices) move to the
  manifest's ``reclaimed`` list so the sequence space stays fully
  accounted for.
"""

from __future__ import annotations

import bisect
import io
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.fingerprint import Fingerprint
from repro.core.identify import FingerprintDatabase
from repro.core.serialize import dump_database, load_entries
from repro.obs.trace import span as obs_span
from repro.reliability.bloom import (
    BloomFilter,
    append_trailer,
    build_filter,
    load_segment_bloom,
)
from repro.reliability.durable import (
    Intent,
    Journal,
    create,
    discard,
    json_bytes,
    move,
    publish,
    temporary,
)
from repro.reliability.faults import StorageIO
from repro.service.metrics import ServiceMetrics

_MANIFEST_NAME = "manifest.json"
_COMPACTION_JOURNAL_NAME = "compaction-journal.json"
_QUARANTINE_JOURNAL_NAME = "quarantine-journal.json"
_QUARANTINE_DIR = "quarantine"
_STORE_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)
_SEGMENT_ID_PATTERN = re.compile(r"segment-(\d+)")
_SEGMENT_FILE_PATTERN = re.compile(r"shard-(\d+)/segment-(\d+)")


class StoreError(ValueError):
    """Raised on a malformed store directory or an invalid ingest."""


@dataclass(frozen=True)
class SegmentRecord:
    """One append-only segment file as recorded in the manifest.

    ``omitted`` lists the original record offsets a repair dropped from
    a salvaged segment: the k-th surviving record's global sequence is
    ``start_sequence +`` its *original* offset, so sequence numbers —
    and therefore Algorithm 2 priority — survive salvage intact.

    A *compacted* segment carries ``runs`` instead: coalesced
    ``(start, count)`` spans of the global sequences its records hold,
    in stored order.  A merge output's sequences are rarely contiguous
    (tombstoned records were dropped between survivors), and runs keep
    the manifest entry small no matter how fragmented the survivors
    are.  When ``runs`` is set, ``count`` equals the total run length
    and ``start_sequence`` equals ``runs[0][0]``.
    """

    shard: int
    filename: str
    count: int
    start_sequence: int
    omitted: Tuple[int, ...] = ()
    runs: Tuple[Tuple[int, int], ...] = ()

    @property
    def original_count(self) -> int:
        """Record count before any salvage dropped corrupt records."""
        return self.count + len(self.omitted)

    def offsets(self) -> List[int]:
        """Original offsets of the surviving records, in stored order."""
        if not self.omitted:
            return list(range(self.count))
        dropped = set(self.omitted)
        return [
            offset
            for offset in range(self.original_count)
            if offset not in dropped
        ]

    def spans(self) -> List[Tuple[int, int]]:
        """Sequence ``(start, count)`` runs this segment accounts for."""
        return list(self.runs) or [(self.start_sequence, self.original_count)]

    def sequences(self) -> List[int]:
        """Global sequence of each stored record, in stored order."""
        if self.runs:
            expanded: List[int] = []
            for start, count in self.runs:
                expanded.extend(range(start, start + count))
            return expanded
        return [self.start_sequence + offset for offset in self.offsets()]

    def to_json(self) -> Dict[str, object]:
        """Manifest representation of this segment."""
        payload: Dict[str, object] = {
            "shard": self.shard,
            "filename": self.filename,
            "count": self.count,
            "start_sequence": self.start_sequence,
        }
        if self.omitted:
            payload["omitted"] = list(self.omitted)
        if self.runs:
            payload["runs"] = [list(run) for run in self.runs]
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "SegmentRecord":
        """Inverse of :meth:`to_json`."""
        return cls(
            shard=int(payload["shard"]),
            filename=str(payload["filename"]),
            count=int(payload["count"]),
            start_sequence=int(payload["start_sequence"]),
            omitted=tuple(int(o) for o in payload.get("omitted", ())),
            runs=tuple(
                (int(start), int(count))
                for start, count in payload.get("runs", ())
            ),
        )


@dataclass(frozen=True)
class QuarantinedSegment:
    """A segment pulled from serving because its content is damaged."""

    record: SegmentRecord
    reason: str

    def to_json(self) -> Dict[str, object]:
        """Manifest representation."""
        return {"record": self.record.to_json(), "reason": self.reason}

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "QuarantinedSegment":
        """Inverse of :meth:`to_json`."""
        return cls(
            record=SegmentRecord.from_json(payload["record"]),
            reason=str(payload["reason"]),
        )


@dataclass
class RecoveryReport:
    """What :meth:`ShardedFingerprintStore.recover` did.

    ``orphans_removed`` lists the unpublished outputs swept (a crashed
    ingest's segments among them); ``compaction_action`` covers the
    compaction journal and ``quarantine_action`` the segment-quarantine
    journal — the protocols are independent and each resolves on its
    own.
    """

    orphans_removed: List[str] = field(default_factory=list)
    # none | compaction_committed | compaction_rolled_forward |
    # compaction_rolled_back
    compaction_action: str = "none"
    compaction_journal_found: bool = False
    # none | quarantine_committed | quarantine_rolled_forward |
    # quarantine_rolled_back
    quarantine_action: str = "none"

    def journal_actions(self) -> List[str]:
        """Every journal outcome other than ``none``, in resolve order."""
        actions = (self.compaction_action, self.quarantine_action)
        return [action for action in actions if action != "none"]


@dataclass(frozen=True)
class Manifest:
    """The parsed state of a store's ``manifest.json``."""

    n_shards: int
    boundaries: List[str]
    segments: List[SegmentRecord]
    next_sequence: int
    quarantined: List[QuarantinedSegment]
    tombstones: Dict[str, int]
    reclaimed: List[Tuple[int, int]]


def load_manifest(root: Path, storage_io: Optional[StorageIO] = None) -> Manifest:
    """Read-only parse of the manifest in ``root``.

    The one manifest parser: the store applies its result, and
    ``verify-store`` reports its :class:`StoreError` as the manifest
    finding.  Anything missing, unreadable or malformed raises
    :class:`StoreError`.
    """
    path = Path(root) / _MANIFEST_NAME
    try:
        data = (storage_io or StorageIO()).read_bytes(path)
        payload = json.loads(data.decode("utf-8"))
    except FileNotFoundError as error:
        raise StoreError(f"no manifest at {path}") from error
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StoreError(f"unreadable manifest at {path}: {error}") from error
    version = payload.get("version") if isinstance(payload, dict) else None
    if version not in _SUPPORTED_VERSIONS:
        raise StoreError(f"unsupported store version {version!r}")
    try:
        return Manifest(
            n_shards=int(payload["n_shards"]),
            boundaries=[str(boundary) for boundary in payload["boundaries"]],
            segments=[SegmentRecord.from_json(record) for record in payload["segments"]],
            next_sequence=int(payload["next_sequence"]),
            quarantined=[
                QuarantinedSegment.from_json(record)
                for record in payload.get("quarantined", [])
            ],
            tombstones={
                str(entry["key"]): int(entry["sequence"])
                for entry in payload.get("tombstones", [])
            },
            reclaimed=coalesce_runs(
                (int(start), int(count))
                for start, count in payload.get("reclaimed", [])
            ),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed manifest at {path}: {error!r}") from error


@dataclass
class LoadedShard:
    """An in-memory replica of one shard.

    ``database`` preserves the shard's ingest order (so its packed
    identification returns the shard's earliest match), ``sequences``
    maps each key to its global sequence for the cross-shard merge.
    """

    database: FingerprintDatabase
    sequences: Dict[str, int]


@dataclass(frozen=True)
class StoreLookup:
    """Answer to one point lookup, with its read-path accounting.

    ``segments_scanned`` / ``segments_skipped`` count segment bodies
    read vs. skipped on bloom-filter evidence; both are zero when the
    shard replica was already warm in the cache.
    """

    key: str
    fingerprint: Fingerprint
    sequence: int
    segments_scanned: int = 0
    segments_skipped: int = 0


class ShardedFingerprintStore:
    """Durable fingerprint store: manifest + shards + segments.

    Open an existing store (or create an empty one) by constructing
    with its directory path; ingest batches with :meth:`ingest`; get a
    queryable shard replica with :meth:`load_shard`.  A pending journal
    of :data:`STORE_JOURNALS` or an unpublished output found at open is
    resolved by :meth:`recover` before the store serves anything.
    """

    def __init__(
        self,
        root: Union[str, Path],
        n_shards: int = 8,
        metrics: Optional[ServiceMetrics] = None,
        storage_io: Optional[StorageIO] = None,
    ) -> None:
        self._root = Path(root)
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        self._io = storage_io if storage_io is not None else StorageIO()
        self._cache: Dict[int, LoadedShard] = {}
        self._blooms: Dict[str, Optional[BloomFilter]] = {}
        self._quarantined: List[QuarantinedSegment] = []
        self._tombstones: Dict[str, int] = {}
        self._reclaimed: List[Tuple[int, int]] = []
        self._needs_recovery = False
        self._last_recovery: Optional[RecoveryReport] = None
        if (self._root / _MANIFEST_NAME).exists():
            manifest = load_manifest(self._root, self._io)
            self._apply_manifest(manifest)
            if any(
                (self._root / row.filename).exists() for row in STORE_JOURNALS
            ) or unpublished_outputs(self._root, manifest):
                self.recover()
        else:
            if n_shards < 1:
                raise StoreError(f"n_shards must be >= 1, got {n_shards}")
            self._root.mkdir(parents=True, exist_ok=True)
            self._n_shards = n_shards
            self._boundaries: List[str] = []
            self._segments: List[SegmentRecord] = []
            self._next_sequence = 0
            self._write_manifest()

    # ------------------------------------------------------------------
    # Manifest handling
    # ------------------------------------------------------------------

    def _apply_manifest(self, manifest: Manifest) -> None:
        self._n_shards = manifest.n_shards
        self._boundaries = manifest.boundaries
        self._segments = manifest.segments
        self._next_sequence = manifest.next_sequence
        self._quarantined = manifest.quarantined
        self._tombstones = manifest.tombstones
        self._reclaimed = manifest.reclaimed

    def _manifest(self) -> Manifest:
        """The in-memory manifest state, as :func:`load_manifest` parses it."""
        return Manifest(
            n_shards=self._n_shards,
            boundaries=self._boundaries,
            segments=self._segments,
            next_sequence=self._next_sequence,
            quarantined=self._quarantined,
            tombstones=self._tombstones,
            reclaimed=self._reclaimed,
        )

    def _manifest_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "version": _STORE_VERSION,
            "n_shards": self._n_shards,
            "boundaries": self._boundaries,
            "segments": [segment.to_json() for segment in self._segments],
            "quarantined": [entry.to_json() for entry in self._quarantined],
            "next_sequence": self._next_sequence,
        }
        # Additive fields: absent on stores that never tombstoned or
        # compacted, so pre-compaction manifests round-trip unchanged.
        if self._tombstones:
            payload["tombstones"] = [
                {"key": key, "sequence": sequence}
                for key, sequence in sorted(self._tombstones.items())
            ]
        if self._reclaimed:
            payload["reclaimed"] = [list(run) for run in self._reclaimed]
        return payload

    def _write_manifest(self) -> None:
        """Durably publish the in-memory manifest state."""
        data = json_bytes(self._manifest_payload(), indent=2, sort_keys=True)
        try:
            publish(self._io, self._root / _MANIFEST_NAME, data)
        except OSError:
            # Disk may hold either manifest: refuse further mutation
            # from this handle until recovery re-reads it.
            self._needs_recovery = True
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def root(self) -> Path:
        """Store directory."""
        return self._root

    @property
    def quarantine_dir(self) -> Path:
        """Directory quarantined segment files are moved into."""
        return self._root / _QUARANTINE_DIR

    @property
    def n_shards(self) -> int:
        """Number of key-range shards."""
        return self._n_shards

    @property
    def boundaries(self) -> List[str]:
        """Lexicographic split keys (``n_shards - 1`` of them, once set)."""
        return list(self._boundaries)

    @property
    def segments(self) -> List[SegmentRecord]:
        """Every live segment in manifest (= ingest) order."""
        return list(self._segments)

    @property
    def quarantined(self) -> List[QuarantinedSegment]:
        """Segments pulled from serving by :meth:`quarantine_segment`."""
        return list(self._quarantined)

    @property
    def tombstones(self) -> Dict[str, int]:
        """Keys marked for deletion (key -> global sequence).

        A tombstoned key stops serving immediately; its bytes are
        reclaimed by the next compaction of its segment.
        """
        return dict(self._tombstones)

    @property
    def reclaimed(self) -> List[Tuple[int, int]]:
        """Sequence ``(start, count)`` runs dropped by compaction.

        Together with live and quarantined segments these account for
        the whole ``[0, next_sequence)`` space — the invariant
        ``verify-store`` checks.
        """
        return list(self._reclaimed)

    def __len__(self) -> int:
        return (
            sum(segment.count for segment in self._segments)
            - len(self._tombstones)
        )

    @property
    def metrics(self) -> ServiceMetrics:
        """Shared instrumentation sink."""
        return self._metrics

    @property
    def storage_io(self) -> StorageIO:
        """The IO seam all durable operations go through."""
        return self._io

    def shard_for_key(self, key: str) -> int:
        """Shard owning ``key``'s range (0 before boundaries exist).

        Shard ``i`` owns keys in ``(boundaries[i-1], boundaries[i]]``
        with open ends at the extremes.
        """
        if not self._boundaries:
            return 0
        return bisect.bisect_left(self._boundaries, key)

    def shard_key_range(self, shard: int) -> Tuple[Optional[str], Optional[str]]:
        """Key range ``(low_exclusive, high_inclusive)`` a shard owns.

        ``None`` marks an open end; with no boundaries fixed yet, shard
        0 owns everything.
        """
        self._check_shard(shard)
        if not self._boundaries:
            return (None, None)
        low = self._boundaries[shard - 1] if shard > 0 else None
        high = (
            self._boundaries[shard]
            if shard < len(self._boundaries)
            else None
        )
        return (low, high)

    def degraded_shards(self) -> List[int]:
        """Shards known to be missing data (quarantined or salvaged).

        Answers from these shards may be incomplete: a fingerprint
        ingested into them might have been lost to corruption, so a
        query that should match it will fall through.
        """
        shards = {entry.record.shard for entry in self._quarantined}
        shards.update(
            segment.shard for segment in self._segments if segment.omitted
        )
        return sorted(shards)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self._n_shards:
            raise StoreError(f"shard {shard} out of range for {self._n_shards} shards")

    def _check_serviceable(self) -> None:
        if self._needs_recovery:
            raise StoreError(
                "a crashed ingest left this store handle inconsistent; "
                "call recover() or reopen the store"
            )

    def ingest(
        self,
        entries: Union[FingerprintDatabase, Iterable[Tuple[str, Fingerprint]]],
    ) -> List[SegmentRecord]:
        """Append a batch of fingerprints; returns the new segments.

        ``entries`` is a database or an iterable of ``(key,
        fingerprint)`` pairs; their order defines the global sequence
        numbers assigned (and therefore Algorithm 2 priority).  The
        first non-empty ingest of a fresh store also fixes the shard
        boundaries from the batch's sorted keys.  Keys already present
        in the store (or repeated within the batch) are rejected.

        The batch commits on the manifest rename: a crash at any point
        commits all of it or none of it.
        """
        self._check_serviceable()
        if isinstance(entries, FingerprintDatabase):
            batch = list(entries.items())
        else:
            batch = list(entries)
        if not batch:
            return []
        keys = [key for key, _fingerprint in batch]
        if len(set(keys)) != len(keys):
            raise StoreError("duplicate keys within ingest batch")
        clashes = self._find_existing(keys)
        if clashes:
            raise StoreError(
                f"keys already stored: {sorted(clashes)[:5]}"
                f"{'...' if len(clashes) > 5 else ''}"
            )
        new_boundaries = list(self._boundaries)
        if not new_boundaries and self._n_shards > 1:
            new_boundaries = _balanced_boundaries(keys, self._n_shards)

        def route(key: str) -> int:
            if not new_boundaries:
                return 0
            return bisect.bisect_left(new_boundaries, key)

        per_shard: Dict[int, List[Tuple[int, str, Fingerprint]]] = {}
        for offset, (key, fingerprint) in enumerate(batch):
            sequence = self._next_sequence + offset
            per_shard.setdefault(route(key), []).append(
                (sequence, key, fingerprint)
            )

        planned: List[Tuple[SegmentRecord, bytes]] = []
        for shard in sorted(per_shard):
            rows = per_shard[shard]
            filename = self.next_segment_filename(shard)
            entries = [(key, fingerprint) for _sequence, key, fingerprint in rows]
            buffer = io.BytesIO()
            dump_database(entries, buffer)
            data = append_trailer(
                buffer.getvalue(), build_filter([key for key, _fp in entries])
            )
            planned.append(
                (
                    SegmentRecord(
                        shard=shard,
                        filename=filename,
                        count=len(rows),
                        start_sequence=rows[0][0],
                    ),
                    data,
                )
            )

        try:
            self._commit_ingest(planned, new_boundaries, len(batch))
        except OSError:
            # Disk state is now at an unknown point of the protocol;
            # refuse further mutation from this handle until recovery.
            self._needs_recovery = True
            raise

        for record, _data in planned:
            cached = self._cache.get(record.shard)
            if cached is None:
                continue
            # Keep a warm cache coherent instead of dropping it.
            for sequence, key, fingerprint in per_shard[record.shard]:
                cached.database.add(key, fingerprint)
                cached.sequences[key] = sequence
        return [record for record, _data in planned]

    def _commit_ingest(
        self,
        planned: List[Tuple[SegmentRecord, bytes]],
        new_boundaries: List[str],
        batch_size: int,
    ) -> None:
        """The durable half of :meth:`ingest`: segments (each with its
        shard directory), then the manifest publish, whose rename is the
        commit point.  A failure leaves the handle for :meth:`recover`
        to re-read from disk and sweep the unpublished segments."""
        for record, data in planned:
            path = self._root / record.filename
            path.parent.mkdir(parents=True, exist_ok=True)
            create(self._io, path, data)
        self._segments.extend(record for record, _data in planned)
        self._boundaries = new_boundaries
        self._next_sequence += batch_size
        self._write_manifest()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Resolve interrupted commits; idempotent, safe to re-run.

        Re-reads the manifest, then resolves every pending journal of
        :data:`STORE_JOURNALS` in turn by the one rule of
        :class:`~repro.reliability.durable.Journal`: forward when the
        commit already reached the manifest or its new segments verify
        on disk, back (new files deleted) otherwise.  Finally, the
        :func:`unpublished_outputs` — a crashed ingest's segments, a
        rolled-back merge's temporaries — are swept along with a stale
        manifest temporary.  Committed fingerprints, and lower-numbered
        strays no commit explains, are never touched.
        """
        report = RecoveryReport()
        manifest_path = self._root / _MANIFEST_NAME
        if manifest_path.exists():
            self._apply_manifest(load_manifest(self._root, self._io))
        resolved = False
        for row in STORE_JOURNALS:
            journal = Journal(self._io, self._root / row.filename)
            if row.resolve(self, journal, report) is not None:
                resolved = True
                self._metrics.count("store.recoveries")
        # Sweep leftovers: a stale manifest temporary and every segment
        # file or temporary a commit wrote but never published.
        discard(self._io, [temporary(manifest_path)])
        report.orphans_removed = unpublished_outputs(self._root, self._manifest())
        discard(self._io, [self._root / name for name in report.orphans_removed])
        self._cache.clear()
        self._blooms.clear()
        self._needs_recovery = False
        if resolved or report.orphans_removed:
            # Stash non-trivial outcomes so a later repair pass can
            # report a recovery that ran implicitly at open time.
            self._last_recovery = report
        return report

    def _recover_compaction(
        self, journal: Journal, report: RecoveryReport
    ) -> Optional[bool]:
        """Resolve a pending compaction journal into ``report``."""
        report.compaction_journal_found = journal.pending()

        def swapped(intent: Intent) -> bool:
            # Sources gone from the manifest: only their cleanup remained.
            live = {record.filename for record in self._segments}
            return not all(str(name) in live for name in intent["sources"])

        def verify(intent: Intent) -> bool:
            output = _compaction_output(intent)
            return swapped(intent) or output is None or self._segment_verifies(output)

        def forward(intent: Intent) -> None:
            sources = [str(name) for name in intent["sources"]]
            report.compaction_action = "compaction_committed"
            if not swapped(intent):
                self._apply_compaction(
                    sources,
                    _compaction_output(intent),
                    [(int(start), int(n)) for start, n in intent.get("reclaimed", [])],
                    [str(key) for key in intent.get("cleared_tombstones", [])],
                )
                self._write_manifest()
                report.compaction_action = "compaction_rolled_forward"
                self._metrics.count("store.compaction_recovered_forward")
            discard(self._io, [self._root / name for name in sources])

        def back(intent: Optional[Intent]) -> None:
            report.compaction_action = "compaction_rolled_back"
            output = _compaction_output(intent) if intent is not None else None
            if output is not None:
                discard(self._io, [self._root / output.filename])
            if intent is not None:
                self._metrics.count("store.compaction_recovered_back")

        return journal.recover(verify, forward, back)

    def _recover_quarantine(
        self, journal: Journal, report: RecoveryReport
    ) -> Optional[bool]:
        """Resolve a pending quarantine journal: forward once the salvage
        replacement (if any) is fully on disk, else drop the replacement."""

        def landed(intent: Intent) -> bool:
            return SegmentRecord.from_json(intent["record"]) not in self._segments

        def verify(intent: Intent) -> bool:
            replacement = intent["replacement"]
            return (
                landed(intent)
                or replacement is None
                or self._segment_verifies(SegmentRecord.from_json(replacement))
            )

        def forward(intent: Intent) -> None:
            report.quarantine_action = "quarantine_committed"
            if not landed(intent):
                self._apply_quarantine(intent)
                self._write_manifest()
                report.quarantine_action = "quarantine_rolled_forward"

        def back(intent: Optional[Intent]) -> None:
            report.quarantine_action = "quarantine_rolled_back"
            if intent is not None and intent["replacement"] is not None:
                replacement = SegmentRecord.from_json(intent["replacement"])
                discard(self._io, [self._root / replacement.filename])

        return journal.recover(verify, forward, back)

    def take_recovery_report(self) -> Optional[RecoveryReport]:
        """Most recent non-trivial recovery, consumed exactly once.

        Opening a store auto-runs :meth:`recover`; this lets
        :func:`repro.reliability.repair.repair_store` attribute that
        open-time recovery in its own report instead of losing it.
        """
        report, self._last_recovery = self._last_recovery, None
        return report

    def _segment_verifies(self, record: SegmentRecord) -> bool:
        """True when a planned segment is fully, validly on disk."""
        path = self._root / record.filename
        if not path.exists():
            return False
        try:
            entries = self.read_segment(record)
        except (OSError, ValueError):
            return False
        return len(entries) == record.count

    # ------------------------------------------------------------------
    # Point lookups and tombstones
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> Optional[StoreLookup]:
        """Point lookup of one key, or ``None`` when it is not stored.

        A warm shard replica answers from memory.  On a cold shard the
        per-segment bloom filters are consulted first and only the
        segments whose filter says *maybe* are read — the whole point
        of the trailer format — so a miss (or a hit in a recent
        segment) touches a fraction of the shard's bytes.
        """
        self._check_serviceable()
        self._metrics.count("store.point_lookups")
        if key in self._tombstones:
            return None
        shard = self.shard_for_key(key)
        cached = self._cache.get(shard)
        if cached is not None:
            self._metrics.count("store.shard_cache_hits")
            if key not in cached.sequences:
                return None
            return StoreLookup(
                key=key,
                fingerprint=cached.database.get(key),
                sequence=cached.sequences[key],
            )
        scanned = 0
        skipped = 0
        for segment in self._segments:
            if segment.shard != shard:
                continue
            bloom = self._segment_bloom(segment)
            if bloom is not None and key not in bloom:
                skipped += 1
                self._metrics.count("store.bloom_segment_skips")
                continue
            scanned += 1
            self._metrics.count("store.bloom_segment_loads")
            for sequence, (stored_key, fingerprint) in zip(
                segment.sequences(), self.read_segment(segment)
            ):
                if stored_key == key:
                    return StoreLookup(
                        key=key,
                        fingerprint=fingerprint,
                        sequence=sequence,
                        segments_scanned=scanned,
                        segments_skipped=skipped,
                    )
            if bloom is not None:
                self._metrics.count("store.bloom_false_positives")
        return None

    def tombstone(self, keys: Iterable[str]) -> Dict[str, int]:
        """Mark keys as deleted; returns each key's global sequence.

        The tombstone set lives in the manifest (one atomic replace
        publishes it), queries stop serving the keys immediately, and
        the next compaction of each key's segment drops the record and
        moves its sequence into the ``reclaimed`` ledger.  Unknown or
        already-tombstoned keys are rejected before anything mutates.
        """
        self._check_serviceable()
        requested = list(keys)
        if len(set(requested)) != len(requested):
            raise StoreError("duplicate keys within tombstone request")
        located: Dict[str, int] = {}
        for key in requested:
            if key in self._tombstones:
                raise StoreError(f"key {key!r} is already tombstoned")
            found = self.lookup(key)
            if found is None:
                raise StoreError(f"key {key!r} is not stored")
            located[key] = found.sequence
        if not located:
            return {}
        self._tombstones.update(located)
        self._write_manifest()
        for key in located:
            cached = self._cache.get(self.shard_for_key(key))
            if cached is not None and key in cached.sequences:
                cached.database.remove(key)
                del cached.sequences[key]
        self._metrics.count("store.tombstones_added", len(located))
        return located

    # ------------------------------------------------------------------
    # Compaction commit (used by repro.reliability.compaction)
    # ------------------------------------------------------------------

    def _apply_compaction(
        self,
        source_filenames: Sequence[str],
        output: Optional[SegmentRecord],
        reclaimed: Sequence[Tuple[int, int]],
        cleared_tombstones: Sequence[str],
    ) -> None:
        """In-memory manifest transform of one committed merge."""
        source_set = set(source_filenames)
        position = next(
            index
            for index, record in enumerate(self._segments)
            if record.filename in source_set
        )
        kept = [
            record
            for record in self._segments
            if record.filename not in source_set
        ]
        if output is not None:
            # Splice at the first source's manifest position (every
            # earlier entry is a non-source) to preserve global order.
            kept.insert(position, output)
        self._segments = kept
        self._reclaimed = coalesce_runs(self._reclaimed + list(reclaimed))
        for key in cleared_tombstones:
            self._tombstones.pop(key, None)

    def commit_compaction(
        self,
        sources: Sequence[SegmentRecord],
        output: Optional[SegmentRecord],
        data: Optional[bytes],
        reclaimed: Sequence[Tuple[int, int]] = (),
        cleared_tombstones: Sequence[str] = (),
    ) -> None:
        """Durably replace ``sources`` with one merged ``output`` segment.

        Journaled: the output segment and then the manifest are
        published, then the sources are discarded.  A crash at any
        step is resolved by :meth:`recover` into exactly the pre- or
        post-merge store, never a hybrid.  ``output=None`` commits a
        merge that dropped every record (a manifest-only change).
        """
        self._check_serviceable()
        if not sources:
            raise StoreError("compaction needs at least one source segment")
        if (output is None) != (data is None):
            raise StoreError("output record and data must be supplied together")
        live = {record.filename: record for record in self._segments}
        for record in sources:
            if live.get(record.filename) != record:
                raise StoreError(
                    f"segment {record.filename} is not in the live manifest"
                )
        shards = {record.shard for record in sources}
        if len(shards) != 1:
            raise StoreError("compaction sources must share one shard")
        if output is not None:
            if output.shard != sources[0].shard:
                raise StoreError("output segment must live in the source shard")
            if output.filename in live:
                raise StoreError(
                    f"output filename {output.filename} is already live"
                )
        source_filenames = [record.filename for record in sources]
        journal = Journal(self._io, self._root / _COMPACTION_JOURNAL_NAME)
        try:
            journal.begin(
                json_bytes(
                    {
                        "version": 1,
                        "shard": sources[0].shard,
                        "sources": source_filenames,
                        "output": output.to_json() if output is not None else None,
                        "reclaimed": [list(run) for run in reclaimed],
                        "cleared_tombstones": sorted(cleared_tombstones),
                    },
                    indent=2,
                )
            )
            if output is not None and data is not None:
                path = self._root / output.filename
                path.parent.mkdir(parents=True, exist_ok=True)
                publish(self._io, path, data)

            self._apply_compaction(
                source_filenames, output, reclaimed, cleared_tombstones
            )
            self._write_manifest()
            discard(self._io, [self._root / name for name in source_filenames])
            journal.retire()
        except OSError:
            # Disk state is at an unknown point of the protocol; block
            # further mutation from this handle until recovery runs.
            self._needs_recovery = True
            raise

        for name in source_filenames:
            self._blooms.pop(name, None)
        if output is not None:
            self._blooms.pop(output.filename, None)
        self._metrics.count("store.compaction_commits")

    # ------------------------------------------------------------------
    # Quarantine (used by repro.reliability.repair)
    # ------------------------------------------------------------------

    def _quarantine_destination(self, filename: str) -> Path:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        base = filename.replace("/", "__")
        destination = self.quarantine_dir / base
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = self.quarantine_dir / f"{base}.{suffix}"
        return destination

    def quarantine_segment(
        self,
        record: SegmentRecord,
        reason: str,
        replacement: Optional[Tuple[SegmentRecord, bytes]] = None,
    ) -> None:
        """Pull a damaged segment from serving, optionally salvaged.

        The file moves into ``quarantine/`` (it is evidence, not
        garbage), the manifest entry moves to the quarantined list, and
        when a salvage replacement is supplied its file is written
        durably and spliced in at the original manifest position so
        per-shard ingest order is preserved.  The three steps commit as
        one :class:`~repro.reliability.durable.Journal` intent, resolved
        by :meth:`recover` into the pre- or post-quarantine store.
        """
        if record not in self._segments:
            raise StoreError(
                f"segment {record.filename} is not in the live manifest"
            )
        evidence = self._quarantine_destination(record.filename)
        intent: Intent = {
            "version": 1,
            "record": record.to_json(),
            "reason": reason,
            "evidence": evidence.relative_to(self._root).as_posix(),
            "replacement": None if replacement is None else replacement[0].to_json(),
        }
        journal = Journal(self._io, self._root / _QUARANTINE_JOURNAL_NAME)
        try:
            journal.begin(json_bytes(intent, indent=2))
            if replacement is not None:
                path = self._root / replacement[0].filename
                path.parent.mkdir(parents=True, exist_ok=True)
                create(self._io, path, replacement[1])
            self._apply_quarantine(intent)
            self._write_manifest()
            journal.retire()
        except OSError:
            self._needs_recovery = True
            raise
        self._cache.pop(record.shard, None)
        self._blooms.pop(record.filename, None)
        if replacement is not None:
            self._blooms.pop(replacement[0].filename, None)
        self._metrics.count("store.segments_quarantined")

    def _apply_quarantine(self, intent: Intent) -> None:
        """Move the damaged file aside as evidence and splice the
        manifest state (its durable replay is idempotent)."""
        record = SegmentRecord.from_json(intent["record"])
        source = self._root / record.filename
        if source.exists():
            move(self._io, source, self._root / intent["evidence"])
        position = self._segments.index(record)
        if intent["replacement"] is not None:
            self._segments[position] = SegmentRecord.from_json(intent["replacement"])
        else:
            del self._segments[position]
        self._quarantined.append(
            QuarantinedSegment(record=record, reason=str(intent["reason"]))
        )

    def drop_quarantined(self, entries: Sequence[QuarantinedSegment]) -> None:
        """Remove quarantine manifest entries (retention pruning).

        Each dropped entry's sequence span moves into the ``reclaimed``
        ledger so global sequence coverage stays fully accounted for;
        one atomic manifest replace publishes the change.  Deleting the
        quarantined *files* is the caller's job (see
        :func:`repro.reliability.repair.prune_quarantine`).
        """
        self._check_serviceable()
        if not entries:
            return
        for entry in entries:
            if entry not in self._quarantined:
                raise StoreError(
                    f"segment {entry.record.filename} is not quarantined"
                )
        spans: List[Tuple[int, int]] = []
        for entry in entries:
            self._quarantined.remove(entry)
            spans.extend(entry.record.spans())
        self._reclaimed = coalesce_runs(self._reclaimed + spans)
        self._write_manifest()
        self._metrics.count("store.quarantine_pruned", len(entries))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def read_segment(self, record: SegmentRecord) -> List[Tuple[str, Fingerprint]]:
        """Strictly load one segment's ``(key, fingerprint)`` records
        through the IO seam (also compaction's merge input)."""
        data = self._io.read_bytes(self._root / record.filename)
        return load_entries(io.BytesIO(data))

    def segment_path(self, record: SegmentRecord) -> Path:
        """On-disk location of a segment file."""
        return self._root / record.filename

    def next_segment_filename(self, shard: int) -> str:
        """Store-relative filename the next segment of ``shard`` gets."""
        self._check_shard(shard)
        number = next_segment_id(self._manifest(), shard)
        return f"shard-{shard:03d}/segment-{number:06d}.pcfp"

    def _segment_bloom(self, record: SegmentRecord) -> Optional[BloomFilter]:
        """Cached bloom filter of a segment (``None`` when it has none)."""
        if record.filename not in self._blooms:
            self._blooms[record.filename] = load_segment_bloom(
                self._io, self._root / record.filename
            )
        return self._blooms[record.filename]

    def _find_existing(self, keys: Sequence[str]) -> set:
        """Subset of ``keys`` already present in the store.

        Bloom-accelerated: per shard, a warm replica answers from
        memory, and a cold shard only loads the segments whose filter
        admits at least one of the probed keys.  Tombstoned keys count
        as present — their sequence is still assigned, so the key
        cannot be re-ingested until compaction reclaims it.
        """
        clashes = {key for key in keys if key in self._tombstones}
        by_shard: Dict[int, List[str]] = {}
        for key in keys:
            by_shard.setdefault(self.shard_for_key(key), []).append(key)
        for shard, shard_keys in by_shard.items():
            cached = self._cache.get(shard)
            if cached is not None:
                clashes.update(
                    key for key in shard_keys if key in cached.sequences
                )
                continue
            for segment in self._segments:
                if segment.shard != shard:
                    continue
                bloom = self._segment_bloom(segment)
                if bloom is None:
                    candidates = shard_keys
                else:
                    candidates = [key for key in shard_keys if key in bloom]
                if not candidates:
                    self._metrics.count("store.bloom_segment_skips")
                    continue
                stored = {key for key, _fp in self.read_segment(segment)}
                clashes.update(key for key in candidates if key in stored)
        return clashes

    def load_shard(self, shard: int) -> LoadedShard:
        """Replica of one shard, reading its segments on first access.

        Entries are inserted in sequence order (= ingest order within
        the shard); the per-key global sequence map supports the
        cross-shard first-match merge.  Salvaged segments map their
        surviving records back to original offsets, so sequences are
        stable across repair.  Replicas are cached; cache hits and cold
        loads are counted in the metrics.
        """
        self._check_serviceable()
        self._check_shard(shard)
        cached = self._cache.get(shard)
        if cached is not None:
            self._metrics.count("store.shard_cache_hits")
            return cached
        self._metrics.count("store.shard_loads")
        with self._metrics.time("store.shard_load"), obs_span(
            "store.shard_load", shard=shard
        ):
            entries: List[Tuple[str, Fingerprint]] = []
            sequences: Dict[str, int] = {}
            shard_segments = sorted(
                (s for s in self._segments if s.shard == shard),
                key=lambda record: record.start_sequence,
            )
            for segment in shard_segments:
                segment_entries = self.read_segment(segment)
                if len(segment_entries) != segment.count:
                    raise StoreError(
                        f"segment {segment.filename} holds {len(segment_entries)} "
                        f"records, manifest says {segment.count}"
                    )
                for sequence, (key, fingerprint) in zip(
                    segment.sequences(), segment_entries
                ):
                    if key in self._tombstones:
                        # Deleted but not yet compacted away: the replica
                        # must answer as if the record were gone.
                        continue
                    entries.append((key, fingerprint))
                    sequences[key] = sequence
            database = FingerprintDatabase(entries)
        replica = LoadedShard(database=database, sequences=sequences)
        self._cache[shard] = replica
        return replica

    def loaded_shards(self) -> List[int]:
        """Shard ids currently resident in the cache."""
        return sorted(self._cache)

    def evict(self, shard: Optional[int] = None) -> None:
        """Drop one shard replica (or all of them) from the cache."""
        if shard is None:
            self._cache.clear()
        else:
            self._cache.pop(shard, None)

    def all_keys(self) -> List[str]:
        """Every stored key in global sequence order (loads all shards)."""
        rows: List[Tuple[int, str]] = []
        for shard in range(self._n_shards):
            replica = self.load_shard(shard)
            rows.extend(
                (sequence, key) for key, sequence in replica.sequences.items()
            )
        rows.sort()
        return [key for _sequence, key in rows]


@dataclass(frozen=True)
class StoreJournal:
    """One write-ahead journal of the store (DESIGN.md §8).

    ``explains`` returns ``(retired, added)``: the segment files a
    pending intent's commit moves or deletes out of the manifest, and
    the ones it creates.  ``verify-store`` reports them as recoverable,
    a missing manifest entry only when retired: ``recover()`` never
    recreates an added file.
    """

    filename: str
    label: str
    resolve: Callable[
        [ShardedFingerprintStore, Journal, RecoveryReport], Optional[bool]
    ]
    explains: Callable[[Intent], Tuple[List[str], List[str]]]


def _filenames(*records: Optional[Dict[str, object]]) -> List[str]:
    """Filenames of the manifest records an intent names."""
    return [str(record["filename"]) for record in records if record is not None]


#: The store's journals, in the order :meth:`ShardedFingerprintStore.recover`
#: resolves them.
STORE_JOURNALS = (
    StoreJournal(
        _COMPACTION_JOURNAL_NAME,
        "compaction",
        ShardedFingerprintStore._recover_compaction,
        lambda intent: (
            [str(name) for name in intent.get("sources", [])],
            _filenames(intent.get("output")),
        ),
    ),
    StoreJournal(
        _QUARANTINE_JOURNAL_NAME,
        "quarantine",
        ShardedFingerprintStore._recover_quarantine,
        lambda intent: (
            _filenames(intent.get("record")),
            _filenames(intent.get("replacement")),
        ),
    ),
)


def unreferenced_files(root: Path, segments: Iterable[SegmentRecord]) -> List[str]:
    """Segment files, then segment temporaries, under ``root`` that no
    manifest entry in ``segments`` names (store-relative, sorted)."""
    referenced = {record.filename for record in segments}
    # One scandir pass per directory: every store open runs this, and
    # it is several times cheaper than a recursive glob.
    names: List[str] = []
    with os.scandir(root) as shards:
        for shard in shards:
            if shard.name.startswith("shard-") and shard.is_dir():
                with os.scandir(shard.path) as entries:
                    names += [
                        f"{shard.name}/{entry.name}"
                        for entry in entries
                        if entry.name.endswith((".pcfp", ".pcfp.tmp"))
                    ]
    names.sort(key=lambda name: (name.endswith(".tmp"), name))
    return [name for name in names if name not in referenced]


def next_segment_id(manifest: Manifest, shard: int) -> int:
    """Next unused segment number for a shard.

    Derived from filenames across live *and* quarantined segments,
    so a quarantine never frees a number for reuse (reuse would let
    a new segment collide with a file sitting in quarantine's
    history).
    """
    used = [-1]
    for record in manifest.segments + [q.record for q in manifest.quarantined]:
        if record.shard != shard:
            continue
        match = _SEGMENT_ID_PATTERN.search(record.filename)
        if match:
            used.append(int(match.group(1)))
    return max(used) + 1


def unpublished_outputs(root: Path, manifest: Manifest) -> List[str]:
    """Segment files, then temporaries, under ``root`` that a commit
    wrote but never published (store-relative, sorted).

    One is a file no manifest entry names whose number is at or above
    its shard's next segment id: what an ingest or a merge writes
    before its manifest publish.  :meth:`ShardedFingerprintStore.recover`
    sweeps these, and ``verify-store`` reports them as recoverable; a
    lower-numbered stray is an orphan no commit explains.
    """
    outputs: List[str] = []
    for relative in unreferenced_files(root, manifest.segments):
        match = _SEGMENT_FILE_PATTERN.match(relative)
        if match and int(match[2]) >= next_segment_id(manifest, int(match[1])):
            outputs.append(relative)
    return outputs


def _compaction_output(intent: Intent) -> Optional[SegmentRecord]:
    """The merge output a compaction journal names (None: all dropped)."""
    output = intent["output"]
    return SegmentRecord.from_json(output) if output is not None else None


def coalesce_runs(runs: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort ``(start, count)`` sequence runs and merge the contiguous ones.

    Zero-length runs are dropped; overlapping and adjacent runs fuse,
    so the result is the canonical minimal representation — the
    manifest's ``reclaimed`` ledger and compacted segments' ``runs``
    both go through here.
    """
    ordered = sorted(
        (int(start), int(count)) for start, count in runs if int(count) > 0
    )
    merged: List[Tuple[int, int]] = []
    for start, count in ordered:
        if merged and start <= merged[-1][0] + merged[-1][1]:
            last_start, last_count = merged[-1]
            merged[-1] = (
                last_start,
                max(last_count, start + count - last_start),
            )
        else:
            merged.append((start, count))
    return merged


def _balanced_boundaries(keys: Sequence[str], n_shards: int) -> List[str]:
    """Split keys partitioning ``keys`` into ``n_shards`` even ranges.

    The boundaries are drawn from the sorted key sample itself (the
    classic range-sharding bootstrap); each boundary is the last key of
    its shard's range (see :meth:`ShardedFingerprintStore.shard_for_key`).
    """
    ordered = sorted(set(keys))
    if len(ordered) < n_shards:
        # Too few distinct keys to split evenly; duplicate the tail so
        # later keys still route deterministically.
        return ordered[:-1] if len(ordered) > 1 else []
    boundaries = []
    for index in range(1, n_shards):
        position = index * len(ordered) // n_shards - 1
        boundaries.append(ordered[max(position, 0)])
    return boundaries
