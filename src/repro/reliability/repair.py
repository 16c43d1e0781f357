"""Offline integrity verification and self-healing for the store.

Two entry points, mirroring ``fsck``'s split personality:

* :func:`verify_store` — **strictly read-only** inspection of a store
  directory: manifest well-formedness, pending journals, unpublished
  outputs, per-segment checksum scans (corruption localized to
  records), global sequence coverage, missing and orphaned files.  It
  never constructs a :class:`~repro.service.store.ShardedFingerprintStore`,
  because opening one auto-recovers a crashed commit and verification
  must not mutate what it is judging.
* :func:`repair_store` — the mutating counterpart: recover crashed
  commits (journals rolled forward or back, unpublished outputs
  swept), salvage every readable record out of corrupt
  segments into fresh checksummed replacements, and quarantine the
  damaged originals.  Salvage preserves global sequence numbers (the
  manifest records which original offsets were dropped, or the exact
  sequence ``runs`` for compacted segments), so Algorithm 2
  first-match priority is unchanged for every surviving fingerprint —
  the property test asserts repair is decision-for-decision invisible
  on an uncorrupted store.

Verification reads the store's own model: the manifest through
:func:`~repro.service.store.load_manifest`, the journals through
:data:`~repro.service.store.STORE_JOURNALS`, and a crashed ingest's
leftovers through :func:`~repro.service.store.unpublished_outputs`.
A pending journal makes the store not-ok, but the files its intent
names — a missing or unreferenced segment, a stale ``.pcfp.tmp`` —
and the unpublished outputs are *recoverable* findings pointing at
``recover()`` rather than data loss.
:func:`prune_quarantine` adds retention:
quarantined segment files older than a cutoff are deleted and their
manifest entries folded into the ``reclaimed`` sequence ledger.

Both surface through the CLI as ``repro verify-store`` / ``repro
repair`` (pruning via ``repro repair --prune-quarantine``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.serialize import (
    CorruptRecord,
    SerializationError,
    dump_database,
    scan_database,
)
from repro.obs.clock import wall_time
from repro.obs.trace import span as obs_span
from repro.reliability.bloom import append_trailer, build_filter
from repro.reliability.durable import Journal
from repro.reliability.faults import StorageIO
from repro.service.store import (
    STORE_JOURNALS,
    QuarantinedSegment,
    RecoveryReport,
    SegmentRecord,
    ShardedFingerprintStore,
    StoreError,
    coalesce_runs,
    load_manifest,
    unpublished_outputs,
    unreferenced_files,
)

_SECONDS_PER_DAY = 86400.0


@dataclass
class SegmentVerification:
    """Integrity verdict for one live segment file."""

    filename: str
    shard: int
    declared_count: int
    readable_count: int = 0
    exists: bool = True
    corrupt: List[CorruptRecord] = field(default_factory=list)
    error: Optional[str] = None
    #: Label of the pending journal whose commit retires this missing
    #: file (a merge source, a segment being quarantined).
    pending_journal: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the file is present and every record read clean."""
        return (
            self.exists
            and self.error is None
            and not self.corrupt
            and self.readable_count == self.declared_count
        )

    @property
    def recoverable(self) -> bool:
        """A finding a plain ``recover()`` resolves without data loss."""
        return self.pending_journal is not None

    def describe(self) -> str:
        """One-line human rendering for the CLI."""
        if self.ok:
            return f"{self.filename}: ok ({self.readable_count} records)"
        if not self.exists:
            if self.recoverable:
                return (
                    f"{self.filename}: MISSING (source of a pending "
                    f"{self.pending_journal}; recover() — reopen the store "
                    "or run 'repro repair' — will resolve it without loss)"
                )
            return f"{self.filename}: MISSING"
        if self.error is not None:
            return f"{self.filename}: UNREADABLE ({self.error})"
        where = ", ".join(
            f"record {entry.record_index} @ byte {entry.byte_offset}"
            for entry in self.corrupt[:3]
        )
        more = "..." if len(self.corrupt) > 3 else ""
        return (
            f"{self.filename}: CORRUPT "
            f"({len(self.corrupt)} bad of {self.declared_count}: {where}{more})"
        )


@dataclass
class StoreVerification:
    """Full integrity verdict for a store directory."""

    root: Path
    manifest_ok: bool = False
    manifest_error: Optional[str] = None
    #: Labels of the store journals with a pending intent.
    pending_journals: List[str] = field(default_factory=list)
    segments: List[SegmentVerification] = field(default_factory=list)
    orphan_files: List[str] = field(default_factory=list)
    #: Files a commit wrote but never published (see
    #: :func:`~repro.service.store.unpublished_outputs`).
    unpublished_files: List[str] = field(default_factory=list)
    #: Unreferenced files a pending intent names: filename -> (journal
    #: label, whether the commit adds the file).  ``recover()``
    #: publishes an added file if it verifies and sweeps the rest.
    pending_files: Dict[str, Tuple[str, bool]] = field(default_factory=dict)
    sequence_gaps: List[Tuple[int, int]] = field(default_factory=list)
    degraded_shards: List[int] = field(default_factory=list)
    total_records: int = 0
    corrupt_records: int = 0

    def findings(self) -> List[Tuple[str, bool]]:
        """Every finding, one line each, with whether ``recover()``
        resolves it without loss."""
        if not self.manifest_ok:
            return [(f"manifest: {self.manifest_error}", False)]
        found = [
            (
                f"pending {label} journal (crashed {label}); recoverable "
                "— reopen the store or run 'repro repair'",
                True,
            )
            for label in self.pending_journals
        ]
        found += [(s.describe(), s.recoverable) for s in self.segments if not s.ok]
        found += [
            (f"orphan segment file not in manifest: {name}", False)
            for name in self.orphan_files
        ]
        found += [
            (
                f"unpublished segment file {name} (no manifest entry, "
                "numbered at or above its shard's next segment id); "
                "recover() will sweep it",
                True,
            )
            for name in self.unpublished_files
        ]
        found += [
            (
                f"unpublished {label} output {name}; recover() will publish "
                "it if it verifies, else sweep it"
                if added
                else f"undeleted {label} source {name}; recover() will sweep it",
                True,
            )
            for name, (label, added) in sorted(self.pending_files.items())
        ]
        found += [
            (f"sequence range [{start}, {stop}) unaccounted for", False)
            for start, stop in self.sequence_gaps
        ]
        return found

    def problems(self) -> List[str]:
        """Every finding, one line each, for the CLI and reports."""
        return [line for line, _recoverable in self.findings()]

    @property
    def ok(self) -> bool:
        """Consistent and fully readable (degraded-but-consistent is ok)."""
        return not self.findings()

    @property
    def recoverable(self) -> bool:
        """Not ok, but every finding is one ``recover()`` resolves."""
        findings = self.findings()
        return bool(findings) and all(fixed for _line, fixed in findings)

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable summary (CLI ``--json`` and benchmarks)."""
        return {
            "root": str(self.root),
            "ok": self.ok,
            "recoverable": self.recoverable,
            "manifest_ok": self.manifest_ok,
            "pending_journals": self.pending_journals,
            "total_records": self.total_records,
            "corrupt_records": self.corrupt_records,
            "degraded_shards": self.degraded_shards,
            "orphan_files": self.orphan_files,
            "unpublished_files": self.unpublished_files,
            "pending_files": sorted(self.pending_files),
            "sequence_gaps": [list(gap) for gap in self.sequence_gaps],
            "segments": [
                {
                    "filename": segment.filename,
                    "shard": segment.shard,
                    "ok": segment.ok,
                    "recoverable": segment.recoverable,
                    "declared_count": segment.declared_count,
                    "readable_count": segment.readable_count,
                    "corrupt_records": [
                        {
                            "record_index": entry.record_index,
                            "byte_offset": entry.byte_offset,
                            "reason": entry.reason,
                        }
                        for entry in segment.corrupt
                    ],
                    "error": segment.error,
                }
                for segment in self.segments
            ],
            "problems": self.problems(),
        }


def verify_store(root: Union[str, Path]) -> StoreVerification:
    """Read-only integrity check of a store directory.

    Safe to run against a live or a crashed store: nothing on disk is
    touched, so a crashed commit shows up in ``pending_journals``
    rather than being silently resolved.
    """
    with obs_span("reliability.verify", root=str(root)):
        return _verify_store_impl(Path(root))


def _verify_store_impl(root: Path) -> StoreVerification:
    verification = StoreVerification(root=root)
    try:
        manifest = load_manifest(root)
    except StoreError as error:
        verification.manifest_error = str(error)
        return verification
    verification.manifest_ok = True

    # Files a readable pending intent names are what recover() resolves,
    # not data loss; a torn intent names nothing.  A missing manifest
    # entry is resolved only when the commit retires it.
    retired: Dict[str, str] = {}
    added: Dict[str, str] = {}
    for row in STORE_JOURNALS:
        journal = Journal(StorageIO(), root / row.filename)
        if journal.pending():
            verification.pending_journals.append(row.label)
            old, new = row.explains(journal.read() or {})
            retired.update(dict.fromkeys(old, row.label))
            added.update(dict.fromkeys(new, row.label))
    verification.pending_journals.sort()

    for record in manifest.segments:
        entry = SegmentVerification(
            filename=record.filename,
            shard=record.shard,
            declared_count=record.count,
        )
        verification.segments.append(entry)
        path = root / record.filename
        if not path.exists():
            entry.exists = False
            entry.pending_journal = retired.get(record.filename)
            continue
        try:
            scan = scan_database(path)
        except (OSError, SerializationError) as error:
            entry.error = str(error)
            continue
        entry.readable_count = len(scan.database)
        entry.corrupt = list(scan.corrupt)
        if not scan.footer_ok and not entry.corrupt:
            entry.error = "footer digest mismatch"
        verification.total_records += record.count
        verification.corrupt_records += len(scan.corrupt)

    # Global sequence coverage.  Two invariants: live segments must not
    # overlap each other (double assignment), and live + quarantined +
    # reclaimed spans together must cover [0, next_sequence) without a
    # hole (a hole means fingerprints vanished without a quarantine or
    # reclamation record).  A quarantined or reclaimed span overlapping
    # a live one is expected — that is what a salvage replacement or a
    # compacted partial drop looks like.  Compacted segments account
    # for their exact sequence ``runs``.
    def intervals(records: Iterable[SegmentRecord]) -> List[Tuple[int, int]]:
        return [(start, start + n) for r in records for start, n in r.spans()]

    live_spans = sorted(intervals(manifest.segments))
    cursor = 0
    for start, stop in live_spans:
        if start < cursor:
            verification.sequence_gaps.append((start, cursor))
        cursor = max(cursor, stop)
    all_spans = sorted(
        live_spans
        + intervals(entry.record for entry in manifest.quarantined)
        + [(start, start + count) for start, count in manifest.reclaimed]
    )
    cursor = 0
    for start, stop in all_spans:
        if start > cursor:
            verification.sequence_gaps.append((cursor, start))
        cursor = max(cursor, stop)
    if cursor < manifest.next_sequence:
        verification.sequence_gaps.append((cursor, manifest.next_sequence))
    elif cursor > manifest.next_sequence:
        verification.sequence_gaps.append((manifest.next_sequence, cursor))

    # Unreferenced segment files and temporaries: recoverable when a
    # pending intent names them (a temporary by its final name, and
    # swept whatever the commit does with that name) or when no commit
    # ever published them.
    unpublished = set(unpublished_outputs(root, manifest))
    for relative in unreferenced_files(root, manifest.segments):
        if relative in added:
            verification.pending_files[relative] = (added[relative], True)
            continue
        name = relative.removesuffix(".tmp")
        label = retired.get(name, added.get(name))
        if label is not None:
            verification.pending_files[relative] = (label, False)
        elif relative in unpublished:
            verification.unpublished_files.append(relative)
        else:
            verification.orphan_files.append(relative)

    shards = {entry.record.shard for entry in manifest.quarantined}
    shards.update(record.shard for record in manifest.segments if record.omitted)
    verification.degraded_shards = sorted(shards)
    return verification


@dataclass
class RepairReport:
    """What :func:`repair_store` changed."""

    recovery: RecoveryReport = field(default_factory=RecoveryReport)
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    records_salvaged: int = 0
    records_lost: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing needed fixing."""
        return (
            not self.recovery.journal_actions()
            and not self.recovery.orphans_removed
            and not self.quarantined
        )

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable summary."""
        return {
            "clean": self.clean,
            "compaction_action": self.recovery.compaction_action,
            "quarantine_action": self.recovery.quarantine_action,
            "orphans_removed": list(self.recovery.orphans_removed),
            "quarantined": [
                {"filename": filename, "reason": reason}
                for filename, reason in self.quarantined
            ],
            "records_salvaged": self.records_salvaged,
            "records_lost": self.records_lost,
        }


def _salvaged_filename(filename: str) -> str:
    stem = filename[: -len(".pcfp")] if filename.endswith(".pcfp") else filename
    return f"{stem}-salvaged.pcfp"


def repair_store(store: ShardedFingerprintStore) -> RepairReport:
    """Self-heal a store: recover crashed commits, quarantine corruption.

    Idempotent, and a strict no-op on a healthy store: segments that
    verify clean are left byte-identical and the manifest is not
    rewritten.  Damaged segments have every record that still passes
    its checksum salvaged into a fresh v2 segment (original offsets
    recorded so sequence numbers survive); records that do not are
    counted lost, and the damaged file is moved to ``quarantine/``.
    """
    with obs_span("reliability.repair", root=str(store.root)):
        return _repair_store_impl(store)


def _repair_store_impl(store: ShardedFingerprintStore) -> RepairReport:
    recovery = store.recover()
    # If this pass found nothing but opening the store had already
    # resolved a crashed commit, report that recovery instead of "none".
    prior = store.take_recovery_report()
    report = RepairReport(recovery=prior if prior is not None else recovery)
    metrics = store.metrics
    for record in store.segments:
        path = store.root / record.filename
        if not path.exists():
            store.quarantine_segment(record, "segment file missing")
            report.quarantined.append((record.filename, "segment file missing"))
            report.records_lost += record.count
            metrics.count("reliability.records_lost", record.count)
            continue
        try:
            scan = scan_database(path)
        except (OSError, SerializationError) as error:
            # Header-level damage: nothing salvageable.
            reason = f"unreadable segment: {error}"
            store.quarantine_segment(record, reason)
            report.quarantined.append((record.filename, reason))
            report.records_lost += record.count
            metrics.count("reliability.records_lost", record.count)
            continue
        readable = len(scan.database)
        damaged = (
            bool(scan.corrupt)
            or not scan.footer_ok
            or readable != record.count
        )
        if not damaged:
            continue
        metrics.count("reliability.corrupt_records", len(scan.corrupt))
        # Map surviving file positions back to *original* ingest
        # offsets (the file may itself be a prior salvage).
        original_offsets = record.offsets()
        survivors = [original_offsets[j] for j in scan.offsets if j < len(original_offsets)]
        reason = (
            f"{len(scan.corrupt)} corrupt of {record.count} records"
            if scan.corrupt
            else "segment failed verification"
        )
        if not survivors:
            store.quarantine_segment(record, reason)
            report.quarantined.append((record.filename, reason))
            report.records_lost += record.count
            metrics.count("reliability.records_lost", record.count)
            continue
        if record.runs:
            # A compacted segment: its sequences are explicit, so the
            # salvage replacement records the survivors' runs directly
            # (offset arithmetic does not apply).
            all_sequences = record.sequences()
            surviving_sequences = [
                all_sequences[j] for j in scan.offsets if j < len(all_sequences)
            ]
            replacement = SegmentRecord(
                shard=record.shard,
                filename=_salvaged_filename(record.filename),
                count=len(surviving_sequences),
                start_sequence=surviving_sequences[0],
                runs=tuple(
                    coalesce_runs(
                        (sequence, 1) for sequence in surviving_sequences
                    )
                ),
            )
        else:
            omitted = tuple(
                sorted(set(range(record.original_count)) - set(survivors))
            )
            replacement = SegmentRecord(
                shard=record.shard,
                filename=_salvaged_filename(record.filename),
                count=len(survivors),
                start_sequence=record.start_sequence,
                omitted=omitted,
            )
        buffer = io.BytesIO()
        dump_database(scan.database, buffer)
        # Salvage rebuilds the bloom trailer too — the damaged file's
        # filter (if any) described records that may no longer exist.
        data = append_trailer(
            buffer.getvalue(), build_filter(scan.database.keys())
        )
        store.quarantine_segment(record, reason, replacement=(replacement, data))
        report.quarantined.append((record.filename, reason))
        report.records_salvaged += len(survivors)
        report.records_lost += record.count - len(survivors)
        metrics.count("reliability.records_salvaged", len(survivors))
        lost = record.count - len(survivors)
        if lost:
            metrics.count("reliability.records_lost", lost)
    return report


# ----------------------------------------------------------------------
# Quarantine retention pruning
# ----------------------------------------------------------------------


@dataclass
class PruneReport:
    """What :func:`prune_quarantine` deleted (or would delete)."""

    older_than_days: float
    dry_run: bool
    examined: int = 0
    pruned_entries: int = 0
    pruned_files: List[str] = field(default_factory=list)
    kept_files: List[str] = field(default_factory=list)
    bytes_freed: int = 0

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable summary."""
        return {
            "older_than_days": self.older_than_days,
            "dry_run": self.dry_run,
            "examined": self.examined,
            "pruned_entries": self.pruned_entries,
            "pruned_files": list(self.pruned_files),
            "kept_files": list(self.kept_files),
            "bytes_freed": self.bytes_freed,
        }


def _quarantine_base(filename: str) -> str:
    """Quarantine-directory base name of a segment filename."""
    return filename.replace("/", "__")


def prune_quarantine(
    store: ShardedFingerprintStore,
    older_than_days: float,
    dry_run: bool = False,
) -> PruneReport:
    """Delete quarantined segment files older than a retention cutoff.

    Quarantined files are evidence, not garbage — but evidence has a
    shelf life, and without retention the quarantine directory grows
    forever.  A quarantine entry is pruned only when *every* file
    backing it (the original plus any ``.N``-suffixed siblings) has
    sat in quarantine longer than ``older_than_days``; the entry's
    sequence span then moves into the manifest's ``reclaimed`` ledger
    so ``verify-store`` coverage stays whole.  ``dry_run`` computes
    the same report without touching disk or manifest.
    """
    if older_than_days < 0:
        raise ValueError(
            f"older_than_days must be >= 0, got {older_than_days}"
        )
    with obs_span(
        "reliability.prune_quarantine",
        root=str(store.root),
        older_than_days=older_than_days,
        dry_run=dry_run,
    ):
        return _prune_quarantine_impl(store, older_than_days, dry_run)


def _prune_quarantine_impl(
    store: ShardedFingerprintStore,
    older_than_days: float,
    dry_run: bool,
) -> PruneReport:
    report = PruneReport(older_than_days=older_than_days, dry_run=dry_run)
    entries = store.quarantined
    report.examined = len(entries)
    if not entries:
        return report
    cutoff = wall_time() - older_than_days * _SECONDS_PER_DAY
    quarantine_dir = store.quarantine_dir

    def files_for(base: str) -> List[Path]:
        if not quarantine_dir.exists():
            return []
        return sorted(
            path
            for path in quarantine_dir.iterdir()
            if path.name == base or path.name.startswith(base + ".")
        )

    prunable: List[QuarantinedSegment] = []
    prunable_files: List[Path] = []
    seen_files: set = set()
    for entry in entries:
        backing = files_for(_quarantine_base(entry.record.filename))
        fresh = [
            path for path in backing if path.stat().st_mtime > cutoff
        ]
        if fresh:
            report.kept_files.extend(
                path.relative_to(store.root).as_posix() for path in fresh
            )
            continue
        prunable.append(entry)
        for path in backing:
            if path not in seen_files:
                seen_files.add(path)
                prunable_files.append(path)
    for path in prunable_files:
        report.pruned_files.append(path.relative_to(store.root).as_posix())
        report.bytes_freed += path.stat().st_size
    report.pruned_entries = len(prunable)
    if dry_run or not prunable:
        return report
    for path in prunable_files:
        store.storage_io.remove(path)
    store.drop_quarantined(prunable)
    return report
