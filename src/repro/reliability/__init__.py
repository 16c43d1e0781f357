"""Crash-safety, fault injection and self-healing for the service.

The paper is about storage that silently decays bits (§3, §6); the
attacker's own fingerprint store — years of accumulated interceptions
per §4 — lives on exactly that kind of storage.  This subpackage gives
the store a real failure model and the tools to survive it:

* :mod:`repro.reliability.faults` — the :class:`StorageIO` seam every
  durable store operation goes through, plus :class:`FaultyIO` /
  :class:`FaultPlan`, a deterministic chaos layer (crash at operation
  N, torn writes, seeded bit flips, transient error windows) the tests
  and the chaos benchmark use to enumerate crash points;
* :mod:`repro.reliability.durable` — ``publish`` and ``Journal``, the
  one durable-commit primitive every committed file goes through
  (DESIGN.md §8, "Durable commits");
* :mod:`repro.reliability.repair` — :func:`verify_store`, a strictly
  read-only ``fsck`` for a store directory, and :func:`repair_store`,
  the self-healing pass that salvages readable records out of corrupt
  segments and quarantines the rest while preserving global sequence
  numbers (and therefore Algorithm 2 decisions);
* :mod:`repro.reliability.bloom` — per-segment bloom filters persisted
  as checksummed segment trailers, so point lookups skip cold segments
  instead of reading every body;
* :mod:`repro.reliability.compaction` — the LSM maintenance half:
  :class:`CompactionPolicy` / :class:`Compactor` /
  :class:`BackgroundCompactor` merge small and tombstone-carrying
  segments through the store's journalled
  ``commit_compaction`` protocol, so a crash mid-merge resolves to
  exactly the pre- or post-merge store;
* :mod:`repro.reliability.breaker` — :class:`CircuitBreaker` /
  :class:`BreakerBoard`, the per-shard closed → open → half-open state
  machine the batch engine and the streaming pipeline layer over the
  retry/timeout path so a persistently failing shard is skipped
  cheaply instead of re-paying the retry budget forever.

Fault hooks for killing *workers* (not just storage) live next to the
storage chaos layer: :class:`WorkerCrashPlan` /
:class:`WorkerFaultInjector` deterministically kill identification
worker invocations so the supervisor's restart-and-escalate logic is
testable crash by crash.

Degraded-mode serving (retry with backoff, per-batch deadlines,
``degraded`` result tagging) lives in :mod:`repro.service.fanout`.  CLI
front ends: ``repro verify-store`` and ``repro repair``.
"""

from repro.reliability.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.reliability.bloom import BloomFilter, build_filter
from repro.reliability.faults import (
    FaultPlan,
    FaultyIO,
    InjectedFault,
    ProcessKillPlan,
    StorageIO,
    WorkerCrashPlan,
    WorkerFaultInjector,
)

_REPAIR_EXPORTS = (
    "PruneReport",
    "RepairReport",
    "SegmentVerification",
    "StoreVerification",
    "prune_quarantine",
    "repair_store",
    "verify_store",
)

_COMPACTION_EXPORTS = (
    "BackgroundCompactor",
    "CompactionPlan",
    "CompactionPolicy",
    "CompactionReport",
    "Compactor",
    "MergePlan",
    "MergeReport",
    "plan_compaction",
    "stream_load_probe",
)


def __getattr__(name: str):
    # repro.service.store imports repro.reliability.faults and .bloom,
    # and both repro.reliability.repair and .compaction import the
    # store back; those surfaces are therefore re-exported lazily
    # (PEP 562) so that importing this package from inside the store
    # does not cycle.
    if name in _REPAIR_EXPORTS:
        from repro.reliability import repair

        return getattr(repair, name)
    if name in _COMPACTION_EXPORTS:
        from repro.reliability import compaction

        return getattr(compaction, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BackgroundCompactor",
    "BloomFilter",
    "BreakerBoard",
    "CircuitBreaker",
    "CompactionPlan",
    "CompactionPolicy",
    "CompactionReport",
    "Compactor",
    "FaultPlan",
    "FaultyIO",
    "InjectedFault",
    "MergePlan",
    "MergeReport",
    "ProcessKillPlan",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "StorageIO",
    "WorkerCrashPlan",
    "WorkerFaultInjector",
    "PruneReport",
    "RepairReport",
    "SegmentVerification",
    "StoreVerification",
    "build_filter",
    "plan_compaction",
    "prune_quarantine",
    "repair_store",
    "stream_load_probe",
    "verify_store",
]
