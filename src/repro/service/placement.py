"""Consistent-hash placement of fingerprint partitions onto workers.

The cluster (`repro.service.cluster`) splits the key space into a
fixed number of *partitions*; each partition is assigned an ordered
list of R distinct *workers* (primary first), and every worker holds a
full replica store of every partition assigned to it.  Two properties
make the scheme operable at fleet scale:

* **stable hashing** — a key's partition is a pure function of the key
  (SHA-256 based, never Python's per-process-randomized ``hash()``),
  so any front-end can route without coordination;
* **consistent placement** — workers are placed on a token ring
  (``tokens_per_worker`` virtual nodes each) and a partition's replica
  list is the first R distinct workers found walking the ring from the
  partition's point.  Removing a worker only changes the replica lists
  that contained it; every other partition keeps byte-identical
  assignments, which keeps rebalancing traffic proportional to the
  lost capacity instead of the fleet size.

Placement changes are durable state: :class:`PlacementStore` commits a
new :class:`PlacementMap` through a
:class:`~repro.reliability.durable.Journal`, like compaction
(DESIGN.md §8, "Durable commits").
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.reliability.durable import Intent, Journal, discard, json_bytes, publish
from repro.reliability.faults import StorageIO

#: Current placement payload schema.
PLACEMENT_SCHEMA_VERSION = 1

#: File names inside a cluster root directory.
PLACEMENT_NAME = "placement.json"
PLACEMENT_TMP_NAME = "placement.json.tmp"
PLACEMENT_JOURNAL_NAME = "placement-journal.json"

#: Virtual nodes per worker on the token ring; enough to smooth the
#: per-worker partition counts without making ring walks expensive.
DEFAULT_TOKENS_PER_WORKER = 64

_RING_BITS = 64
_RING_SIZE = 1 << _RING_BITS


class PlacementError(ValueError):
    """An invalid placement map or an impossible placement request."""


def stable_key_hash(key: str) -> int:
    """A 64-bit stable hash of ``key``.

    SHA-256 truncated to 64 bits: identical across processes, Python
    versions and ``PYTHONHASHSEED`` values — routing must never depend
    on interpreter-randomized ``hash()``.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _ring_point(label: str) -> int:
    """Position of ``label`` on the token ring."""
    return stable_key_hash(label) % _RING_SIZE


@dataclass(frozen=True)
class PlacementMap:
    """An immutable assignment of partitions to replica worker lists.

    ``assignments[p]`` is the ordered replica list for partition ``p``
    (primary first); every list holds ``replication`` distinct worker
    ids drawn from ``workers``.
    """

    version: int
    n_partitions: int
    replication: int
    workers: Tuple[str, ...]
    assignments: Tuple[Tuple[str, ...], ...]
    tokens_per_worker: int = DEFAULT_TOKENS_PER_WORKER

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise PlacementError(
                f"n_partitions must be >= 1, got {self.n_partitions}"
            )
        if self.replication < 1:
            raise PlacementError(
                f"replication must be >= 1, got {self.replication}"
            )
        if len(set(self.workers)) != len(self.workers):
            raise PlacementError("worker ids must be unique")
        if self.replication > len(self.workers):
            raise PlacementError(
                f"replication {self.replication} exceeds "
                f"{len(self.workers)} worker(s)"
            )
        if len(self.assignments) != self.n_partitions:
            raise PlacementError(
                f"expected {self.n_partitions} assignments, "
                f"got {len(self.assignments)}"
            )
        known = set(self.workers)
        for partition, replicas in enumerate(self.assignments):
            if len(replicas) != self.replication:
                raise PlacementError(
                    f"partition {partition} has {len(replicas)} replica(s), "
                    f"expected {self.replication}"
                )
            if len(set(replicas)) != len(replicas):
                raise PlacementError(
                    f"partition {partition} repeats a worker: {replicas}"
                )
            unknown = set(replicas) - known
            if unknown:
                raise PlacementError(
                    f"partition {partition} names unknown worker(s) "
                    f"{sorted(unknown)}"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        workers: Sequence[str],
        n_partitions: int,
        replication: int,
        version: int = 1,
        tokens_per_worker: int = DEFAULT_TOKENS_PER_WORKER,
    ) -> "PlacementMap":
        """Place ``n_partitions`` onto ``workers`` via the token ring."""
        workers = tuple(workers)
        if not workers:
            raise PlacementError("at least one worker is required")
        if replication > len(workers):
            raise PlacementError(
                f"replication {replication} exceeds {len(workers)} worker(s)"
            )
        ring: List[Tuple[int, str]] = sorted(
            (_ring_point(f"{worker}#{token}"), worker)
            for worker in workers
            for token in range(tokens_per_worker)
        )
        points = [point for point, _ in ring]
        assignments: List[Tuple[str, ...]] = []
        for partition in range(n_partitions):
            start = bisect.bisect_left(points, _ring_point(f"partition-{partition}"))
            replicas: List[str] = []
            for step in range(len(ring)):
                worker = ring[(start + step) % len(ring)][1]
                if worker not in replicas:
                    replicas.append(worker)
                    if len(replicas) == replication:
                        break
            assignments.append(tuple(replicas))
        return cls(
            version=version,
            n_partitions=n_partitions,
            replication=replication,
            workers=workers,
            assignments=tuple(assignments),
            tokens_per_worker=tokens_per_worker,
        )

    def rebalanced(
        self,
        remove: Iterable[str] = (),
        add: Iterable[str] = (),
    ) -> "PlacementMap":
        """A new placement (version + 1) without ``remove``, with ``add``.

        Rebuilds the ring over the surviving worker set; the
        consistent-hash property guarantees partitions whose replica
        list did not involve a removed/added worker keep identical
        assignments.
        """
        removed = set(remove)
        unknown = removed - set(self.workers)
        if unknown:
            raise PlacementError(f"cannot remove unknown worker(s) {sorted(unknown)}")
        survivors = [w for w in self.workers if w not in removed]
        for worker in add:
            if worker in survivors:
                raise PlacementError(f"worker {worker!r} already placed")
            survivors.append(worker)
        return PlacementMap.build(
            survivors,
            n_partitions=self.n_partitions,
            replication=self.replication,
            version=self.version + 1,
            tokens_per_worker=self.tokens_per_worker,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def partition_for_key(self, key: str) -> int:
        """The partition owning fingerprint ``key``."""
        return stable_key_hash(key) % self.n_partitions

    def replicas(self, partition: int) -> Tuple[str, ...]:
        """Ordered replica workers (primary first) for ``partition``."""
        return self.assignments[partition]

    def partitions_of(self, worker: str) -> List[int]:
        """Partitions that keep a replica on ``worker``."""
        return [
            partition
            for partition, replicas in enumerate(self.assignments)
            if worker in replicas
        ]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-friendly dict (canonical field order via sort_keys)."""
        return {
            "schema_version": PLACEMENT_SCHEMA_VERSION,
            "version": self.version,
            "n_partitions": self.n_partitions,
            "replication": self.replication,
            "tokens_per_worker": self.tokens_per_worker,
            "workers": list(self.workers),
            "assignments": [list(replicas) for replicas in self.assignments],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "PlacementMap":
        """Inverse of :meth:`to_payload` (validates via __post_init__)."""
        schema = payload.get("schema_version")
        if schema != PLACEMENT_SCHEMA_VERSION:
            raise PlacementError(
                f"unsupported placement schema_version {schema!r}"
            )
        return cls(
            version=int(payload["version"]),  # type: ignore[arg-type]
            n_partitions=int(payload["n_partitions"]),  # type: ignore[arg-type]
            replication=int(payload["replication"]),  # type: ignore[arg-type]
            tokens_per_worker=int(
                payload.get("tokens_per_worker", DEFAULT_TOKENS_PER_WORKER)
            ),  # type: ignore[arg-type]
            workers=tuple(payload["workers"]),  # type: ignore[arg-type]
            assignments=tuple(
                tuple(replicas)
                for replicas in payload["assignments"]  # type: ignore[union-attr]
            ),
        )


def canonical_json_bytes(payload: Dict[str, object]) -> bytes:
    """Deterministic JSON shared by commit and recovery, so a
    roll-forward reproduces the commit's *exact* bytes."""
    return json_bytes(payload, sort_keys=True, separators=(",", ":"))


class PlacementStore:
    """Durable, journaled storage of the cluster's placement map.

    A commit is seven :class:`StorageIO` operations: the journal
    (holding the full new payload) is begun (2), ``placement.json`` is
    published (3), the journal is retired (2).  A fault before the
    journal is durably named rolls back to the pre-commit bytes; any
    later fault rolls forward to the exact post-commit bytes.
    Recovery is idempotent: with no journal it touches nothing.
    """

    def __init__(
        self,
        root: Path,
        storage_io: Optional[StorageIO] = None,
    ) -> None:
        self._root = Path(root)
        self._io = storage_io if storage_io is not None else StorageIO()
        self._journal = Journal(self._io, self._root / PLACEMENT_JOURNAL_NAME)

    @property
    def root(self) -> Path:
        """The cluster root directory this store lives in."""
        return self._root

    @property
    def placement_path(self) -> Path:
        """Path of the committed placement map."""
        return self._root / PLACEMENT_NAME

    def exists(self) -> bool:
        """Whether a committed placement map is on disk."""
        return self.placement_path.exists()

    def journal_pending(self) -> bool:
        """Whether an unretired commit journal is on disk."""
        return self._journal.pending()

    def load(self) -> PlacementMap:
        """Read and validate the committed placement map."""
        raw = self._io.read_bytes(self.placement_path)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise PlacementError(
                f"placement map at {self.placement_path} is unreadable: {error}"
            ) from error
        return PlacementMap.from_payload(payload)

    def initialize(self, placement: PlacementMap) -> None:
        """First commit of a brand-new cluster (same journaled path)."""
        self.commit(placement)

    def commit(self, placement: PlacementMap) -> None:
        """Durably replace the placement map with ``placement``."""
        payload = placement.to_payload()
        self._journal.begin(
            canonical_json_bytes(
                {
                    "schema_version": PLACEMENT_SCHEMA_VERSION,
                    "kind": "placement-commit",
                    "version": placement.version,
                    "placement": payload,
                }
            )
        )
        publish(self._io, self.placement_path, canonical_json_bytes(payload))
        self._journal.retire()

    def recover(self) -> str:
        """Resolve an interrupted commit: ``"clean"`` (nothing pending;
        a stray tmp is swept), ``"rolled_forward"`` or ``"rolled_back"``."""
        def verify(intent: Intent) -> bool:
            # A journal that parses but does not describe a placement
            # is foreign: it rolls back instead of replaying.
            try:
                PlacementMap.from_payload(intent["placement"])
            except (PlacementError, KeyError, TypeError, ValueError, AttributeError):
                return False
            return intent.get("kind") == "placement-commit"

        def forward(intent: Intent) -> None:
            data = canonical_json_bytes(intent["placement"])
            publish(self._io, self.placement_path, data)

        outcome = self._journal.recover(verify, forward)
        # A rolled-back (or never journaled) commit may leave its tmp.
        discard(self._io, [self._root / PLACEMENT_TMP_NAME])
        if outcome is None:
            return "clean"
        return "rolled_forward" if outcome else "rolled_back"
