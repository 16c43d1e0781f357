"""Worker-process RPC for the clustered identification service.

One cluster worker is one OS *process* owning a set of partition
replica stores (each an ordinary crash-safe
:class:`~repro.service.store.ShardedFingerprintStore` with a single
shard).  The parent talks to it over a ``multiprocessing`` pipe with a
tiny dict protocol — ``ping`` / ``identify`` / ``stats`` /
``shutdown`` — and, because the whole point of process isolation is
surviving ungraceful death, the parent-side :class:`WorkerHandle` also
knows how to SIGKILL its worker (the chaos benchmark's weapon) and how
to translate a broken pipe into :class:`WorkerDied` instead of a
stack trace.

Requests carry monotonically increasing request ids; a reply whose id
does not match the outstanding request is discarded as a straggler
from a timed-out earlier call, so one slow reply can never desync the
request/response pairing.

Global sequence numbers (Algorithm 2's first-enrolled-wins priority)
do not survive partitioning on their own — each partition store
assigns local sequences — so every partition directory carries a
``sequence-map.json`` sidecar mapping key → *global* enrollment
sequence, written durably at build/rebalance time and reported back
with every match so the driver can merge partitions exactly like the
batch engine merges shards.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bits import BitVector
from repro.core.identify import FingerprintDatabase
from repro.reliability.durable import json_bytes, publish
from repro.reliability.faults import StorageIO
from repro.service.fanout import merge_first_match, scan_replica
from repro.service.store import ShardedFingerprintStore

#: Sidecar file in every partition directory: key → global sequence.
SEQUENCE_MAP_NAME = "sequence-map.json"

#: Subdirectory of the cluster root holding per-worker state.
WORKERS_DIR_NAME = "workers"

#: How worker processes start: forked, so a worker inherits the
#: parent's imported modules instead of re-importing them.
START_METHOD = "fork"


class WorkerError(RuntimeError):
    """Base class for worker RPC failures."""


class WorkerDied(WorkerError):
    """The worker process vanished (killed, crashed, or hung up)."""


class WorkerTimeout(WorkerError):
    """The worker did not answer within the request deadline."""


def worker_dir(root: Path, worker_id: str) -> Path:
    """Directory holding every partition replica of ``worker_id``."""
    return Path(root) / WORKERS_DIR_NAME / worker_id


def partition_dir(root: Path, worker_id: str, partition: int) -> Path:
    """Directory of one partition replica store on one worker."""
    return worker_dir(root, worker_id) / f"part-{partition:03d}"


def write_sequence_map(
    directory: Path,
    sequences: Dict[str, int],
    storage_io: Optional[StorageIO] = None,
) -> None:
    """Durably publish the key → global-sequence sidecar."""
    payload = {
        "schema_version": 1,
        "sequences": {key: int(seq) for key, seq in sorted(sequences.items())},
    }
    publish(
        storage_io if storage_io is not None else StorageIO(),
        Path(directory) / SEQUENCE_MAP_NAME,
        json_bytes(payload, sort_keys=True),
    )


def read_sequence_map(
    directory: Path, storage_io: Optional[StorageIO] = None
) -> Dict[str, int]:
    """Read the sidecar written by :func:`write_sequence_map`."""
    io = storage_io if storage_io is not None else StorageIO()
    raw = io.read_bytes(Path(directory) / SEQUENCE_MAP_NAME)
    payload = json.loads(raw.decode("utf-8"))
    return {
        str(key): int(seq) for key, seq in payload["sequences"].items()
    }


def open_replica(
    directory: Path, storage_io: Optional[StorageIO] = None
) -> Tuple[FingerprintDatabase, Dict[str, int]]:
    """One partition replica: its database and key → global sequence."""
    store = ShardedFingerprintStore(directory, n_shards=1, storage_io=storage_io)
    return store.load_shard(0).database, read_sequence_map(directory, storage_io)


def encode_query(query_id: str, error_string: BitVector) -> Dict[str, object]:
    """Wire form of one identification query (sparse index list)."""
    return {
        "qid": query_id,
        "nbits": error_string.nbits,
        "errors": [int(index) for index in error_string.to_indices()],
    }


def decode_query(payload: Dict[str, object]) -> Tuple[str, BitVector]:
    """Inverse of :func:`encode_query`."""
    return (
        str(payload["qid"]),
        BitVector.from_indices(
            int(payload["nbits"]),  # type: ignore[arg-type]
            payload["errors"],  # type: ignore[arg-type]
        ),
    )


# ----------------------------------------------------------------------
# Child-process side
# ----------------------------------------------------------------------


def worker_main(
    worker_id: str,
    root: str,
    partitions: Sequence[int],
    threshold: float,
    conn: multiprocessing.connection.Connection,
) -> None:
    """Child-process entry point: serve requests until shutdown/EOF.

    Opens each assigned partition replica lazily (first touch) so a
    worker whose cold partitions are never queried pays nothing for
    them, and keeps them cached for the life of the process.
    """
    root_path = Path(root)
    assigned = set(int(partition) for partition in partitions)
    replicas: Dict[int, Tuple[FingerprintDatabase, Dict[str, int]]] = {}
    served = 0

    def replica(partition: int) -> Tuple[FingerprintDatabase, Dict[str, int]]:
        if partition not in replicas:
            replicas[partition] = open_replica(
                partition_dir(root_path, worker_id, partition)
            )
        return replicas[partition]

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        rid = message.get("rid")
        op = message.get("op")
        if op == "shutdown":
            conn.send({"rid": rid, "ok": True, "worker": worker_id})
            break
        try:
            if op == "ping":
                reply: Dict[str, object] = {
                    "ok": True,
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "served": served,
                }
            elif op == "stats":
                reply = {
                    "ok": True,
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "served": served,
                    "partitions_open": sorted(replicas),
                    "partitions_assigned": sorted(assigned),
                }
            elif op == "identify":
                wanted = [int(p) for p in message.get("partitions", sorted(assigned))]
                unknown = [p for p in wanted if p not in assigned]
                if unknown:
                    raise WorkerError(
                        f"worker {worker_id} does not hold partition(s) {unknown}"
                    )
                queries = [decode_query(q)[1] for q in message["queries"]]
                threshold_override = float(message.get("threshold", threshold))
                best = merge_first_match(
                    [
                        scan_replica(*replica(partition), queries, threshold_override)
                        for partition in wanted
                    ],
                    len(queries),
                )
                answers = [
                    None
                    if answer is None
                    else [answer[0], answer[1].key, float(answer[1].distance)]  # type: ignore[arg-type]
                    for answer in best
                ]
                served += len(queries)
                reply = {"ok": True, "worker": worker_id, "answers": answers}
            else:
                raise WorkerError(f"unknown op {op!r}")
        except Exception as error:  # noqa: BLE001 - reported to the parent
            reply = {
                "ok": False,
                "worker": worker_id,
                "error_type": type(error).__name__,
                "error": str(error),
            }
        reply["rid"] = rid
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------


class WorkerHandle:
    """Parent-side proxy for one worker process.

    Thread-safe: one internal lock serializes pipe use, so the health
    monitor's pings and the driver's identify calls interleave
    cleanly.  All request methods raise :class:`WorkerDied` when the
    process is gone and :class:`WorkerTimeout` on a missed deadline
    (the worker stays alive; its late reply will be discarded by
    request-id matching).
    """

    def __init__(
        self,
        worker_id: str,
        root: Path,
        partitions: Sequence[int],
        threshold: float,
    ) -> None:
        self.worker_id = worker_id
        self.partitions = tuple(int(p) for p in partitions)
        ctx = multiprocessing.get_context(START_METHOD)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self._process = ctx.Process(
            target=worker_main,
            args=(worker_id, str(root), self.partitions, threshold, child_conn),
            name=f"repro-cluster-{worker_id}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._lock = threading.Lock()
        self._next_rid = 1

    @property
    def pid(self) -> Optional[int]:
        """OS pid of the worker process."""
        return self._process.pid

    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self._process.is_alive()

    def request(
        self,
        op: str,
        payload: Optional[Dict[str, object]] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """Send one request and wait for its matching reply."""
        message: Dict[str, object] = dict(payload or {})
        message["op"] = op
        with self._lock:
            rid = self._next_rid
            self._next_rid += 1
            message["rid"] = rid
            try:
                self._conn.send(message)
            except (BrokenPipeError, OSError) as error:
                raise WorkerDied(
                    f"worker {self.worker_id} pipe closed: {error}"
                ) from error
            while True:
                try:
                    if not self._conn.poll(timeout_s):
                        raise WorkerTimeout(
                            f"worker {self.worker_id} missed the "
                            f"{timeout_s}s deadline for {op!r}"
                        )
                    # The lock IS the request/response serializer: the
                    # pipe carries one exchange at a time, so the recv
                    # must happen inside the critical section.
                    reply = self._conn.recv()  # repro-lint: disable=REP010 -- per-handle lock deliberately serializes pipe round-trips
                except WorkerTimeout:
                    raise
                except (EOFError, OSError) as error:
                    raise WorkerDied(
                        f"worker {self.worker_id} died during {op!r}: {error}"
                    ) from error
                if reply.get("rid") == rid:
                    break
                # A straggler reply from a timed-out earlier request:
                # drop it and keep waiting for ours.
        if not reply.get("ok", False):
            raise WorkerError(
                f"worker {self.worker_id} failed {op!r}: "
                f"{reply.get('error_type')}: {reply.get('error')}"
            )
        return reply

    def ping(self, timeout_s: Optional[float] = None) -> Dict[str, object]:
        """Liveness probe."""
        return self.request("ping", timeout_s=timeout_s)

    def stats(self, timeout_s: Optional[float] = None) -> Dict[str, object]:
        """Worker-side counters and open partitions."""
        return self.request("stats", timeout_s=timeout_s)

    def identify(
        self,
        queries: Sequence[Dict[str, object]],
        partitions: Sequence[int],
        threshold: Optional[float] = None,
        timeout_s: Optional[float] = None,
    ) -> List[Optional[Tuple[int, str, float]]]:
        """Best (global-sequence, key, distance) per query, or None."""
        payload: Dict[str, object] = {
            "queries": list(queries),
            "partitions": [int(p) for p in partitions],
        }
        if threshold is not None:
            payload["threshold"] = threshold
        reply = self.request("identify", payload, timeout_s=timeout_s)
        answers: List[Optional[Tuple[int, str, float]]] = []
        for answer in reply["answers"]:  # type: ignore[union-attr]
            if answer is None:
                answers.append(None)
            else:
                answers.append((int(answer[0]), str(answer[1]), float(answer[2])))
        return answers

    def kill(self) -> None:
        """SIGKILL the worker process (the chaos path: no goodbyes)."""
        self._process.kill()

    def shutdown(self, timeout_s: float = 5.0) -> None:
        """Graceful stop: ask politely, then escalate to SIGKILL."""
        try:
            self.request("shutdown", timeout_s=timeout_s)
        except WorkerError:
            pass
        self._process.join(timeout=timeout_s)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=timeout_s)
        self.close()

    def close(self) -> None:
        """Release the parent end of the pipe."""
        try:
            self._conn.close()
        except OSError:
            pass
