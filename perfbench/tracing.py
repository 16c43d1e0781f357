"""In-memory spans around the program's public layer entry points.

The traced run patches a fixed set of public methods (``_layer_spans``)
with wrappers that record one :class:`Span` per call: name, start,
end, parent span and thread.  Parents propagate through a context
variable, so a span opened in a worker thread nests under the span
that submitted the work (the batch engine copies its context into its
shard-scan threads; :func:`instrument` makes every thread pool do the
same while it is active).  Nothing is added inside ``src/``: the
wrappers are installed for the traced phase and removed afterwards.

Per-layer time is *self* time: a span's duration minus the union of
its children's intervals (the union, because shard scans on pool
threads overlap).  Spans on concurrent threads each keep their own
self time, so in a thread pool a layer's time includes waiting for the
interpreter lock another thread holds, and layer times can add up to
more than the run took.  ``unattributed`` is therefore not "run time
minus the layer sum" but the part of the program's run time that no
span covers at all.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import functools
import itertools
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.cluster import OnlineClusterer
from repro.core.minhash import MinHasher
from repro.core.stitch import Stitcher
from repro.reliability.compaction import Compactor
from repro.reliability.faults import StorageIO
from repro.service.batch import BatchIdentificationService
from repro.service.cluster import ClusterService
from repro.service.indexed import IndexedFingerprintDatabase
from repro.service.rpc import WorkerHandle
from repro.service.store import ShardedFingerprintStore
from repro.service.stream import StreamingIdentificationService

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_current_span", default=None
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, run_id: str) -> Dict[str, object]:
        return {
            "run_id": run_id,
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
        }


class Tracer:
    """Span and counter sink shared by every wrapper of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = _CURRENT.get()
        span_id = next(self._ids)
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(
                Span(span_id, parent, name, start, end, threading.get_ident())
            )

    def wrap(
        self,
        name: str,
        function: Callable,
        observe: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> Callable:
        """``function`` recording a ``name`` span per call; ``observe``
        sees ``(args, kwargs, result)`` of each successful call."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper


class CountingStorageIO(StorageIO):
    """The program's ``StorageIO`` seam, counting and timing each op.

    ``sync`` operations are the ones that end in an fsync: synced
    writes and appends, truncates and directory fsyncs.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._lock = threading.Lock()
        self.sync_ops = 0
        self.sync_s = 0.0
        self.replaces = 0
        self.bytes_written = 0
        #: Bytes written per file name (without directories).
        self.bytes_by_file: Dict[str, int] = {}

    @contextlib.contextmanager
    def _op(self, name: str, sync: bool, path=None, written: int = 0) -> Iterator[None]:
        started = time.perf_counter()
        with self._tracer.span(name):
            yield
        elapsed = time.perf_counter() - started
        with self._lock:
            self.bytes_written += written
            if written:
                file_name = os.path.basename(path)
                self.bytes_by_file[file_name] = self.bytes_by_file.get(file_name, 0) + written
            if sync:
                self.sync_ops += 1
                self.sync_s += elapsed

    def write_bytes(self, path, data: bytes, sync: bool = True) -> None:
        with self._op("io.write", sync, path, len(data)):
            super().write_bytes(path, data, sync)

    def append_bytes(self, path, data: bytes, sync: bool = True) -> None:
        with self._op("io.append", sync, path, len(data)):
            super().append_bytes(path, data, sync)

    def truncate(self, path, size: int) -> None:
        with self._op("io.truncate", True):
            super().truncate(path, size)

    def read_bytes(self, path) -> bytes:
        with self._op("io.read", False):
            return super().read_bytes(path)

    def read_tail(self, path, size: int) -> bytes:
        with self._op("io.read", False):
            return super().read_tail(path, size)

    def replace(self, source, destination) -> None:
        with self._op("io.replace", False):
            super().replace(source, destination)
        with self._lock:
            self.replaces += 1

    def fsync_dir(self, path) -> None:
        with self._op("io.fsync_dir", True):
            super().fsync_dir(path)

    def remove(self, path) -> None:
        with self._op("io.remove", False):
            super().remove(path)


# ----------------------------------------------------------------------
# Instrumentation of the layer entry points
# ----------------------------------------------------------------------


def _layer_spans(tracer: Tracer) -> List[Tuple[type, str, str, Optional[Callable]]]:
    """``(class, method, span name, observer)`` for every wrapped entry."""

    def cluster_add(args, _kwargs, result) -> None:
        clusterer = args[0]
        if result == len(clusterer) - 1 and len(clusterer.clusters[result].members) == 1:
            tracer.count("core.cluster.suspects")

    def store_ingest(_args, _kwargs, segments) -> None:
        tracer.count("service.store.commits")
        tracer.count(
            "service.store.records_ingested",
            sum(segment.count for segment in segments),
        )

    def compaction(_args, _kwargs, report) -> None:
        tracer.count("reliability.compaction.bytes_reclaimed", report.bytes_reclaimed)

    def rpc_identify(args, kwargs, _result) -> None:
        queries = args[1] if len(args) > 1 else kwargs["queries"]
        partitions = args[2] if len(args) > 2 else kwargs["partitions"]
        payload = {"op": "identify", "queries": list(queries), "partitions": list(partitions)}
        tracer.count("service.rpc.request_bytes", len(pickle.dumps(payload)))

    return [
        (BatchIdentificationService, "run", "service.batch.run", None),
        (IndexedFingerprintDatabase, "identify_error_string", "service.indexed.identify", None),
        (IndexedFingerprintDatabase, "candidate_keys", "service.indexed.candidate_keys", None),
        (MinHasher, "signature_of_indices", "core.minhash.signature", None),
        (OnlineClusterer, "add", "core.cluster.add", cluster_add),
        (ShardedFingerprintStore, "load_shard", "service.store.load_shard", None),
        (ShardedFingerprintStore, "ingest", "service.store.ingest", store_ingest),
        (Compactor, "run_once", "reliability.compaction.run", compaction),
        (StreamingIdentificationService, "run", "service.stream.run", None),
        (ClusterService, "identify", "service.cluster.identify", None),
        (WorkerHandle, "identify", "service.rpc.identify", rpc_identify),
        (Stitcher, "add_output", "core.stitch.add_output", None),
    ]


def _context_submit(original: Callable) -> Callable:
    """``ThreadPoolExecutor.submit`` running the task in the caller's
    context, so spans in pool threads keep their parent."""

    @functools.wraps(original)
    def submit(self, fn, /, *args, **kwargs):
        return original(self, contextvars.copy_context().run, fn, *args, **kwargs)

    return submit


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install the layer wrappers for the duration of the block."""
    patches = [
        (owner, attribute, tracer.wrap(name, getattr(owner, attribute), observe))
        for owner, attribute, name, observe in _layer_spans(tracer)
    ]
    executor = concurrent.futures.ThreadPoolExecutor
    patches.append((executor, "submit", _context_submit(executor.submit)))
    originals = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _ in patches]
    try:
        for owner, attribute, replacement in patches:
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        )
        result[span.span_id] = span.duration - covered
    return result


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def unattributed(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]) -> float:
    """Time inside the disjoint ``windows`` that no span covers.

    The windows are the stretches in which the program ran (set-up and
    each timed step), so the benchmark's own bookkeeping between steps
    is not charged to any layer or to the remainder.
    """
    total = 0.0
    for low, high in windows:
        covered = union_length(
            (max(span.start, low), min(span.end, high))
            for span in spans
            if span.end > low and span.start < high
        )
        total += (high - low) - covered
    return total
