"""The benchmark's metric catalogue.

One table per kind: the end-to-end metrics every untraced run prints,
and the per-layer metrics every traced run prints, each with the layer
it belongs to and the end-to-end metric (and workload) it is expected
to move.  ``BENCHMARK.json`` at the repository root lists the same
names and units; ``perfbench/tests`` keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    layer: str = ""
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("throughput_per_s", "1/s", "higher"),
    Metric("latency_p50_s", "s", "lower"),
    Metric("latency_p90_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_SCORING = "throughput_per_s on batch-10k and stream-ingest"
_INDEXED = "throughput_per_s, latency_p50_s on batch-10k; flat on stitch-fig13"
_CLUSTER = "latency_p90_s on batch-10k; throughput_per_s on stream-ingest"
_STORE = (
    "setup_s on batch-10k and cluster-r2; latency_*, throughput_per_s "
    "on stream-ingest"
)
_IO = "latency_*, throughput_per_s on stream-ingest; ~0 on batch-10k"
_STREAM = "throughput_per_s on stream-ingest"
_RPC = "throughput_per_s, latency_* on cluster-r2 only"
_STITCH = (
    "throughput_per_s on stitch-fig13; service.indexed.candidate_keys_s "
    "on batch-10k"
)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("service.indexed.verifications", "count", "lower", "bits/core.distance", _SCORING),
    Metric("core.distance.bytes_moved", "bytes", "lower", "bits/core.distance", _SCORING),
    Metric("service.indexed.identify_s", "s", "lower", "service.indexed", _INDEXED),
    Metric("service.indexed.candidate_keys_s", "s", "lower", "service.indexed", _INDEXED),
    Metric("service.indexed.candidates_per_query", "count", "lower", "service.indexed", _INDEXED),
    Metric("service.indexed.candidate_reduction", "ratio", "higher", "service.indexed", _INDEXED),
    Metric("core.cluster.add_s", "s", "lower", "core.cluster", _CLUSTER),
    Metric("core.cluster.suspects", "count", "lower", "core.cluster", _CLUSTER),
    Metric("service.batch.run_self_s", "s", "lower", "service.batch", "latency_p50_s on batch-10k and stream-ingest"),
    Metric("service.store.load_shard_s", "s", "lower", "service.store", _STORE),
    Metric("service.store.shard_loads", "count", "lower", "service.store", _STORE),
    Metric("service.store.ingest_s", "s", "lower", "service.store", _STORE),
    Metric("service.store.records_ingested", "count", "higher", "service.store", _STORE),
    Metric("io.sync_ops", "count", "lower", "reliability", _IO),
    Metric("io.sync_s", "s", "lower", "reliability", _IO),
    Metric("io.replaces", "count", "lower", "reliability", _IO),
    Metric("io.bytes_written", "bytes", "lower", "reliability", _IO),
    Metric("io.sync_ops_per_commit", "ratio", "lower", "reliability", _IO),
    Metric("reliability.compaction.run_s", "s", "lower", "reliability.compaction", "latency_p90_s on stream-ingest"),
    Metric("reliability.compaction.bytes_reclaimed", "bytes", "higher", "reliability.compaction", "latency_p90_s on stream-ingest"),
    Metric("service.stream.run_self_s", "s", "lower", "service.stream", _STREAM),
    Metric("service.stream.checkpoints", "count", "lower", "service.stream", _STREAM),
    Metric("service.stream.quarantined", "count", "lower", "service.stream", _STREAM),
    Metric("service.stream.admission_rejections", "count", "lower", "service.stream", _STREAM),
    Metric("service.rpc.round_trip_s", "s", "lower", "service.rpc", _RPC),
    Metric("service.rpc.requests", "count", "lower", "service.rpc", _RPC),
    Metric("service.rpc.request_bytes", "bytes", "lower", "service.rpc", _RPC),
    Metric("service.cluster.hedges", "count", "lower", "service.cluster", _RPC),
    Metric("service.cluster.hedges_per_request", "ratio", "lower", "service.cluster", _RPC),
    Metric("service.cluster.identify_self_s", "s", "lower", "service.cluster", _RPC),
    Metric("core.stitch.add_output_s", "s", "lower", "core.stitch", _STITCH),
    Metric("core.minhash.signature_s", "s", "lower", "core.minhash", _STITCH),
    Metric("core.minhash.signatures", "count", "lower", "core.minhash", _STITCH),
    Metric("trace.unattributed_s", "s", "lower", "whole run", "time no layer span covers"),
    Metric("trace.overhead", "ratio", "higher", "whole run", "traced / untraced throughput"),
)
