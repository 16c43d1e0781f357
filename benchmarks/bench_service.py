"""Service benchmark — packed vs. scalar identification at scale.

The §4 deployment model puts the fingerprint database at a fingerprint
per device; Algorithm 2's linear scan is quadratic in the fleet.  This
benchmark builds a 10 000-device corpus, replays a mixed hit/miss query
workload through the plain scalar-loop database and through the packed
one, and asserts the acceptance bar: the packed path answers with
**identical decisions** at **>= 5x the throughput**.

Artifacts: a JSON report (``bench_service.json`` in the results
directory) with per-mode throughput, p50/p95/p99 latency and the
speedup.
"""

from __future__ import annotations

import json
import time

from repro.analysis.reporting import results_dir
from repro.bits import BitVector
from repro.core import Fingerprint, FingerprintDatabase, identify_error_string
from repro.service import (
    BatchIdentificationService,
    BatchQuery,
    IndexedFingerprintDatabase,
    LatencyHistogram,
    ShardedFingerprintStore,
)

NBITS = 2048
DENSITY = 0.01
N_DEVICES = 10_000
N_HITS = 40
N_MISSES = 10


def _build_corpus(rng):
    """10k synthetic per-device fingerprints."""
    return [
        (
            f"device-{index:05d}",
            Fingerprint(bits=BitVector.random(NBITS, rng, DENSITY)),
        )
        for index in range(N_DEVICES)
    ]


def _build_queries(corpus, rng):
    """Mixed workload: same-chip queries at a deeper approximation
    level (97 % of fingerprint bits kept, 2x extra error volume) plus
    unknown-device misses."""
    queries = []
    for _hit in range(N_HITS):
        _key, fingerprint = corpus[int(rng.integers(0, len(corpus)))]
        keep = BitVector.from_bool_array(
            fingerprint.bits.to_bool_array() & (rng.random(NBITS) < 0.97)
        )
        queries.append(keep | BitVector.random(NBITS, rng, DENSITY * 2))
    for _miss in range(N_MISSES):
        queries.append(BitVector.random(NBITS, rng, DENSITY * 1.5))
    return queries


def _timed_run(identify, queries):
    """Run every query, returning (results, histogram, elapsed_s)."""
    histogram = LatencyHistogram()
    results = []
    started = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        results.append(identify(query))
        histogram.record(time.perf_counter() - t0)
    return results, histogram, time.perf_counter() - started


def test_indexed_speedup_at_10k_devices(bench_rng, benchmark):
    """Acceptance: >= 5x throughput, identical decisions, JSON report."""
    corpus = _build_corpus(bench_rng)
    queries = _build_queries(corpus, bench_rng)

    linear = FingerprintDatabase()
    indexed = IndexedFingerprintDatabase()
    for key, fingerprint in corpus:
        linear.add(key, fingerprint)
        indexed.add(key, fingerprint)

    linear_results, linear_hist, linear_s = _timed_run(
        lambda q: identify_error_string(q, linear), queries
    )
    indexed_results, indexed_hist, indexed_s = _timed_run(
        indexed.identify_error_string, queries
    )

    # Identical decisions — the packed scan is the same Algorithm 2.
    for slow, fast in zip(linear_results, indexed_results):
        assert (slow.matched, slow.key) == (fast.matched, fast.key)

    n_queries = len(queries)
    linear_qps = n_queries / linear_s
    indexed_qps = n_queries / indexed_s
    speedup = indexed_qps / linear_qps

    report = {
        "corpus_devices": N_DEVICES,
        "nbits": NBITS,
        "queries": n_queries,
        "matched": sum(1 for result in indexed_results if result.matched),
        "linear": {
            "throughput_qps": linear_qps,
            **linear_hist.snapshot(),
        },
        "indexed": {
            "throughput_qps": indexed_qps,
            **indexed_hist.snapshot(),
        },
        "speedup": speedup,
    }
    path = results_dir() / "bench_service.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"\nindexed {indexed_qps:.1f} qps vs linear {linear_qps:.1f} qps "
        f"({speedup:.1f}x)"
    )

    assert speedup >= 5.0
    assert report["indexed"]["p95_s"] < report["linear"]["p50_s"]

    # Microbenchmark kernel: one indexed hit query.
    benchmark(indexed.identify_error_string, queries[0])


def test_batch_service_over_sharded_store(tmp_path, bench_rng, benchmark):
    """End-to-end batch path: sharded store + worker-pool fan-out."""
    corpus = _build_corpus(bench_rng)[:4000]
    queries = [
        BatchQuery.from_errors(f"q{index}", error_string)
        for index, error_string in enumerate(_build_queries(corpus, bench_rng))
    ]
    store = ShardedFingerprintStore(tmp_path / "store", n_shards=4)
    store.ingest(corpus)
    service = BatchIdentificationService(store)
    report = service.run(queries)  # warm the shard replicas
    # A few same-chip queries legitimately land just over the threshold
    # (the linear scan misses them too); the bulk must match.
    assert report.matched_count >= int(N_HITS * 0.8)

    batch_report = benchmark(service.run, queries)
    payload = batch_report.to_json()
    path = results_dir() / "bench_service_batch.json"
    path.write_text(
        json.dumps(
            {
                "corpus_devices": len(corpus),
                "shards": store.n_shards,
                "matched": payload["matched"],
                "unmatched": payload["unmatched"],
                "stages": payload["metrics"]["stages"],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
