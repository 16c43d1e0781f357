"""Chaos benchmark — crash recovery, corruption detection, degradation.

The paper's storage silently decays bits; this benchmark measures how
the hardened store behaves when its own storage misbehaves, along three
axes:

1. **Crash recovery latency** — enumerate every IO operation of an
   ingest, kill it there, and time the reopen-with-recovery;
   also checks the all-or-nothing contract at every point.
2. **Corruption detection** — flip seeded random bits in v2 segment
   files and measure the detected fraction (CRC frames make silent
   corruption vanishingly unlikely) plus the salvage yield of repair.
3. **Degraded-mode serving** — fully corrupt one shard and measure the
   batch service answering from the healthy remainder.
4. **Compaction under chaos** — a 100k-fingerprint store grown through
   20 ingests: bloom-filter segment-skip rate of cold point lookups,
   a crash sweep over the journaled merge protocol (pre-op and
   post-rename modes, verify-store after every recovery), then a full
   compaction with reclaimed-bytes accounting.  The post-recovery
   verify-store report is written as its own artifact
   (``bench_reliability_compaction_verify.json``) for the CI matrix.

Artifacts: ``bench_reliability.json`` plus the observability set —
``bench_reliability_trace.jsonl`` / ``.chrome.json`` (spans of the
degraded-serving axis) and ``bench_reliability_metrics.prom`` /
``.json`` — in the results directory (CI uploads them from the chaos
job and validates them with ``repro obs summary``).  Seeded via
``REPRO_FAULT_SEED`` like the chaos tests.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np

from repro.analysis.reporting import results_dir
from repro.bits import BitVector
from repro.core import Fingerprint
from repro.obs import (
    LEDGER_NAME,
    MetricsRegistry,
    RunLedger,
    Tracer,
    bind_service_metrics,
    set_tracer,
)
from repro.reliability import (
    CompactionPolicy,
    Compactor,
    FaultPlan,
    FaultyIO,
    repair_store,
    verify_store,
)
from repro.service import (
    BatchIdentificationService,
    BatchQuery,
    ShardedFingerprintStore,
)

NBITS = 1024
DENSITY = 0.02
N_DEVICES = 400
N_SHARDS = 4
N_BITFLIP_TRIALS = 40

# Compaction-under-chaos axis: the acceptance-scale store.
N_BIG_DEVICES = 100_000
N_BIG_BATCHES = 20
TOMBSTONE_FRACTION = 0.02
N_SKIP_LOOKUPS = 400
N_CRASH_POINTS = 12
BIG_POLICY = CompactionPolicy(
    small_segment_records=2000,
    trigger_segments_per_shard=4,
    max_merge_segments=8,
    max_concurrent_merges=1,
)

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "2015"))


def _corpus(rng, n=N_DEVICES, prefix="device"):
    return [
        (
            f"{prefix}-{index:05d}",
            Fingerprint(bits=BitVector.random(NBITS, rng, DENSITY)),
        )
        for index in range(n)
    ]


def _build_store(root, batch):
    store = ShardedFingerprintStore(root, n_shards=N_SHARDS)
    store.ingest(batch)
    return store


def _crash_recovery_axis(tmp_path, rng):
    """Kill an ingest at every IO op; time and verify each recovery."""
    base = tmp_path / "crash-base"
    first = _corpus(rng, n=N_DEVICES // 2)
    second = _corpus(rng, n=N_DEVICES // 2, prefix="late")
    _build_store(base, first)

    dry = tmp_path / "crash-dry"
    shutil.copytree(base, dry)
    io_ = FaultyIO()
    ShardedFingerprintStore(dry, storage_io=io_).ingest(second)
    total_ops = io_.ops

    latencies = []
    outcomes = {"rolled_back": 0, "committed": 0}
    for crash_at in range(2, total_ops + 1):  # op 1 is the manifest read
        work = tmp_path / f"crash-{crash_at:03d}"
        shutil.copytree(base, work)
        store = ShardedFingerprintStore(
            work, storage_io=FaultyIO(FaultPlan(fail_at=crash_at))
        )
        try:
            store.ingest(second)
        except OSError:
            pass
        started = time.perf_counter()
        recovered = ShardedFingerprintStore(work)
        latencies.append(time.perf_counter() - started)
        n_keys = len(recovered)
        if n_keys == len(first):
            outcomes["rolled_back"] += 1
        elif n_keys == len(first) + len(second):
            outcomes["committed"] += 1
        else:
            raise AssertionError(
                f"crash at op {crash_at} left {n_keys} records — hybrid state"
            )
        assert verify_store(work).ok, f"inconsistent after crash {crash_at}"
        shutil.rmtree(work)
    return {
        "crash_points": total_ops - 1,
        "outcomes": outcomes,
        "recovery_latency_s": {
            "mean": float(np.mean(latencies)),
            "p95": float(np.quantile(latencies, 0.95)),
            "max": float(np.max(latencies)),
        },
    }


def _corruption_axis(tmp_path, rng, fault_rng):
    """Seeded bit flips in segment files: detection and salvage yield."""
    root = tmp_path / "bitflip"
    batch = _corpus(rng)
    store = _build_store(root, batch)
    segments = store.segments

    detected = 0
    salvaged_total = 0
    lost_total = 0
    for trial in range(N_BITFLIP_TRIALS):
        work = tmp_path / f"bitflip-{trial:03d}"
        shutil.copytree(root, work)
        victim = segments[int(fault_rng.integers(0, len(segments)))]
        path = work / victim.filename
        data = bytearray(path.read_bytes())
        position = int(fault_rng.integers(10, len(data)))  # spare the magic
        data[position] ^= 1 << int(fault_rng.integers(0, 8))
        path.write_bytes(bytes(data))

        verification = verify_store(work)
        if not verification.ok:
            detected += 1
            damaged = ShardedFingerprintStore(work)
            report = repair_store(damaged)
            salvaged_total += report.records_salvaged
            lost_total += report.records_lost
            assert verify_store(work).ok
        shutil.rmtree(work)
    return {
        "trials": N_BITFLIP_TRIALS,
        "detected": detected,
        "detection_rate": detected / N_BITFLIP_TRIALS,
        "records_salvaged": salvaged_total,
        "records_lost": lost_total,
    }


def _degraded_axis(tmp_path, rng):
    """One shard fully corrupted: healthy-shard service throughput."""
    root = tmp_path / "degraded"
    batch = _corpus(rng)
    store = _build_store(root, batch)
    victim_shard = store.segments[0].shard
    for record in store.segments:
        if record.shard == victim_shard:
            path = root / record.filename
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
    store.evict()

    queries = [
        BatchQuery.from_errors(key, fingerprint.bits)
        for key, fingerprint in batch[::4]
    ]
    service = BatchIdentificationService(
        store, cluster_residuals=False, retry_backoff_s=0.0
    )
    started = time.perf_counter()
    report = service.run(queries)
    elapsed = time.perf_counter() - started
    assert report.degraded
    healthy_hits = sum(
        1
        for result in report.results
        if result.matched and result.identification.key == result.query_id
    )
    expected_healthy = sum(
        1
        for key, _fp in batch[::4]
        if store.shard_for_key(key) != victim_shard
    )
    assert healthy_hits == expected_healthy

    registry = MetricsRegistry()
    bind_service_metrics(registry, service.metrics)
    registry.write_exposition(
        results_dir() / "bench_reliability_metrics.prom"
    )
    registry.write_snapshot(results_dir() / "bench_reliability_metrics.json")
    return {
        "queries": len(queries),
        "degraded_shards": [
            entry.to_json() for entry in report.degraded_shards
        ],
        "healthy_matches": healthy_hits,
        "lost_key_range_queries": len(queries) - healthy_hits,
        "throughput_qps": len(queries) / elapsed,
        "shard_failures": service.metrics.counter("batch.shard_failures"),
        "shard_retries": service.metrics.counter("batch.shard_retries"),
    }


def _skip_rate(root, keys):
    """Fraction of cold point lookups that bloom-skip >= 1 segment."""
    cold = ShardedFingerprintStore(root)
    skipping = 0
    for key in keys:
        found = cold.lookup(key)
        assert found is not None, f"lookup lost {key}"
        if found.segments_skipped >= 1:
            skipping += 1
    metrics = cold.metrics
    return {
        "lookups": len(keys),
        "skip_rate": skipping / len(keys),
        "segment_skips": metrics.counter("store.bloom_segment_skips"),
        "segment_loads": metrics.counter("store.bloom_segment_loads"),
        "false_positives": metrics.counter("store.bloom_false_positives"),
    }


def _compaction_axis(tmp_path, rng, fault_rng):
    """The 100k-fingerprint LSM axis: bloom skipping, a merge crash
    sweep with per-point verification, then full compaction."""
    root = tmp_path / "big"
    corpus = _corpus(rng, n=N_BIG_DEVICES)
    store = ShardedFingerprintStore(root, n_shards=N_SHARDS)
    for batch in range(N_BIG_BATCHES):
        store.ingest(corpus[batch::N_BIG_BATCHES])
    segments_before = len(store.segments)
    bytes_before = sum(
        (root / record.filename).stat().st_size for record in store.segments
    )

    # Tombstone a slice of the population through warm caches (each
    # tombstone request looks its key up first).
    for shard in range(N_SHARDS):
        store.load_shard(shard)
    n_tombstones = int(N_BIG_DEVICES * TOMBSTONE_FRACTION)
    victims = [
        corpus[int(index)][0]
        for index in fault_rng.choice(
            N_BIG_DEVICES, size=n_tombstones, replace=False
        )
    ]
    store.tombstone(victims)
    store.evict()

    # Cold-lookup bloom skipping over the many-segment store.  The
    # sample stride is coprime with the batch stride so it touches
    # every segment, not just the first.
    live = [key for key, _fp in corpus if key not in set(victims)]
    sample = live[:: max(1, len(live) // N_SKIP_LOOKUPS)][:N_SKIP_LOOKUPS]
    bloom_cold = _skip_rate(root, sample)

    # Crash sweep over one journaled merge: a clean dry run counts the
    # ops, then seeded points (plus the post-rename gap) get killed,
    # recovered, and verified.
    dry = tmp_path / "big-dry"
    shutil.copytree(root, dry)
    io_ = FaultyIO()
    dry_store = ShardedFingerprintStore(dry, storage_io=io_)
    open_ops = io_.ops
    dry_report = Compactor(dry_store, BIG_POLICY).run_once()
    assert len(dry_report.merges) == 1
    merge_ops = io_.ops - open_ops
    shutil.rmtree(dry)

    points = sorted(
        {
            int(op) + 1
            for op in fault_rng.choice(
                merge_ops, size=min(N_CRASH_POINTS, merge_ops), replace=False
            )
        }
        | {1, merge_ops}
    )
    outcomes = {"rolled_back": 0, "committed": 0}
    verified = 0
    crash_modes = []
    for crash_at in points:
        for mode in ("crash", "rename"):
            work = tmp_path / f"big-crash-{crash_at:03d}-{mode}"
            shutil.copytree(root, work)
            crashed = ShardedFingerprintStore(
                work,
                storage_io=FaultyIO(
                    FaultPlan(fail_at=open_ops + crash_at, mode=mode)
                ),
            )
            try:
                Compactor(crashed, BIG_POLICY).run_once()
            except OSError:
                pass
            recovered = ShardedFingerprintStore(work)
            n_segments = len(recovered.segments)
            if n_segments == segments_before:
                outcomes["rolled_back"] += 1
            elif n_segments < segments_before:
                outcomes["committed"] += 1
            else:
                raise AssertionError(
                    f"{mode} at merge op {crash_at} grew the manifest"
                )
            verification = verify_store(work)
            assert verification.ok, (
                f"{mode} at merge op {crash_at}: {verification.problems()}"
            )
            verified += 1
            crash_modes.append({"op": crash_at, "mode": mode})
            shutil.rmtree(work)

    # Full compaction of the base store, then the artifact verify.
    started = time.perf_counter()
    report = Compactor(store, BIG_POLICY).compact_all()
    compaction_s = time.perf_counter() - started
    bytes_after = sum(
        (root / record.filename).stat().st_size for record in store.segments
    )
    final = verify_store(root)
    assert final.ok, final.problems()
    verify_artifact = results_dir() / "bench_reliability_compaction_verify.json"
    verify_artifact.write_text(
        json.dumps(
            {
                "fault_seed": FAULT_SEED,
                "crash_points_verified": verified,
                "post_recovery_verify_ok": True,
                "final_verify": final.to_json(),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    bloom_compacted = _skip_rate(root, sample)

    axis = {
        "devices": N_BIG_DEVICES,
        "tombstoned": n_tombstones,
        "segments_before": segments_before,
        "segments_after": len(store.segments),
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
        "merges": len(report.merges),
        "records_dropped": report.records_dropped,
        "bytes_reclaimed": report.bytes_reclaimed,
        "compaction_s": compaction_s,
        "bloom_cold": bloom_cold,
        "bloom_compacted": bloom_compacted,
        "crash_sweep": {
            "merge_ops": merge_ops,
            "points": crash_modes,
            "outcomes": outcomes,
            "verify_ok": verified,
        },
    }
    # Acceptance: most cold point lookups skip at least one segment,
    # every tombstoned record's bytes were dropped, and every crash
    # point recovered to a verified store.
    assert bloom_cold["skip_rate"] > 0.5
    assert report.records_dropped == n_tombstones
    assert outcomes["rolled_back"] > 0 and outcomes["committed"] > 0
    return axis


def test_chaos_benchmark(tmp_path, bench_rng):
    """Run all four axes and write the JSON artifact."""
    fault_rng = np.random.default_rng(FAULT_SEED)
    started = time.perf_counter()
    report = {
        "fault_seed": FAULT_SEED,
        "corpus_devices": N_DEVICES,
        "shards": N_SHARDS,
        "crash_recovery": _crash_recovery_axis(tmp_path, bench_rng),
        "corruption": _corruption_axis(tmp_path, bench_rng, fault_rng),
        "compaction": _compaction_axis(tmp_path, bench_rng, fault_rng),
    }
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        report["degraded_serving"] = _degraded_axis(tmp_path, bench_rng)
    finally:
        set_tracer(previous)
    trace_path = results_dir() / "bench_reliability_trace.jsonl"
    tracer.export_jsonl(trace_path)
    tracer.export_chrome(
        results_dir() / "bench_reliability_trace.chrome.json"
    )
    path = results_dir() / "bench_reliability.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    RunLedger(results_dir() / LEDGER_NAME).record(
        command="bench-reliability",
        argv=["benchmarks/bench_reliability.py"],
        config={"fault_seed": FAULT_SEED, "corpus_devices": N_DEVICES},
        exit_code=0,
        duration_s=time.perf_counter() - started,
        metrics_path=results_dir() / "bench_reliability_metrics.json",
        trace_path=trace_path,
    )
    crash = report["crash_recovery"]
    corruption = report["corruption"]
    compaction = report["compaction"]
    print(
        f"\n{crash['crash_points']} crash points "
        f"(rolled back {crash['outcomes']['rolled_back']}, "
        f"committed {crash['outcomes']['committed']}), "
        f"recovery p95 {crash['recovery_latency_s']['p95'] * 1e3:.1f}ms; "
        f"corruption detection {corruption['detection_rate']:.2f} "
        f"over {corruption['trials']} seeded flips; "
        f"degraded serving "
        f"{report['degraded_serving']['throughput_qps']:.1f} qps; "
        f"compaction {compaction['segments_before']}->"
        f"{compaction['segments_after']} segments, "
        f"{compaction['bytes_reclaimed']} bytes reclaimed, "
        f"bloom skip rate {compaction['bloom_cold']['skip_rate']:.2f}, "
        f"{compaction['crash_sweep']['verify_ok']} merge crash points verified"
    )
    # CRC framing must catch essentially every flip; allow a flip to
    # land in file slack (padding/footer bits that cancel) rarely.
    assert corruption["detection_rate"] >= 0.9
