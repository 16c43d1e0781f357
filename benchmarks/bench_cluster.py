"""Chaos benchmark — clustered identification under process SIGKILLs.

The cluster's claim is stronger than the stream pipeline's: with R-way
replication, killing whole worker *processes* mid-load must not lose
or duplicate a single identification.  This benchmark drives that
claim on three axes:

1. **SIGKILL chaos** — a seeded :class:`ProcessKillPlan` SIGKILLs
   worker processes immediately before planned identification batches
   (so the batch itself is served over the freshly broken cluster via
   replica failover), while the health loop restarts the victims
   between batches.  Every request must complete, every answer must
   equal the scalar linear-scan reference (no lost results), and every
   query must produce exactly one result (no duplicates from hedged or
   replicated reads).
2. **Placement-journal crash enumeration** — a fault at (or during)
   every one of the seven IO operations of a placement commit, in
   every crash mode; recovery must land byte-identically on the pre-
   or post-commit map and a second ``recover()`` must be a no-op.
3. **Live rebalance** — a worker is added under load; the placement
   version bumps, replicas are copied, answers stay reference-equal
   and ``verify_cluster`` finds every replica byte-consistent.

Artifacts: ``bench_cluster.json``, the placement-journal enumeration
in ``bench_cluster_placement.json``, plus the observability set
(``bench_cluster_trace.jsonl`` / ``.chrome.json`` and
``bench_cluster_metrics.prom`` / ``.json``) in the results directory —
CI's cluster-chaos job uploads them.  Seeded via ``REPRO_FAULT_SEED``
like the other chaos suites.
"""

from __future__ import annotations

import json
import os
import time

from repro.analysis.reporting import results_dir
from repro.bits import BitVector
from repro.core import Fingerprint
from repro.core.distance import DEFAULT_THRESHOLD
from repro.core.identify import linear_identify
from repro.obs import (
    LEDGER_NAME,
    MetricsRegistry,
    RunLedger,
    Tracer,
    bind_service_metrics,
    set_tracer,
)
from repro.reliability import (
    FaultPlan,
    FaultyIO,
    InjectedFault,
    ProcessKillPlan,
)
from repro.service import (
    BatchQuery,
    ClusterConfig,
    ClusterService,
    build_cluster,
    verify_cluster,
)
from repro.service.placement import (
    PLACEMENT_NAME,
    PLACEMENT_TMP_NAME,
    PlacementMap,
    PlacementStore,
    canonical_json_bytes,
)

NBITS = 512
DENSITY = 0.02
N_DEVICES = 120
N_WORKERS = 3
N_PARTITIONS = 8
REPLICATION = 2

N_BATCHES = 24
QUERIES_PER_BATCH = 8
N_KILLS = 3
MISS_EVERY = 10

#: Operations in one PlacementStore.commit (see test_placement.py).
COMMIT_OPS = 7
CRASH_MODES = ("crash", "torn", "rename")

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "2015"))

#: Fast-converging chaos config: hedged reads on (so replica overlap
#: exercises the idempotent merge), quick seeded-jitter restarts.
CHAOS_CONFIG = ClusterConfig(
    n_partitions=N_PARTITIONS,
    replication=REPLICATION,
    heartbeat_interval_s=0.05,
    request_timeout_s=30.0,
    hedge_delay_s=0.01,
    restart_backoff_base_s=0.01,
    restart_backoff_cap_s=0.05,
    jitter_seed=FAULT_SEED,
)


def _build_corpus(root, rng):
    """Build the cluster; the enrollment entries, in global order, are
    the reference the scalar Algorithm 2 loop scans."""
    entries = []
    bits = {}
    for index in range(N_DEVICES):
        key = f"device-{index:05d}"
        vector = BitVector.random(NBITS, rng, DENSITY)
        bits[key] = vector
        fingerprint = Fingerprint(bits=vector, support=2)
        entries.append((key, fingerprint))
    build_cluster(
        root,
        entries,
        n_workers=N_WORKERS,
        n_partitions=N_PARTITIONS,
        replication=REPLICATION,
    )
    return bits, entries


def _batch_queries(bits, rng, batch_index):
    """A seeded batch: mostly enrolled devices, some deliberate misses."""
    keys = sorted(bits)
    queries = []
    expected_vectors = []
    for slot in range(QUERIES_PER_BATCH):
        ordinal = batch_index * QUERIES_PER_BATCH + slot
        if ordinal % MISS_EVERY == MISS_EVERY // 2:
            vector = BitVector.random(NBITS, rng, 0.015)
        else:
            vector = bits[keys[int(rng.integers(0, len(keys)))]]
        queries.append(BatchQuery.from_errors(f"q-{ordinal}", vector))
        expected_vectors.append(vector)
    return queries, expected_vectors


def _heal(service, workers, deadline=1000):
    """Drive the health loop until every worker is running again."""
    for _ in range(deadline):
        service.check_health()
        if all(service.worker_handle(w) is not None for w in workers):
            return
        time.sleep(0.005)
    raise AssertionError("worker never restarted within the heal budget")


def _chaos_axis(root, bits, reference, rng):
    """SIGKILL workers on a seeded schedule under sustained load."""
    plan = ProcessKillPlan.seeded(
        seed=FAULT_SEED, n_workers=N_WORKERS, kills=N_KILLS, horizon=N_BATCHES
    )
    assert len(plan.kill_at) == N_KILLS
    completed = mismatches = kills_fired = 0
    started = time.perf_counter()
    with ClusterService(root, CHAOS_CONFIG) as service:
        workers = list(service.placement.workers)
        for batch_index in range(1, N_BATCHES + 1):
            for slot in plan.kills_for(batch_index):
                handle = service.worker_handle(workers[slot])
                if handle is not None:
                    handle.kill()
                    kills_fired += 1
            queries, vectors = _batch_queries(bits, rng, batch_index)
            report = service.identify(queries)
            # Zero lost, zero duplicated: exactly one answer per query,
            # each equal to the scalar oracle over every device.
            assert not report.degraded, report.degraded
            assert len(report.results) == len(queries)
            completed += len(report.results)
            for vector, result in zip(vectors, report.results):
                expected = linear_identify(vector, reference, DEFAULT_THRESHOLD)
                if (
                    result.identification.matched != expected.matched
                    or result.identification.key != expected.key
                ):
                    mismatches += 1
            if plan.kills_for(batch_index):
                _heal(service, workers)
        counters = service.metrics.counters_with_prefix("cluster.")
        registry = MetricsRegistry()
        bind_service_metrics(registry, service.metrics)
        registry.write_exposition(
            results_dir() / "bench_cluster_metrics.prom"
        )
        registry.write_snapshot(results_dir() / "bench_cluster_metrics.json")
    elapsed = time.perf_counter() - started

    assert kills_fired == N_KILLS
    assert completed == N_BATCHES * QUERIES_PER_BATCH
    assert mismatches == 0, f"{mismatches} answers diverged from reference"
    assert counters.get("cluster.worker_deaths", 0) == N_KILLS
    assert counters.get("cluster.worker_restarts", 0) == N_KILLS
    verification = verify_cluster(root)
    assert verification.ok, verification.to_json()
    return {
        "batches": N_BATCHES,
        "queries": completed,
        "completed": completed,
        "mismatches": mismatches,
        "kill_schedule": [list(point) for point in plan.kill_at],
        "kills_fired": kills_fired,
        "worker_deaths": counters.get("cluster.worker_deaths", 0),
        "worker_restarts": counters.get("cluster.worker_restarts", 0),
        "failover_rounds": counters.get("cluster.failover_rounds", 0),
        "hedges": counters.get("cluster.hedges", 0),
        "hedge_wins": counters.get("cluster.hedge_wins", 0),
        "throughput_queries_per_s": completed / elapsed,
        "elapsed_s": elapsed,
    }


def _placement_crash_axis(tmp_path):
    """Enumerate a fault at every IO op of a placement commit."""
    workers = [f"worker-{index:03d}" for index in range(4)]
    old = PlacementMap.build(workers, n_partitions=16, replication=2)
    new = old.rebalanced(remove=["worker-003"])
    points = []
    for mode in CRASH_MODES:
        for fail_at in range(1, COMMIT_OPS + 1):
            root = tmp_path / f"placement-{mode}-{fail_at}"
            root.mkdir(parents=True)
            PlacementStore(root).initialize(old)
            pre = (root / PLACEMENT_NAME).read_bytes()
            post = canonical_json_bytes(new.to_payload())
            faulty = FaultyIO(FaultPlan(fail_at=fail_at, mode=mode))
            try:
                PlacementStore(root, faulty).commit(new)
                raise AssertionError("planned fault never fired")
            except InjectedFault:
                pass
            store = PlacementStore(root)
            action = store.recover()
            landed = (root / PLACEMENT_NAME).read_bytes()
            assert landed in (pre, post), f"{mode}@{fail_at}: hybrid bytes"
            assert not store.journal_pending()
            assert not (root / PLACEMENT_TMP_NAME).exists()
            assert store.recover() == "clean"
            assert (root / PLACEMENT_NAME).read_bytes() == landed
            points.append(
                {
                    "mode": mode,
                    "fail_at": fail_at,
                    "recovery": action,
                    "landed": "post" if landed == post else "pre",
                }
            )
    report = {
        "commit_ops": COMMIT_OPS,
        "points": points,
        "rolled_forward": sum(
            1 for p in points if p["recovery"] == "rolled_forward"
        ),
        "rolled_back": sum(
            1 for p in points if p["recovery"] == "rolled_back"
        ),
    }
    path = results_dir() / "bench_cluster_placement.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _rebalance_axis(root, bits, reference, rng):
    """Add a worker under load; answers must stay reference-equal."""
    with ClusterService(root, CHAOS_CONFIG) as service:
        before = service.placement.version
        after = service.rebalance(add=[f"worker-{N_WORKERS:03d}"])
        moved = service.metrics.counters_with_prefix("cluster.").get(
            "cluster.partitions_moved", 0
        )
        queries, vectors = _batch_queries(bits, rng, batch_index=0)
        report = service.identify(queries)
        assert not report.degraded
        for vector, result in zip(vectors, report.results):
            expected = linear_identify(vector, reference, DEFAULT_THRESHOLD)
            assert result.identification.key == expected.key
    verification = verify_cluster(root)
    assert verification.ok, verification.to_json()
    assert after.version == before + 1
    assert moved > 0
    return {
        "version_before": before,
        "version_after": after.version,
        "replicas_copied": moved,
        "replicas_verified": len(verification.replicas),
    }


def test_cluster_chaos_benchmark(tmp_path, bench_rng):
    """Run all three axes and write the JSON artifact."""
    root = tmp_path / "cluster"
    bits, reference = _build_corpus(root, bench_rng)

    started = time.perf_counter()
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        chaos = _chaos_axis(root, bits, reference, bench_rng)
    finally:
        set_tracer(previous)
    trace_path = results_dir() / "bench_cluster_trace.jsonl"
    tracer.export_jsonl(trace_path)
    tracer.export_chrome(results_dir() / "bench_cluster_trace.chrome.json")

    report = {
        "fault_seed": FAULT_SEED,
        "corpus_devices": N_DEVICES,
        "workers": N_WORKERS,
        "partitions": N_PARTITIONS,
        "replication": REPLICATION,
        "chaos": chaos,
        "placement_journal": _placement_crash_axis(tmp_path),
        "rebalance": _rebalance_axis(root, bits, reference, bench_rng),
    }
    path = results_dir() / "bench_cluster.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    RunLedger(results_dir() / LEDGER_NAME).record(
        command="bench-cluster",
        argv=["benchmarks/bench_cluster.py"],
        config={
            "fault_seed": FAULT_SEED,
            "workers": N_WORKERS,
            "replication": REPLICATION,
            "kills": N_KILLS,
        },
        exit_code=0,
        duration_s=time.perf_counter() - started,
        metrics_path=results_dir() / "bench_cluster_metrics.json",
        trace_path=trace_path,
    )

    chaos = report["chaos"]
    journal = report["placement_journal"]
    print(
        f"\nchaos run: {chaos['completed']}/{chaos['queries']} queries "
        f"completed across {chaos['batches']} batches with "
        f"{chaos['kills_fired']} SIGKILLs absorbed "
        f"({chaos['worker_restarts']} restarts, "
        f"{chaos['failover_rounds']} failover rounds, "
        f"{chaos['hedges']} hedges), 0 lost / 0 duplicated; "
        f"placement journal: {len(journal['points'])} crash points → "
        f"{journal['rolled_forward']} rolled forward, "
        f"{journal['rolled_back']} rolled back; rebalance copied "
        f"{report['rebalance']['replicas_copied']} replica(s)"
    )
