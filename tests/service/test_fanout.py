"""Tests for the shard fan-out engine (:mod:`repro.service.fanout`).

The engine is transport-agnostic, so the differential test drives it
through an in-memory transport whose replicas answer, fail, hang past
the round deadline, dawdle into a hedge, sit behind an open breaker or
are dead — and pins its decisions to the linear-scan oracle over the
partitions that could answer.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Dict, List, Sequence, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.bits import BitVector
from repro.core import Fingerprint, FingerprintDatabase
from repro.core import distance as distance_module
from repro.reliability import StorageIO
from repro.reliability.breaker import BreakerBoard
from repro.service import (
    BatchIdentificationService,
    BatchQuery,
    DegradedShard,
    QueryResult,
    ServiceMetrics,
    ShardedFingerprintStore,
)
from repro.service.batch import verify_against_linear
from repro.service.fanout import Failure, fan_out, merge_first_match, scan_replica

NBITS = 128
THRESHOLD = 0.3
HEDGE_S = 0.005
SLOW_S = 0.02
DEADLINE_S = 0.3
BREAKER_THRESHOLD = 50
BEHAVIOURS = ("ok", "fail", "hang", "slow", "open", "dead")
ANSWERS = {"ok", "slow"}
#: The failure each non-answering, live behaviour must be recorded as.
FAILURE_KIND = {"fail": "failure", "hang": "timeout", "open": "skip"}


class FakeTransport:
    """Workers in memory; each behaves the same for every partition."""

    prefix = "fake"
    counters = {"skip": "skips", "timeout": "timeouts", "failure": "failures"}

    def __init__(
        self,
        behaviour: Dict[str, str],
        partitions: Dict[int, Tuple[FingerprintDatabase, Dict[str, int]]],
        release: threading.Event,
    ) -> None:
        self.metrics = ServiceMetrics()
        self.behaviour = behaviour
        self.partitions = partitions
        self.release = release
        self.asked: List[Tuple[str, int]] = []
        self._lock = threading.Lock()

    def live(self, replica):
        return self.behaviour[replica] != "dead"

    def breaker_key(self, replica):
        return sorted(self.behaviour).index(replica)

    def request(self, replica, partitions, queries):
        with self._lock:
            self.asked.extend((replica, partition) for partition in partitions)
        kind = self.behaviour[replica]
        if kind == "fail":
            raise OSError(f"{replica} is broken")
        if kind == "hang":
            self.release.wait(30.0)
        if kind == "slow":
            time.sleep(SLOW_S)
        return merge_first_match(
            [
                scan_replica(*self.partitions[partition], queries, THRESHOLD)
                for partition in partitions
            ],
            len(queries),
        )

    def degraded(self, unanswered):
        return [
            DegradedShard(
                partition,
                (None, None),
                ",".join(sorted(f"{f.replica}:{f.kind}" for f in failures)),
                len(failures),
            )
            for partition, failures in unanswered.items()
        ]


@st.composite
def scenarios(draw):
    n_partitions = draw(st.integers(1, 8))
    replication = draw(st.integers(1, 3))
    n_workers = replication + draw(st.integers(0, 2))
    workers = [f"w{index}" for index in range(n_workers)]
    behaviour = {
        worker: draw(st.sampled_from(BEHAVIOURS)) for worker in workers
    }
    sources = {
        partition: draw(st.permutations(workers))[:replication]
        for partition in range(n_partitions)
    }
    return {
        "sources": sources,
        "behaviour": behaviour,
        "hedge": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "n_devices": draw(st.integers(1, 16)),
    }


def build(n_partitions: int, n_devices: int, seed: int):
    """Devices enrolled in global order across partitions; every fourth
    device is a clone of an earlier one, so first-enrolled-wins has to
    pick across partitions.  Returns (items, per-partition replicas,
    queries)."""
    rng = np.random.default_rng(seed)
    items: List[Tuple[str, Fingerprint]] = []
    for index in range(n_devices):
        if index % 4 == 3:
            bits = items[int(rng.integers(0, index))][1].bits.copy()
        else:
            bits = BitVector.random(NBITS, rng, 0.08)
        items.append((f"dev-{index:02d}", Fingerprint(bits=bits)))
    placement = [int(rng.integers(0, n_partitions)) for _ in items]
    partitions = {}
    for partition in range(n_partitions):
        database = FingerprintDatabase()
        sequences = {}
        for sequence, ((key, fingerprint), home) in enumerate(zip(items, placement)):
            if home == partition:
                database.add(key, fingerprint)
                sequences[key] = sequence
        partitions[partition] = (database, sequences)
    queries = [fingerprint.bits for _key, fingerprint in items]
    queries += [BitVector.random(NBITS, rng, 0.08) for _ in range(3)]
    return items, placement, partitions, queries


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_engine_matches_the_linear_oracle_over_answering_partitions(scenario):
    sources: Dict[int, Sequence[str]] = scenario["sources"]
    behaviour: Dict[str, str] = scenario["behaviour"]
    items, placement, partitions, queries = build(
        len(sources), scenario["n_devices"], scenario["seed"]
    )
    release = threading.Event()
    transport = FakeTransport(behaviour, partitions, release)
    breakers = BreakerBoard(
        failure_threshold=BREAKER_THRESHOLD, reset_timeout_s=3600.0
    )
    for worker, kind in behaviour.items():
        if kind == "open":
            for _ in range(BREAKER_THRESHOLD):
                breakers.record_failure(transport.breaker_key(worker))
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=64)
    try:
        decisions, ledger = fan_out(
            transport,
            sources,
            queries,
            pool,
            breakers=breakers,
            deadline_s=DEADLINE_S,
            hedge_delay_s=HEDGE_S if scenario["hedge"] else None,
        )
    finally:
        release.set()
        pool.shutdown(wait=True)

    answered = {
        partition
        for partition, replicas in sources.items()
        if any(behaviour[replica] in ANSWERS for replica in replicas)
    }
    oracle_items = [
        item for item, home in zip(items, placement) if home in answered
    ]
    results = [
        QueryResult(query_id=str(index), identification=decision)
        for index, decision in enumerate(decisions)
    ]
    assert len(decisions) == len(queries)
    assert verify_against_linear(results, oracle_items, queries, THRESHOLD) == 0

    # The ledger names exactly the unanswered partitions, each with
    # every live replica and how it failed.
    unanswered = {
        partition: [
            Failure(replica, FAILURE_KIND[behaviour[replica]])
            for replica in sources[partition]
            if behaviour[replica] != "dead"
        ]
        for partition in sorted(set(sources) - answered)
    }
    assert ledger == transport.degraded(unanswered)

    # No replica is asked twice for the same partition, and no dead or
    # breaker-open replica is asked at all.
    assert len(transport.asked) == len(set(transport.asked))
    assert not [
        replica
        for replica, _partition in transport.asked
        if behaviour[replica] in ("dead", "open")
    ]


def test_batch_after_a_timed_out_scan_meets_its_own_deadline(tmp_path, rng):
    """A shard scan wedged past one batch's deadline keeps its thread;
    the next batch must still be answered within its own deadline."""
    release = threading.Event()

    class WedgeFirstRead(StorageIO):
        wedged = False

        def read_bytes(self, path):
            if "shard-000" in str(path) and not WedgeFirstRead.wedged:
                WedgeFirstRead.wedged = True
                release.wait(30.0)
            return super().read_bytes(path)

    corpus = [
        (f"dev-{index:03d}", Fingerprint(bits=BitVector.random(NBITS, rng, 0.05)))
        for index in range(20)
    ]
    ShardedFingerprintStore(tmp_path / "store", n_shards=2).ingest(corpus)
    store = ShardedFingerprintStore(tmp_path / "store", storage_io=WedgeFirstRead())
    deadline = 1.0
    service = BatchIdentificationService(
        store,
        max_workers=1,
        cluster_residuals=False,
        shard_retries=0,
        shard_timeout_s=deadline,
    )
    queries = [
        BatchQuery.from_errors(key, fingerprint.bits) for key, fingerprint in corpus
    ]
    try:
        first = service.run(queries)
        assert any(
            entry.shard == 0 and "timed out" in entry.reason
            for entry in first.degraded_shards
        )
        started = time.monotonic()
        second = service.run(queries)
        elapsed = time.monotonic() - started
    finally:
        release.set()
    assert elapsed < deadline
    assert not second.degraded
    assert [r.identification.key for r in second.results] == [k for k, _ in corpus]


@pytest.mark.parametrize("n_rows, nbits", [(9, 512), (48, 512), (513, 4096)])
def test_scan_replica_makes_one_kernel_call_per_chunk(monkeypatch, n_rows, nbits):
    """A replica's batch is scored in as few AND + popcount passes over
    its rows as the word budget allows: one for a small shard, one per
    non-empty query past the budget; the answers are the per-query ones."""
    rng = np.random.default_rng(n_rows)
    database = FingerprintDatabase()
    sequences = {}
    for index in range(n_rows):
        key = f"dev-{index:03d}"
        database.add(key, Fingerprint(bits=BitVector.random(nbits, rng, 0.02)))
        sequences[key] = 1000 + index
    queries = [database.get(f"dev-{index % n_rows:03d}").bits for index in range(60)]
    queries += [BitVector.random(nbits, rng, 0.02) for _ in range(3)]
    queries.append(BitVector.zeros(nbits))
    expected = []
    for query in queries:
        identification = database.identify_error_string(query, THRESHOLD)
        expected.append(
            (sequences[identification.key], identification) if identification.matched else None
        )

    row_words = (n_rows, (nbits + 63) // 64)
    kernel_calls = []
    popcount_words = distance_module.popcount_words

    def counting(words):
        if words.shape[-2:] == row_words:
            kernel_calls.append(words.shape)
        return popcount_words(words)

    monkeypatch.setattr(distance_module, "popcount_words", counting)
    assert scan_replica(database, sequences, queries, THRESHOLD) == expected
    if n_rows < 100:
        assert len(kernel_calls) == 1
    scored = len(queries) - 1
    per_call = max(1, distance_module.PROBE_BATCH_WORDS // (row_words[0] * row_words[1]))
    assert len(kernel_calls) == -(-scored // per_call)


def _counted_corpus(n_rows: int, rng):
    database = FingerprintDatabase()
    sequences = {}
    for index in range(n_rows):
        key = f"dev-{index:03d}"
        database.add(key, Fingerprint(bits=BitVector.random(NBITS, rng, 0.05)))
        sequences[key] = index
    return database, sequences


@pytest.mark.parametrize("n_rows", [0, 1, 30])
def test_scan_replica_counts_a_batch_as_its_queries_one_by_one(n_rows):
    """The ``index.*`` counters move once per batch, by the totals one
    scan per query would add: empty queries fail unscored, every row is
    verified for the rest, and matches plus misses cover them."""
    rng = np.random.default_rng(n_rows)
    database, sequences = _counted_corpus(n_rows, rng)
    queries = [fingerprint.bits for _key, fingerprint in database.items()]
    queries += [BitVector.random(NBITS, rng, 0.05) for _ in range(4)]
    queries += [BitVector.zeros(NBITS)]
    batched, single = ServiceMetrics(), ServiceMetrics()
    answers = scan_replica(database, sequences, queries, THRESHOLD, batched)
    assert answers == [
        scan_replica(database, sequences, [query], THRESHOLD, single)[0]
        for query in queries
    ]
    counters = batched.counters_with_prefix("index.")
    assert counters == single.counters_with_prefix("index.")
    scored = len(queries) - 1
    assert counters["index.queries"] == len(queries)
    assert counters["index.empty_queries"] == 1
    assert counters["index.verifications"] == n_rows * scored
    assert counters["index.pairs_considered"] == n_rows * scored
    matched = sum(answer is not None for answer in answers)
    assert counters.get("index.matches", 0) == matched
    assert counters["index.misses"] == scored - matched
    assert "identify.indexed" in batched.stats()["stages"]
    assert scan_replica(database, sequences, [], THRESHOLD, batched) == []
    assert batched.counters_with_prefix("index.") == counters


def test_batch_service_counts_shard_scans_into_the_store_metrics(tmp_path, rng):
    """The local transport counts every shard scan into the store's
    sink, whatever sink the batch service itself writes to."""
    corpus = [
        (f"dev-{index:03d}", Fingerprint(bits=BitVector.random(NBITS, rng, 0.05)))
        for index in range(12)
    ]
    store = ShardedFingerprintStore(tmp_path / "store", n_shards=2)
    store.ingest(corpus)
    queries = [BatchQuery.from_errors(key, fp.bits) for key, fp in corpus[:5]]
    queries.append(BatchQuery.from_errors("empty", BitVector.zeros(NBITS)))
    service = BatchIdentificationService(
        store, metrics=ServiceMetrics(), cluster_residuals=False
    )
    report = service.run(queries)
    assert [result.identification.key for result in report.results[:5]] == [
        key for key, _fp in corpus[:5]
    ]
    counters = store.metrics.counters_with_prefix("index.")
    shards = len({record.shard for record in store.segments})
    assert counters["index.queries"] == len(queries) * shards
    assert counters["index.empty_queries"] == shards
    assert counters["index.verifications"] == len(corpus) * (len(queries) - 1)
    assert service.metrics.counters_with_prefix("index.") == {}
