"""Tests for the supervised streaming identification pipeline.

The contract under test: malformed observations quarantine instead of
crashing, ingest is bounded with explicit admission control, crashed
workers restart (and escalate with a persisted post-mortem when
hopeless), a persistently failing shard trips its breaker, and an
interrupted run resumed from its checkpoint reproduces the
uninterrupted run's results **byte for byte** — exactly once, across
signal drains and injected crash points.
"""

from __future__ import annotations

import json
import signal
import threading

import pytest

from repro.bits import BitVector
from repro.core import Fingerprint
from repro.reliability import (
    STATE_OPEN,
    FaultPlan,
    FaultyIO,
    InjectedFault,
    StorageIO,
    WorkerCrashPlan,
    WorkerFaultInjector,
)
from repro.service import (
    BoundedObservationQueue,
    ObservationError,
    ServiceMetrics,
    ShardedFingerprintStore,
    StreamError,
    StreamSession,
    StreamingIdentificationService,
    install_signal_handlers,
    list_quarantine,
    retry_quarantine,
    validate_observation,
)

NBITS = 512


@pytest.fixture
def corpus(tmp_path, rng):
    """A 3-shard store of 30 devices plus their fingerprint bits."""
    store = ShardedFingerprintStore(tmp_path / "store", n_shards=3)
    bits = {}
    batch = []
    for index in range(30):
        vector = BitVector.random(NBITS, rng, density=0.02)
        bits[f"device-{index:03d}"] = vector
        batch.append((f"device-{index:03d}", Fingerprint(bits=vector, support=3)))
    store.ingest(batch)
    return store, bits


def observation_lines(bits, n=120, poison_every=None, miss_every=None, rng=None):
    """JSONL observation lines hitting the corpus, optionally poisoned."""
    lines = []
    keys = sorted(bits)
    for index in range(n):
        if poison_every and index % poison_every == poison_every // 2:
            lines.append('{"nbits": -4}')
            continue
        if miss_every and index % miss_every == miss_every // 2 and rng is not None:
            errors = BitVector.random(NBITS, rng, density=0.015)
        else:
            errors = bits[keys[index % len(keys)]]
        lines.append(
            json.dumps(
                {
                    "id": f"obs-{index}",
                    "nbits": NBITS,
                    "errors": [int(i) for i in errors.to_indices()],
                }
            )
        )
    return lines


def write_observations(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestValidateObservation:
    def test_accepts_error_observation(self):
        query = validate_observation(
            {"id": "x", "nbits": 64, "errors": [1, 5]}, offset=0
        )
        assert query.query_id == "x"
        assert query.error_string.to_indices().tolist() == [1, 5]

    def test_accepts_pair_observation(self):
        query = validate_observation(
            {"nbits": 64, "approx": [1], "exact": [1, 2]}, offset=7
        )
        assert query.query_id == "obs-7"
        assert query.approx is not None and query.exact is not None

    @pytest.mark.parametrize(
        "record, reason",
        [
            ("{not json", "bad-json"),
            ("[1, 2]", "not-an-object"),
            ({"nbits": 0, "errors": []}, "bad-nbits"),
            ({"nbits": "many", "errors": []}, "bad-nbits"),
            ({"errors": [1]}, "bad-nbits"),
            ({"nbits": 64}, "missing-payload"),
            ({"nbits": 64, "errors": [], "approx": []}, "conflicting-payload"),
            ({"nbits": 64, "approx": [1]}, "truncated-pair"),
            ({"nbits": 64, "exact": [1]}, "truncated-pair"),
            ({"nbits": 64, "errors": "10"}, "bad-indices"),
            ({"nbits": 64, "errors": [1.5]}, "bad-indices"),
            ({"nbits": 64, "errors": [True]}, "bad-indices"),
            ({"nbits": 64, "errors": [64]}, "index-out-of-range"),
            ({"nbits": 64, "errors": [-1]}, "index-out-of-range"),
        ],
    )
    def test_rejections_carry_stable_reason_codes(self, record, reason):
        with pytest.raises(ObservationError) as info:
            validate_observation(record, offset=0)
        assert info.value.reason == reason

    def test_nbits_limit(self):
        with pytest.raises(ObservationError) as info:
            validate_observation(
                {"nbits": 1 << 30, "errors": []}, offset=0, max_nbits=1 << 20
            )
        assert info.value.reason == "nbits-too-large"


class TestBoundedObservationQueue:
    def test_rejects_with_reason_when_full(self):
        metrics = ServiceMetrics()
        queue = BoundedObservationQueue(2, metrics)
        assert queue.offer("a").accepted
        assert queue.offer("b").accepted
        admission = queue.offer("c")
        assert not admission.accepted
        assert "full" in admission.reason
        assert metrics.counter("stream.admissions_rejected") == 1

    def test_peak_never_exceeds_depth(self):
        queue = BoundedObservationQueue(3)
        for value in range(10):
            queue.offer(value)
        assert queue.peak <= queue.depth == 3

    def test_get_drains_then_reports_eof(self):
        queue = BoundedObservationQueue(4)
        queue.offer("x")
        queue.close()
        assert queue.get(timeout_s=0.1) == ("x", False)
        assert queue.get(timeout_s=0.1) == (None, True)

    def test_blocking_put_applies_backpressure(self):
        queue = BoundedObservationQueue(1)
        stop = threading.Event()
        queue.offer("first")
        done = []

        def producer():
            done.append(queue.put("second", stop, poll_s=0.01))

        thread = threading.Thread(target=producer)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # blocked: the bound held
        assert queue.get(timeout_s=0.5)[0] == "first"
        thread.join(timeout=2.0)
        assert done == [True]

    def test_put_aborts_on_stop(self):
        queue = BoundedObservationQueue(1)
        queue.offer("occupied")
        stop = threading.Event()
        stop.set()
        assert queue.put("never", stop, poll_s=0.01) is False


class TestStreamRun:
    def test_clean_run_identifies_and_quarantines(self, tmp_path, corpus):
        store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl",
            observation_lines(bits, n=100, poison_every=20),
        )
        service = StreamingIdentificationService(
            store, tmp_path / "state", batch_size=16, checkpoint_every=40
        )
        report = service.run(obs)
        assert report.status == "completed" and report.completed
        assert report.observations == 100
        assert report.quarantined == 5
        assert report.matched == 95
        assert report.restarts == 0
        results = (tmp_path / "state" / "results.jsonl").read_text()
        assert len(results.splitlines()) == 95
        entries = list_quarantine(tmp_path / "state")
        assert [entry.reason for entry in entries] == ["bad-nbits"] * 5
        assert all("nbits" in entry.detail for entry in entries)

    def test_result_lines_are_canonical_and_versioned(self, tmp_path, corpus):
        store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl", observation_lines(bits, n=10)
        )
        service = StreamingIdentificationService(
            store, tmp_path / "state", batch_size=4
        )
        service.run(obs)
        for line in (tmp_path / "state" / "results.jsonl").read_text().splitlines():
            payload = json.loads(line)
            assert payload["schema_version"] == 1
            recoded = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            assert recoded == line

    def test_fresh_run_refuses_existing_state(self, tmp_path, corpus):
        store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl", observation_lines(bits, n=10)
        )
        service = StreamingIdentificationService(store, tmp_path / "state")
        service.run(obs)
        with pytest.raises(StreamError):
            StreamingIdentificationService(store, tmp_path / "state").run(obs)

    def test_resume_without_checkpoint_fails(self, tmp_path, corpus):
        store, _bits = corpus
        service = StreamingIdentificationService(store, tmp_path / "state")
        with pytest.raises(StreamError):
            service.run(tmp_path / "missing.jsonl", resume=True)

    def test_directory_source_reads_sorted_jsonl(self, tmp_path, corpus):
        store, bits = corpus
        lines = observation_lines(bits, n=40)
        directory = tmp_path / "feed"
        directory.mkdir()
        (directory / "b.jsonl").write_text("\n".join(lines[20:]) + "\n")
        (directory / "a.jsonl").write_text("\n".join(lines[:20]) + "\n")
        service = StreamingIdentificationService(
            store, tmp_path / "state", batch_size=8
        )
        report = service.run(directory)
        assert report.observations == 40 and report.matched == 40


class TestExactlyOnceResume:
    def run_uninterrupted(self, tmp_path, store, obs, **kwargs):
        state = tmp_path / "state-full"
        service = StreamingIdentificationService(
            store, state, batch_size=16, checkpoint_every=32, **kwargs
        )
        report = service.run(obs)
        assert report.status == "completed"
        return (state / "results.jsonl").read_bytes(), (
            state / "quarantine.jsonl"
        ).read_bytes()

    def test_interrupt_then_resume_is_byte_identical(
        self, tmp_path, corpus, rng
    ):
        store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl",
            observation_lines(
                bits, n=150, poison_every=25, miss_every=30, rng=rng
            ),
        )
        full_results, full_quarantine = self.run_uninterrupted(
            tmp_path, store, obs
        )
        state = tmp_path / "state-cut"
        first = StreamingIdentificationService(
            store, state, batch_size=16, checkpoint_every=32
        )
        interrupted = first.run(obs, max_batches=3)
        assert interrupted.status == "interrupted"
        assert 0 < interrupted.final_offset < 150
        second = StreamingIdentificationService(
            store, state, batch_size=16, checkpoint_every=32
        )
        resumed = second.run(obs, resume=True)
        assert resumed.status == "completed"
        assert resumed.start_offset == interrupted.final_offset
        assert (state / "results.jsonl").read_bytes() == full_results
        assert (state / "quarantine.jsonl").read_bytes() == full_quarantine

    def test_stop_event_drains_gracefully_mid_stream(
        self, tmp_path, corpus, rng
    ):
        """SIGTERM-style drain: the stop event interrupts between
        batches, everything consumed so far is checkpointed, and resume
        processes each observation exactly once."""
        store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl",
            observation_lines(bits, n=120, miss_every=20, rng=rng),
        )
        full_results, _ = self.run_uninterrupted(tmp_path, store, obs)
        state = tmp_path / "state-drain"
        stop = threading.Event()
        service = StreamingIdentificationService(
            store, state, batch_size=8, checkpoint_every=24
        )
        original = service._process_batch
        calls = []

        def stopping_process(rows, batch_index):
            result = original(rows, batch_index)
            calls.append(batch_index)
            if len(calls) == 4:
                stop.set()  # the signal handler's exact effect
            return result

        service._process_batch = stopping_process
        drained = service.run(obs, stop_event=stop)
        assert drained.status == "interrupted"
        resumed = StreamingIdentificationService(
            store, state, batch_size=8, checkpoint_every=24
        ).run(obs, resume=True)
        assert resumed.status == "completed"
        assert (state / "results.jsonl").read_bytes() == full_results
        # exactly once: interrupted + resumed observation counts tile
        # the stream with no overlap
        assert drained.observations + resumed.observations == 120

    def test_install_signal_handlers_sets_stop_event(self):
        stop = threading.Event()
        restore = install_signal_handlers(stop)
        try:
            signal.raise_signal(signal.SIGTERM)
            assert stop.wait(timeout=1.0)
        finally:
            restore()

    @pytest.mark.parametrize("crash_op", [1, 2, 3, 5, 8])
    def test_resume_after_injected_state_dir_crash(
        self, tmp_path, corpus, rng, crash_op
    ):
        """Kill the pipeline at the crash_op-th state-directory IO
        operation after a warmup window; resume must still reproduce
        the uninterrupted results byte for byte."""
        store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl",
            observation_lines(
                bits, n=120, poison_every=25, miss_every=30, rng=rng
            ),
        )
        full_results, full_quarantine = self.run_uninterrupted(
            tmp_path, store, obs
        )
        state = tmp_path / f"state-crash-{crash_op}"
        # Let the fresh-run initialization (2 writes) plus a few more
        # ops succeed, then crash on one mid-stream operation.
        faulty = FaultyIO(FaultPlan(fail_at=4 + crash_op, mode="crash"))
        first = StreamingIdentificationService(
            store,
            state,
            batch_size=16,
            checkpoint_every=32,
            storage_io=faulty,
        )
        with pytest.raises(InjectedFault):
            first.run(obs)
        second = StreamingIdentificationService(
            store, state, batch_size=16, checkpoint_every=32
        )
        # The operator protocol: --resume iff a checkpoint was ever
        # written; a crash before the first checkpoint restarts fresh
        # (which the pipeline allows precisely because no checkpoint
        # exists yet).
        resumed = second.run(
            obs, resume=(state / "checkpoint.json").exists()
        )
        assert resumed.status == "completed"
        assert (state / "results.jsonl").read_bytes() == full_results
        assert (state / "quarantine.jsonl").read_bytes() == full_quarantine


class TestSupervisionAndBreakers:
    def test_worker_kills_are_absorbed(self, tmp_path, corpus):
        store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl", observation_lines(bits, n=96)
        )
        injector = WorkerFaultInjector(WorkerCrashPlan(crash_at=(2, 5)))
        service = StreamingIdentificationService(
            store,
            tmp_path / "state",
            batch_size=16,
            worker_fault_hook=injector,
            max_restarts=2,
        )
        report = service.run(obs)
        assert report.status == "completed"
        assert report.restarts == 2
        assert injector.kills == 2
        assert report.matched == 96

    def test_restart_budget_exhaustion_writes_fatal(self, tmp_path, corpus):
        store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl", observation_lines(bits, n=64)
        )
        # Batch 2's every attempt dies: invocations 2, 3, 4 with a
        # restart budget of 2 (3 attempts).
        injector = WorkerFaultInjector(WorkerCrashPlan(crash_at=(2, 3, 4)))
        service = StreamingIdentificationService(
            store,
            tmp_path / "state",
            batch_size=16,
            checkpoint_every=16,
            worker_fault_hook=injector,
            max_restarts=2,
        )
        report = service.run(obs)
        assert report.status == "failed"
        assert report.fatal is not None
        assert report.fatal["error_type"] == "InjectedFault"
        fatal_path = tmp_path / "state" / "fatal.json"
        assert json.loads(fatal_path.read_text()) == report.fatal
        # the completed first batch survived and is resumable
        resumed = StreamingIdentificationService(
            store, tmp_path / "state", batch_size=16, checkpoint_every=16
        ).run(obs, resume=True)
        assert resumed.status == "completed"
        assert resumed.start_offset == 16

    def test_persistently_failing_shard_trips_breaker(
        self, tmp_path, corpus, rng
    ):
        _clean_store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl", observation_lines(bits, n=96)
        )
        # Reopen the corpus store through an IO layer in which shard 1's
        # segment files always fail to read.
        faulty = FaultyIO(
            FaultPlan(fail_at=1, fail_count=10**9, match="shard-001")
        )
        store = ShardedFingerprintStore(
            tmp_path / "store", storage_io=faulty
        )
        service = StreamingIdentificationService(
            store,
            tmp_path / "state",
            batch_size=16,
            shard_retries=1,
            retry_backoff_s=0.0,
            breaker_failure_threshold=2,
            breaker_reset_s=3600.0,
        )
        report = service.run(obs)
        assert report.status == "completed"
        snapshot = report.breakers
        assert snapshot["1"]["state"] == STATE_OPEN
        degraded = {entry.shard: entry for entry in report.degraded_shards}
        assert 1 in degraded
        # after the breaker opened, later batches skipped without attempts
        assert degraded[1].attempts >= 2
        assert "circuit breaker open" in degraded[1].reason
        assert service.metrics.counter("batch.shard_short_circuits") > 0


class TestStreamSession:
    def test_push_mode_with_backpressure_rejections(self, tmp_path, corpus):
        store, bits = corpus
        service = StreamingIdentificationService(
            store, tmp_path / "state", batch_size=8, queue_depth=4
        )
        session = StreamSession(service, admission_timeout_s=0.5)
        outcomes = [
            session.submit(line)
            for line in observation_lines(bits, n=40)
        ]
        report = session.close()
        accepted = sum(1 for outcome in outcomes if outcome.accepted)
        assert report.status == "completed"
        assert report.observations == accepted
        for outcome in outcomes:
            if not outcome.accepted:
                assert "full" in outcome.reason

    def test_zero_timeout_session_rejects_rather_than_buffers(
        self, tmp_path, corpus
    ):
        store, bits = corpus
        service = StreamingIdentificationService(
            store, tmp_path / "state", batch_size=8, queue_depth=2
        )
        session = StreamSession(service)
        outcomes = [
            session.submit(line) for line in observation_lines(bits, n=60)
        ]
        report = session.close()
        rejected = [o for o in outcomes if not o.accepted]
        assert rejected, "a depth-2 queue must reject a fast producer"
        assert report.observations + len(rejected) == 60


class TestQuarantineTriage:
    def test_retry_requalifies_fixed_observations(self, tmp_path, corpus):
        store, bits = corpus
        key = sorted(bits)[0]
        # An observation rejected only because of the nbits cap.
        big = json.dumps(
            {
                "id": "late-bloomer",
                "nbits": NBITS,
                "errors": [int(i) for i in bits[key].to_indices()],
            }
        )
        lines = observation_lines(bits, n=20) + [big]
        obs = write_observations(tmp_path / "obs.jsonl", lines)
        service = StreamingIdentificationService(
            store, tmp_path / "state", batch_size=8, max_nbits=NBITS // 2
        )
        report = service.run(obs)
        assert report.quarantined == 21  # every line exceeds the cap
        retry = retry_quarantine(store, tmp_path / "state")  # default cap
        assert retry.retried == 21
        assert retry.still_quarantined == 0
        assert retry.matched == 21
        assert list_quarantine(tmp_path / "state") == []
        results = (tmp_path / "state" / "results.jsonl").read_text()
        last = json.loads(results.splitlines()[-1])
        assert last["retried"] is True and last["matched"] is True

    def test_retry_keeps_truly_bad_entries(self, tmp_path, corpus):
        store, bits = corpus
        lines = observation_lines(bits, n=20, poison_every=5)
        obs = write_observations(tmp_path / "obs.jsonl", lines)
        service = StreamingIdentificationService(
            store, tmp_path / "state", batch_size=8
        )
        report = service.run(obs)
        assert report.quarantined == 4
        retry = retry_quarantine(store, tmp_path / "state")
        assert retry.retried == 0
        assert retry.still_quarantined == 4
        assert len(list_quarantine(tmp_path / "state")) == 4


class CrashAtCheckpoint(StorageIO):
    """State-directory IO that dies on the ``n``-th checkpoint publish."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.checkpoints = 0

    def write_bytes(self, path, data, sync=True):
        if str(path).endswith("checkpoint.json.tmp"):
            self.checkpoints += 1
            if self.checkpoints == self.n:
                raise InjectedFault(f"crash at checkpoint publish {self.n}")
        super().write_bytes(path, data, sync)


class TestRetryBetweenCrashAndResume:
    def test_each_offset_is_recorded_once(self, tmp_path, corpus):
        """A crashed (undrained) run leaves a results tail past its
        checkpoint for ``--resume`` to truncate: a retry in between must
        not count that tail as checkpointed, or the resume records its
        offsets again."""
        store, bits = corpus
        lines = observation_lines(bits, n=48)
        obs = write_observations(tmp_path / "obs.jsonl", lines[:8])
        state = tmp_path / "state"
        options = dict(batch_size=4, checkpoint_every=8)
        # Every line exceeds this cap: the first 8 land in quarantine.
        capped = StreamingIdentificationService(
            store, state, max_nbits=NBITS // 2, **options
        )
        assert capped.run(obs).quarantined == 8
        write_observations(obs, lines)
        crashing = StreamingIdentificationService(
            store, state, storage_io=CrashAtCheckpoint(2), **options
        )
        with pytest.raises(InjectedFault):
            crashing.run(obs, resume=True)
        checkpointed = json.loads((state / "checkpoint.json").read_text())
        assert (state / "results.jsonl").stat().st_size > checkpointed[
            "results_bytes"
        ], "the crash left no uncheckpointed tail"
        retry = retry_quarantine(store, state)  # default cap requalifies
        assert retry.retried == 8 and retry.still_quarantined == 0
        resumed = StreamingIdentificationService(store, state, **options)
        assert resumed.run(obs, resume=True).status == "completed"
        offsets = [
            json.loads(line)["offset"]
            for line in (state / "results.jsonl").read_text().splitlines()
        ]
        assert sorted(offsets) == list(range(48))


class TestCrossSeamResume:
    """Satellite: compose *different* fault plans on the two durable
    seams of one run — a persistent shard outage in the fingerprint
    store while the checkpoint directory crashes mid-stream — and
    require the resumed run to reproduce the uninterrupted run's
    results byte for byte, degradation included."""

    SERVICE_KWARGS = dict(
        batch_size=16,
        checkpoint_every=32,
        shard_retries=1,
        retry_backoff_s=0.0,
        breaker_failure_threshold=2,
        breaker_reset_s=3600.0,
    )

    def faulted_store(self, tmp_path):
        """The corpus store behind a permanent shard-001 outage: every
        IO against that shard fails, independent of op index (so the
        plan is deterministic under threaded shard fan-out)."""
        io = FaultyIO(
            FaultPlan(fail_at=1, fail_count=10**9, match="shard-001")
        )
        return ShardedFingerprintStore(
            tmp_path / "store", storage_io=io
        ), io

    def test_resume_with_independent_store_and_state_plans(
        self, tmp_path, corpus, rng
    ):
        _clean_store, bits = corpus
        obs = write_observations(
            tmp_path / "obs.jsonl",
            observation_lines(
                bits, n=120, poison_every=25, miss_every=30, rng=rng
            ),
        )
        # Reference: the store seam degraded, the state seam clean.
        store, _io = self.faulted_store(tmp_path)
        state_full = tmp_path / "state-full"
        reference = StreamingIdentificationService(
            store, state_full, **self.SERVICE_KWARGS
        ).run(obs)
        assert reference.status == "completed"
        assert reference.degraded_shards, "shard outage never degraded"
        full_results = (state_full / "results.jsonl").read_bytes()
        full_quarantine = (state_full / "quarantine.jsonl").read_bytes()

        # Crash run: store on its outage plan, checkpoint dir on its
        # own crash plan (past initialization and the first
        # checkpoint window) — two seams, two independent plans.
        store, store_io = self.faulted_store(tmp_path)
        state = tmp_path / "state-cross"
        state_io = FaultyIO(FaultPlan(fail_at=7, mode="crash"))
        first = StreamingIdentificationService(
            store, state, storage_io=state_io, **self.SERVICE_KWARGS
        )
        with pytest.raises(InjectedFault):
            first.run(obs)
        # Both seams really did fire — independently.
        assert store_io.faults_fired >= 1
        assert state_io.faults_fired == 1

        # Resume: the store seam still faulted (fresh plan), the state
        # seam clean. The operator protocol from the single-seam test
        # applies unchanged: --resume iff a checkpoint exists.
        store, store_io = self.faulted_store(tmp_path)
        resumed = StreamingIdentificationService(
            store, state, **self.SERVICE_KWARGS
        ).run(obs, resume=(state / "checkpoint.json").exists())
        assert resumed.status == "completed"
        assert store_io.faults_fired >= 1
        assert {entry.shard for entry in resumed.degraded_shards} == {1}
        assert (state / "results.jsonl").read_bytes() == full_results
        assert (state / "quarantine.jsonl").read_bytes() == full_quarantine
