"""Ingest recovery without a journal: wedged handles, the
unpublished-output sweep and write ordering.  The crash at every IO
operation is enumerated by the shared harness in
``test_crash_harness.py``."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.reliability import FaultPlan, FaultyIO, verify_store
from repro.service import ShardedFingerprintStore
from tests.reliability.conftest import make_batch
from tests.reliability.test_crash_harness import snapshot

N_SHARDS = 3
FIRST_BATCH = 18
SECOND_BATCH = 12


@pytest.fixture
def base_store(tmp_path, rng):
    """A store with one committed batch, plus the second batch to come.

    The batches interleave one key range, so the second ingest adds a
    segment to every shard."""
    root = tmp_path / "base"
    store = ShardedFingerprintStore(root, n_shards=N_SHARDS)
    corpus = make_batch(FIRST_BATCH + SECOND_BATCH, rng)
    second = corpus[1 : 2 * SECOND_BATCH : 2]
    first = corpus[: 2 * SECOND_BATCH : 2] + corpus[2 * SECOND_BATCH :]
    store.ingest(first)
    return root, first, second


def _count_ingest_ops(root, second, tmp_path):
    """Clean dry run on a copy, counting open ops and ingest ops."""
    work = tmp_path / "dryrun"
    shutil.copytree(root, work)
    io_ = FaultyIO()
    store = ShardedFingerprintStore(work, storage_io=io_)
    open_ops = io_.ops
    store.ingest(second)
    return open_ops, io_.ops - open_ops


def _segment_write_op(root, second, tmp_path, nth=1):
    """1-based op index of the ``nth`` segment write in a clean
    open+ingest."""
    work = tmp_path / "dryrun-segments"
    shutil.copytree(root, work)
    io_ = FaultyIO()
    ShardedFingerprintStore(work, storage_io=io_).ingest(second)
    writes = [
        index + 1
        for index, (name, path) in enumerate(io_.log)
        if name == "write_bytes" and path.endswith(".pcfp")
    ]
    return writes[nth - 1]


def _crash_ingest(root, second, work, fail_at):
    """Copy ``root`` to ``work`` and crash an ingest there at ``fail_at``."""
    shutil.copytree(root, work)
    store = ShardedFingerprintStore(
        work, storage_io=FaultyIO(FaultPlan(fail_at=fail_at))
    )
    with pytest.raises(OSError):
        store.ingest(second)
    return store


class TestEveryCrashPoint:
    def test_crashed_handle_refuses_to_serve(self, base_store, tmp_path):
        """After a mid-ingest crash the live handle is inconsistent and
        must refuse queries until recovery runs."""
        root, _first, second = base_store
        # Crash on the second segment write: the first segment is
        # durable but unpublished, the batch is not committed.
        fail_at = _segment_write_op(root, second, tmp_path, 2)
        store = _crash_ingest(root, second, tmp_path / "wedged", fail_at)
        with pytest.raises(ValueError):
            store.load_shard(0)
        with pytest.raises(ValueError):
            store.ingest(make_batch(2, np.random.default_rng(1), prefix="x"))
        # In-process recovery heals the same handle.
        report = store.recover()
        assert report.orphans_removed == ["shard-000/segment-000001.pcfp"]
        assert report.journal_actions() == []
        store.load_shard(0)

    def test_recover_is_idempotent(self, base_store, tmp_path):
        root, _first, second = base_store
        work = tmp_path / "idem"
        _crash_ingest(
            root, second, work, _segment_write_op(root, second, tmp_path, 3)
        )

        reopened = ShardedFingerprintStore(work)
        second_pass = reopened.recover()
        assert second_pass.journal_actions() == []
        assert not second_pass.orphans_removed
        assert verify_store(work).ok

    def test_orphan_segments_are_swept(self, base_store):
        """A planted file above the shard's next segment id is an
        unpublished output: recoverable, and swept by a plain open."""
        root, first, _second = base_store
        orphan = root / "shard-000" / "segment-999999.pcfp"
        orphan.write_bytes(b"PCFPgarbage")
        verification = verify_store(root)
        assert verification.unpublished_files == [
            "shard-000/segment-999999.pcfp"
        ]
        assert verification.recoverable
        assert orphan.exists()  # verify is read-only

        store = ShardedFingerprintStore(root)  # a plain open sweeps it
        assert not orphan.exists()
        report = store.take_recovery_report()
        assert report.orphans_removed == ["shard-000/segment-999999.pcfp"]
        assert store.all_keys() == [key for key, _fp in first]
        assert verify_store(root).ok

    def test_queries_survive_crash_and_recovery(self, base_store, tmp_path):
        """Committed fingerprints answer identically after any crash."""
        from repro.service import BatchIdentificationService, BatchQuery

        root, first, second = base_store
        open_ops, ingest_ops = _count_ingest_ops(root, second, tmp_path)
        queries = [
            BatchQuery.from_errors(key, fingerprint.bits)
            for key, fingerprint in first[::5]
        ]
        for crash_at in (1, ingest_ops // 2, ingest_ops):
            work = tmp_path / f"q-{crash_at:03d}"
            shutil.copytree(root, work)
            io_ = FaultyIO(FaultPlan(fail_at=open_ops + crash_at))
            store = ShardedFingerprintStore(work, storage_io=io_)
            try:
                store.ingest(second)
            except OSError:
                pass
            reopened = ShardedFingerprintStore(work)
            service = BatchIdentificationService(
                reopened, cluster_residuals=False
            )
            report = service.run(queries)
            assert not report.degraded
            for query, result in zip(queries, report.results):
                assert result.matched
                assert result.identification.key == query.query_id


class TestUnpublishedOutputs:
    """A segment file no manifest entry names is an unpublished output
    only when its number is at or above its shard's next segment id."""

    def test_lower_numbered_stray_stays_an_orphan(self, base_store):
        root, first, _second = base_store
        # Shard 0's next segment id is 1: number 0 is below it.
        stray = root / "shard-000" / "segment-000000-copy.pcfp"
        stray.write_bytes((root / "shard-000/segment-000000.pcfp").read_bytes())
        verification = verify_store(root)
        assert verification.orphan_files == [
            "shard-000/segment-000000-copy.pcfp"
        ]
        assert not verification.unpublished_files
        assert not verification.ok and not verification.recoverable

        store = ShardedFingerprintStore(root)
        assert stray.exists()
        assert store.take_recovery_report() is None
        assert store.all_keys() == [key for key, _fp in first]

    def test_rerun_after_crash_reproduces_the_post_state(
        self, base_store, tmp_path
    ):
        root, _first, second = base_store
        clean = tmp_path / "clean"
        shutil.copytree(root, clean)
        ShardedFingerprintStore(clean).ingest(second)
        post = snapshot(clean)

        work = tmp_path / "rerun"
        _crash_ingest(
            root, second, work, _segment_write_op(root, second, tmp_path, 3)
        )
        assert verify_store(work).recoverable
        ShardedFingerprintStore(work).ingest(second)
        assert snapshot(work, with_tmp=True) == post


class TestWriteOrdering:
    def test_protocol_order_segments_then_manifest(self, base_store, tmp_path):
        """The durability checklist, asserted through the recording IO:
        each segment is written synced and its shard directory fsynced,
        then the manifest publish commits the batch.  Eight sync ops
        (segment, shard directory, manifest temporary and root directory
        are synced) and no journal file."""
        root, _first, second = base_store
        work = tmp_path / "order"
        shutil.copytree(root, work)
        io_ = FaultyIO()
        store = ShardedFingerprintStore(work, storage_io=io_)
        opening_ops = io_.ops
        store.ingest(second)
        # Reads (the key-clash check's bloom trailers) change nothing.
        ops = [
            (name, Path(path).relative_to(work).as_posix())
            for name, path in io_.log[opening_ops:]
            if not name.startswith("read")
        ]
        expected = []
        for shard in range(N_SHARDS):
            expected += [
                ("write_bytes", f"shard-{shard:03d}/segment-000001.pcfp"),
                ("fsync_dir", f"shard-{shard:03d}"),
            ]
        expected += [
            ("write_bytes", "manifest.json.tmp"),
            ("replace", "manifest.json"),
            ("fsync_dir", "."),
        ]
        assert ops == expected
        assert sum(name != "replace" for name, _path in ops) == 8
        assert not list(work.glob("*journal*"))
